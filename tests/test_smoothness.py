import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets import smoothness
from aftermarkets.aftermarket import (NO_OFFER, ResaleSpec, SignalProtocol,
                                      ThresholdBuyer)
from aftermarkets.auctions import (BidBatch, BidVector, discriminatory,
                                   discriminatory_units_won,
                                   first_price_deviation_wins,
                                   first_price_single)
from aftermarkets.combined import Mechanism, Strategy, play
from aftermarkets.smoothness import (MAX_ACTION_PROFILES, ONE_MINUS_INV_E,
                                     OPT_OUT, CheckDomain,
                                     CombinedSingleItemGame, FiniteDist,
                                     LiftedAction, LiftedGame,
                                     MultiUnitDiscriminatory,
                                     RoundAction, SingleItemAllPay,
                                     SingleItemFirstPrice, SmoothableGame,
                                     SmoothnessCertificate, check_semi_smooth,
                                     check_smooth, discriminatory_deviation,
                                     discriminatory_deviation_generator,
                                     fpa_deviation, fpa_deviation_generator,
                                     lift_certificate_to_combined, poa_bound,
                                     uniform_price_overbidding_probe)
from aftermarkets.valuations import (HeadTailModel, MarginalValuation,
                                     MarketModel)

BID_GRID = tuple(round(0.1 * k, 3) for k in range(11))


def fpa_cert(resolution=2000, lam=ONE_MINUS_INV_E, mu=1.0):
    return SmoothnessCertificate(lam, mu, fpa_deviation_generator(resolution))


def test_fpa_deviation_is_a_distribution():
    d = fpa_deviation(1.0, 500)
    assert sum(d.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert max(d.support) <= ONE_MINUS_INV_E
    zero = fpa_deviation(0.0)
    assert (zero.support, zero.probs.tolist()) == ((0.0,), [1.0])


def reference_fpa_deviation(own_value, resolution):
    """fpa_deviation built from Python lists, atom by atom, as support and
    probability lists: the reference for its arrays."""
    v = float(own_value)
    if v <= 0.0:
        return [0.0], [1.0]
    top = ONE_MINUS_INV_E * v
    ys = [top * k / resolution for k in range(resolution + 1)]
    masses = [math.log((v - y) / (v - z)) for y, z in zip(ys, ys[1:])]
    total = sum(masses)
    return ys[:-1], [p / total for p in masses]


@given(st.one_of(st.sampled_from((0.0, -0.0, -1.0, 1.0, 0.5, 0.1, 0.7, 5e-324, 1e-323)),
                 st.floats(-10.0, 1e6)),
       st.integers(1, 3000))
@settings(max_examples=150, deadline=None)
def test_fpa_deviation_matches_list_reference(value, resolution):
    try:
        support, probs = reference_fpa_deviation(value, resolution)
    except ZeroDivisionError:  # the least subnormal: the support reaches v
        with pytest.raises(ValueError, match="above 5e-324"):
            fpa_deviation(value, resolution)
        return
    d = fpa_deviation(value, resolution)
    assert [float(y).hex() for y in d.support] == [y.hex() for y in support]
    assert [p.hex() for p in d.probs.tolist()] == [p.hex() for p in probs]


def reference_discriminatory_support(valuation, m, resolution):
    """One BidVector per scale, batched: the reference for the support of
    discriminatory_deviation."""
    marginals = [v for v, c in valuation.runs for _ in range(c)]
    marginals += [0] * (m - len(marginals))
    scales = [1.0 - math.exp(-(k / resolution)) for k in range(resolution)]
    return BidBatch.of([BidVector([vj * s for vj in marginals], m) for s in scales])


@st.composite
def ulp_valuations(draw, m):
    """Marginals with equal runs, zero runs and neighbours one ulp apart,
    whose scaled bids may round to one value."""
    marginals = []
    for v in draw(st.lists(st.one_of(st.sampled_from((0.0, 1.0, 0.3, 1e-300)),
                                     st.floats(0.0, 1e3)), max_size=m)):
        marginals += [v] * draw(st.integers(1, 2))
        if draw(st.booleans()):
            marginals.append(float(np.nextafter(v, 0.0)))
    return MarginalValuation(sorted(marginals, reverse=True))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_discriminatory_deviation_matches_bid_vectors(data):
    m = data.draw(st.integers(1, 8))
    resolution = data.draw(st.integers(1, 400))
    valuation = data.draw(ulp_valuations(m))
    if valuation.n_explicit > m:
        with pytest.raises(ValueError, match=f"at most m = {m} finite"):
            discriminatory_deviation(valuation, m, resolution)
        return
    d = discriminatory_deviation(valuation, m, resolution)
    ref = reference_discriminatory_support(valuation, m, resolution)
    for name in ("run_bids", "run_counts", "tail"):
        fast, slow = getattr(d.support, name), getattr(ref, name)
        assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape)
        assert fast.tobytes() == slow.tobytes()
    assert d.probs.tolist() == [1.0 / resolution] * resolution


def test_discriminatory_deviation_merges_rounded_runs():
    # 0.9 and its lower neighbour scale to one bid at 50 of the 300 scales
    valuation = MarginalValuation([0.9, float(np.nextafter(0.9, 0.0)), 0.0])
    support = discriminatory_deviation(valuation, 4, 300).support
    ref = reference_discriminatory_support(valuation, 4, 300)
    assert support.run_counts.shape == (300, 2)
    assert (support.run_counts[:, 0] == 2).sum() == 50
    assert support.run_counts.tobytes() == ref.run_counts.tobytes()
    assert support.tail.tolist() == ref.tail.tolist()
    assert support.tail[0] == 4  # the scale-0 row is all padding
    empty = discriminatory_deviation(MarginalValuation([]), 3, 5).support
    assert empty.run_bids.shape == (5, 0) and empty.tail.tolist() == [3] * 5


@pytest.mark.parametrize("build", [
    lambda: fpa_deviation(math.inf),
    lambda: fpa_deviation(-math.inf),
    lambda: fpa_deviation(math.nan),
    lambda: fpa_deviation(1.0, 0),
    lambda: fpa_deviation(0.0, -1),
    lambda: discriminatory_deviation(MarginalValuation([math.inf, 1.0]), 2),
    lambda: discriminatory_deviation(MarginalValuation([1.0]), 2, 0),
])
def test_deviation_builders_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_check_smooth_rejects_nan_slack():
    with pytest.raises(ValueError, match="need a finite value"):
        check_smooth(SingleItemFirstPrice(2), fpa_cert(),
                     CheckDomain(((math.inf, 0.5),), (BID_GRID, BID_GRID)))

    # an infinite value makes lhs and lam * OPT both infinite
    def bid_zero(agent, value_profile):
        return FiniteDist.point(0.0)
    cert = SmoothnessCertificate(0.5, 1.0, bid_zero)
    with pytest.raises(ValueError, match=r"NaN slack at values \(inf, 0.5\), "
                                         r"actions \(0.0, 0.0\)"):
        check_smooth(SingleItemFirstPrice(2), cert,
                     CheckDomain(((math.inf, 0.5),), ((0.0,), (0.0,))))


def test_fpa_certificate_passes():
    cert = fpa_cert()
    assert cert.semi
    game = SingleItemFirstPrice(2)
    for values in ((1.0, 0.5), (0.7, 0.7), (1.0, 0.0)):
        dom = CheckDomain((values,), (BID_GRID, BID_GRID))
        assert check_smooth(game, cert, dom).passes(1e-3)


def test_fpa_near_zero_slack_configuration():
    game = SingleItemFirstPrice(2)
    dom = CheckDomain(((1.0, 0.1),), ((0.6,), (0.6,)))
    rep = check_smooth(game, fpa_cert(), dom)
    # the continuum slack is exactly 0 here; only discretization remains
    assert -1e-3 <= rep.min_slack <= 1e-3
    assert rep.passes(1e-3)


def test_stronger_lambda_fails():
    game = SingleItemFirstPrice(2)
    dom = CheckDomain(((1.0, 0.1),), ((0.6,), (0.6,)))
    rep = check_smooth(game, fpa_cert(lam=0.99), dom)
    assert not rep.passes(1e-3)
    assert rep.min_slack == pytest.approx(-0.358, abs=2e-3)


def test_slack_monotone_in_lambda():
    game = SingleItemFirstPrice(2)
    dom = CheckDomain(((1.0, 0.4),), (BID_GRID, BID_GRID))
    slacks = [check_smooth(game, fpa_cert(lam=l), dom).min_slack
              for l in (0.4, 0.55, ONE_MINUS_INV_E, 0.8)]
    assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))


def test_lifting_preserves_slack_exactly():
    base_game = SingleItemFirstPrice(2)
    cert = fpa_cert()
    values = (1.0, 0.1)
    base = check_smooth(base_game, cert, CheckDomain((values,), ((0.6,), (0.6,))))

    lifted = lift_certificate_to_combined(cert)
    g1 = CombinedSingleItemGame(2, rounds=1)
    a1 = (LiftedAction(0.6, (RoundAction(0.9),)),
          LiftedAction(0.6, (RoundAction(0.2, 0.5),)))
    r1 = check_smooth(g1, lifted, CheckDomain((values,), ((a1[0],), (a1[1],))))
    assert r1.min_slack == pytest.approx(base.min_slack, abs=1e-12)

    double = lift_certificate_to_combined(lifted)
    g2 = CombinedSingleItemGame(2, rounds=2)
    a2 = (LiftedAction(0.6, (RoundAction(0.9), RoundAction(0.05))),
          LiftedAction(0.6, (RoundAction(0.2, 0.5), OPT_OUT)))
    r2 = check_smooth(g2, double, CheckDomain((values,), ((a2[0],), (a2[1],))))
    assert r2.min_slack == pytest.approx(base.min_slack, abs=1e-12)


def wrapping_lift(cert, rounds):
    """A lift that wraps every atom of the deviation in a LiftedAction opting
    out of each of `rounds` resale rounds: the reference for the identity
    lift."""
    def gen(agent, own_value):
        dist = cert.generator(agent, own_value)
        return FiniteDist(tuple(LiftedAction(dist.support[j], (OPT_OUT,) * rounds)
                                for j in range(len(dist.probs))), dist.probs)
    return SmoothnessCertificate(cert.lam, cert.mu, gen)


@pytest.mark.parametrize("rounds", (1, 2))
@pytest.mark.parametrize("market", ("single", "discriminatory"))
def test_identity_lift_matches_wrapped_atoms(market, rounds):
    if market == "single":
        game, cert = LiftedGame(SingleItemFirstPrice(2), rounds), fpa_cert(500)
        values = ((1.0, 0.1), (1.0, 0.5), (0.7, 0.7))
        bids = (0.0, 0.4, 0.6)
    else:
        m = 2
        game = LiftedGame(MultiUnitDiscriminatory(2, m), rounds)
        cert = SmoothnessCertificate(ONE_MINUS_INV_E, 1.0,
                                     discriminatory_deviation_generator(m, 60))
        values = ((MarginalValuation([1.0, 0.5]), MarginalValuation([0.8])),
                  (MarginalValuation([2.0, 2.0]), MarginalValuation([])))
        bids = (BidVector([], m), BidVector([0.5, 0.3]), BidVector.flat(1.0, 2, m))
    plans = (RoundAction(0.9), RoundAction(0.2, 0.5), OPT_OUT)
    actions = bids[:1] + tuple(LiftedAction(b, (p,) * rounds)
                               for b in bids[1:] for p in plans)
    dom = CheckDomain(values, (actions, actions))
    lifted = check_smooth(game, lift_certificate_to_combined(cert), dom)
    wrapped = check_smooth(game, wrapping_lift(cert, rounds), dom)
    assert lifted == wrapped and lifted.min_slack.hex() == wrapped.min_slack.hex()
    assert lifted.n_deviation_atoms == lifted.n_deviation_keys * len(
        cert.generator(0, values[0][0]).probs)


def test_combined_game_resale_actually_trades():
    game = CombinedSingleItemGame(2, rounds=1)
    actions = (LiftedAction(0.5, (RoundAction(seller_price=0.8),)),
               LiftedAction(0.0, (RoundAction(),)))
    utils, rev = game.utilities_and_revenue((0.6, 1.0), actions)
    # agent 0 wins at 0.5 and resells to agent 1 at 0.8
    assert rev == pytest.approx(0.5)
    assert utils[0] == pytest.approx(-0.5 + 0.8)
    assert utils[1] == pytest.approx(1.0 - 0.8)


def test_discriminatory_semi_smooth():
    m = 3
    cert = SmoothnessCertificate(ONE_MINUS_INV_E, 1.0,
                                 discriminatory_deviation_generator(m, 300))
    assert cert.semi
    vprofiles = (
        (MarginalValuation([1.0, 0.5, 0.2]), MarginalValuation([0.8, 0.8]),
         MarginalValuation([0.3])),
        (MarginalValuation([1.0]), MarginalValuation([1.0, 1.0, 1.0]),
         MarginalValuation([])),
        (MarginalValuation([2.0, 2.0]), MarginalValuation([1.5]),
         MarginalValuation([1.0, 1.0])),
    )
    bids = tuple(BidVector.from_runs(r, m) for r in
                 ((), ((0.5, 1),), ((1.0, 2),), ((0.9, 1), (0.3, 2)), ((0.2, 3),)))
    dom = CheckDomain(vprofiles, (bids, bids, bids))
    rep = check_semi_smooth(MultiUnitDiscriminatory(3, m), cert, dom)
    assert rep.passes(5e-3)


def test_semi_certificate_is_also_smooth():
    # a semi generator ignores opponents' values, so check_smooth accepts it
    cert = fpa_cert(500)
    game = SingleItemFirstPrice(3)
    dom = CheckDomain(((1.0, 0.5, 0.2),), (BID_GRID[:6],) * 3)
    assert check_smooth(game, cert, dom).passes(2e-3)


def test_full_information_generator_rejected_by_semi_check():
    def gen(agent, value_profile):
        return FiniteDist.point(max(value_profile) / 2.0)
    cert = SmoothnessCertificate(0.5, 1.0, gen)
    assert not cert.semi
    with pytest.raises(ValueError):
        check_semi_smooth(SingleItemFirstPrice(2), cert,
                          CheckDomain(((1.0, 0.5),), (BID_GRID, BID_GRID)))


def test_all_pay_certificate():
    def gen(agent, own_value):
        res = 500
        return FiniteDist(own_value * np.arange(res) / res, np.full(res, 1.0 / res))
    cert = SmoothnessCertificate(0.5, 1.0, gen, "all-pay")
    game = SingleItemAllPay(2)
    dom = CheckDomain(((1.0, 0.5), (0.8, 0.8)), (BID_GRID, BID_GRID))
    assert check_smooth(game, cert, dom).passes(2e-3)


def test_poa_bounds():
    assert poa_bound(ONE_MINUS_INV_E, 1.0) == pytest.approx(math.e / (math.e - 1))
    assert poa_bound(0.5, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        poa_bound(0.0, 1.0)


def test_uniform_price_not_smooth():
    rows = uniform_price_overbidding_probe(ONE_MINUS_INV_E, 1.0, [2, 4, 8, 16])
    slacks = dict(rows)
    for m, s in rows:
        assert s <= -ONE_MINUS_INV_E * m + 1e-9
    # the violation grows linearly with the supply
    assert slacks[16] == pytest.approx(8 * slacks[2], rel=1e-9)


def test_finite_dist_validation():
    with pytest.raises(ValueError):
        FiniteDist((0.0, 1.0), np.array([0.7, 0.2]))
    FiniteDist(np.array([2.0, 4.0]), np.array([0.25, 0.75]))
    FiniteDist(BidBatch.of([BidVector([1.0, 0.5]), BidVector([2.0])]),
               np.array([0.5, 0.5]))


@pytest.mark.parametrize("support, probs", [
    ((0.0,), [math.nan]),
    ((0.0, 1.0), [math.nan, 1.0]),
    ((0.0, 1.0), [1.0, math.nan]),
    ((0.0, 1.0), [1.5, -0.5]),
    ((0.0, 1.0), [1.0]),
])
def test_finite_dist_rejects_nan_negative_and_unmatched_probabilities(support, probs):
    with pytest.raises(ValueError):
        FiniteDist(support, np.array(probs))


def test_generator_arity_checked_at_construction():
    def gen(agent, own_value, resolution):
        return FiniteDist.point(0.0)
    with pytest.raises(ValueError):
        SmoothnessCertificate(0.5, 1.0, gen)


def test_action_profile_cap_raises_before_enumerating(monkeypatch):
    def no_product(*sets):
        raise AssertionError("action profiles enumerated")
    monkeypatch.setattr(smoothness, "product", no_product)
    actions = tuple(float(b) for b in range(60))
    with pytest.raises(ValueError, match="216000 action profiles"):
        CheckDomain(((1.0, 0.5, 0.2),), (actions,) * 3).action_profiles()
    monkeypatch.undo()
    at_cap = CheckDomain(((1.0, 0.5),), (tuple(range(400)), tuple(range(500))))
    assert 400 * 500 == MAX_ACTION_PROFILES
    assert next(iter(at_cap.action_profiles())) == (0, 0)


def test_report_counts_deviation_keys_and_atoms():
    # 3 value profiles x 2 agents x 11 opponent bids, 2000 atoms each
    dom = CheckDomain(((1.0, 0.5), (1.0, 0.1), (0.7, 0.7)), (BID_GRID, BID_GRID))
    rep = check_smooth(SingleItemFirstPrice(2), fpa_cert(2000), dom)
    assert rep.n_profiles_checked == 3 * 11 * 11
    assert rep.n_deviation_keys == 66
    assert rep.n_deviation_atoms == 66 * 2000


def test_check_smooth_sums_atoms_in_order():
    # the slack equals a per-atom computation with Python's sum bit for bit
    # (a pairwise np.sum of the 2000 atoms changes the last bits)
    values, bids = (1.0, 0.5), BID_GRID[:4]
    game, cert = SingleItemFirstPrice(2), fpa_cert(2000)
    rep = check_smooth(game, cert, CheckDomain((values,), (bids, bids)))
    slacks = []
    for actions in product(bids, bids):
        lhs = 0.0
        for i in range(2):
            dist = cert.deviation(i, values)
            lhs += sum(p * game.utilities_and_revenue(
                values, actions[:i] + (d,) + actions[i + 1:])[0][i]
                for d, p in zip(dist.support.tolist(), dist.probs.tolist()))
        rev = game.utilities_and_revenue(values, actions)[1]
        slacks.append(lhs - cert.lam * max(values) + cert.mu * rev)
    assert rep.min_slack == min(slacks)


@pytest.mark.parametrize("resolution", (50, 200, 2000))
def test_fpa_slack_within_discretization_bound(resolution):
    cert = fpa_cert(resolution)
    domains = [((1.0, 0.5), BID_GRID), ((0.7, 0.7), BID_GRID),
               ((1.0, 0.0), BID_GRID), ((1.0, 0.4), BID_GRID),
               ((1.0, 0.1), (0.6,)), ((1.0, 0.5, 0.2), BID_GRID[:6])]
    for values, bids in domains:
        dom = CheckDomain((values,), (bids,) * len(values))
        rep = check_smooth(SingleItemFirstPrice(len(values)), cert, dom)
        assert rep.min_slack >= -ONE_MINUS_INV_E * max(values) / resolution - 1e-12


# -- batched deviation utilities against the per-atom reference ------------

GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
BIDS = st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.5))
VALUES = st.one_of(st.sampled_from(GRID + (2.0,)), st.floats(0.0, 2.0))


def assert_matches_reference(game, values, actions, agent, support):
    fast = game.deviation_utilities(values, actions, agent,
                                    game.deviation_atoms(support))
    ref = SmoothableGame.deviation_utilities(game, values, actions, agent,
                                             tuple(support))
    assert fast.dtype == ref.dtype and fast.shape == ref.shape
    assert fast.tobytes() == ref.tobytes()  # bit for bit, signed zeros too


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_first_price_deviation_utilities_match_reference(data):
    n = data.draw(st.integers(1, 4))
    game = data.draw(st.sampled_from((SingleItemFirstPrice, SingleItemAllPay)))(n)
    values = tuple(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
    actions = tuple(data.draw(st.lists(BIDS, min_size=n, max_size=n)))
    support = data.draw(st.lists(BIDS, min_size=1, max_size=20))
    agent = data.draw(st.integers(0, n - 1))
    assert_matches_reference(game, values, actions, agent, support)


@st.composite
def bid_vectors(draw, m):
    bids = sorted(draw(st.lists(BIDS, max_size=m)), reverse=True)
    return BidVector(bids, draw(st.integers(len(bids), m)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_discriminatory_deviation_utilities_match_reference(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    game = MultiUnitDiscriminatory(n, m)
    values = tuple(
        MarginalValuation(sorted(data.draw(st.lists(VALUES, max_size=m + 1)),
                                 reverse=True))
        for _ in range(n))
    actions = tuple(data.draw(bid_vectors(m)) for _ in range(n))
    support = data.draw(st.lists(bid_vectors(m), min_size=1, max_size=12))
    agent = data.draw(st.integers(0, n - 1))
    assert_matches_reference(game, values, actions, agent, support)


def round_actions():
    prices = st.sampled_from(GRID + (math.inf,))
    return st.one_of(st.just(OPT_OUT),
                     st.builds(RoundAction, prices,
                               st.one_of(st.none(), st.sampled_from(GRID))))


def lifted_actions(rounds, bids=BIDS):
    return st.one_of(bids, st.builds(
        LiftedAction, bids,
        st.lists(round_actions(), max_size=rounds + 1).map(tuple)))


def valuations(m):
    return st.lists(VALUES, max_size=m + 1).map(
        lambda vs: MarginalValuation(sorted(vs, reverse=True)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_combined_deviation_utilities_match_reference(data):
    n = data.draw(st.integers(1, 4))
    rounds = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        game = CombinedSingleItemGame(n, rounds)
        values = tuple(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
        actions_of = lifted_actions(rounds)
    else:
        m = data.draw(st.integers(1, 5))
        game = LiftedGame(MultiUnitDiscriminatory(n, m), rounds)
        values = tuple(data.draw(valuations(m)) for _ in range(n))
        actions_of = lifted_actions(rounds, bid_vectors(m))
    actions = tuple(data.draw(actions_of) for _ in range(n))
    support = data.draw(st.lists(actions_of, min_size=1, max_size=12))
    agent = data.draw(st.integers(0, n - 1))
    assert_matches_reference(game, values, actions, agent, support)


def constant_strategy(action):
    """The play() strategy of a one-round lifted action."""
    step = action.rounds[0] if isinstance(action, LiftedAction) and action.rounds else OPT_OUT
    bid = action.auction if isinstance(action, LiftedAction) else action
    if step is OPT_OUT:
        return Strategy(bid=bid, seller_price=NO_OFFER, buyer=ThresholdBuyer(NO_OFFER))
    return Strategy(bid=bid, seller_price=step.seller_price,
                    buyer=ThresholdBuyer(step.buyer_threshold))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_multi_unit_lift_matches_play(data):
    """One resale round of the lifted discriminatory game is play() with
    the discriminatory auction, winner-led resale and constant strategies."""
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    game = LiftedGame(MultiUnitDiscriminatory(n, m), 1)
    values = tuple(data.draw(valuations(m)) for _ in range(n))
    actions = tuple(data.draw(lifted_actions(1, bid_vectors(m))) for _ in range(n))
    utils, revenue = game.utilities_and_revenue(values, actions)
    out = play(MarketModel(m, (HeadTailModel(),) * n), Mechanism("discriminatory"),
               SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, ResaleSpec.winner_resale(),
               [constant_strategy(a) for a in actions], values)
    assert np.array(utils).tobytes() == np.array(out.utilities).tobytes()
    assert revenue == out.revenue


def test_multi_unit_lift_resale_trades():
    game = LiftedGame(MultiUnitDiscriminatory(2, 2), 1)
    values = (MarginalValuation([0.3, 0.3]), MarginalValuation([1.0, 1.0]))
    actions = (LiftedAction(BidVector([0.5, 0.5]), (RoundAction(0.8),)),
               LiftedAction(BidVector([0.2, 0.2]), (RoundAction(),)))
    utils, rev = game.utilities_and_revenue(values, actions)
    # agent 0 wins both units for 1.0 and resells both to agent 1 at 0.8
    assert rev == pytest.approx(1.0)
    assert utils == pytest.approx((-1.0 + 1.6, 2.0 - 1.6))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_first_price_deviation_wins_matches_clearing(data):
    n = data.draw(st.integers(1, 4))
    bids = data.draw(st.lists(BIDS, min_size=n, max_size=n))
    devs = data.draw(st.lists(BIDS, min_size=1, max_size=20))
    agent = data.draw(st.integers(0, n - 1))
    wins = first_price_deviation_wins(bids, agent, devs)
    for d, won in zip(devs, wins):
        out = first_price_single(bids[:agent] + [d] + bids[agent + 1:])
        assert out.alloc[agent] == won


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_discriminatory_units_won_matches_clearing(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    bids = [data.draw(bid_vectors(m)) for _ in range(n)]
    support = data.draw(st.lists(bid_vectors(m), min_size=1, max_size=12))
    agent = data.draw(st.integers(0, n - 1))
    counts, payments = discriminatory_units_won(bids, agent, BidBatch.of(support), m)
    for bv, count, paid in zip(support, counts, payments):
        out = discriminatory(bids[:agent] + [bv] + bids[agent + 1:], m)
        assert (out.alloc[agent], out.payments[agent]) == (count, paid)


def reference_utilities(game, values, actions):
    """The combined game's original hand-written resale loop, kept as a
    reference for its rounds of `run_posted_resale`."""
    def round_action(action, r):
        if not isinstance(action, LiftedAction) or r >= len(action.rounds):
            return OPT_OUT
        return action.rounds[r]

    out = first_price_single([a.auction if isinstance(a, LiftedAction) else a
                              for a in actions])
    holder = out.alloc.counts.index(1)
    transfers = [0.0] * game.n_agents
    for r in range(game.rounds):
        sell = round_action(actions[holder], r)
        if sell is OPT_OUT or math.isinf(sell.seller_price):
            continue
        price = sell.seller_price
        for b in range(game.n_agents):
            if b == holder:
                continue
            buy = round_action(actions[b], r)
            if buy is OPT_OUT:
                continue
            cut = price if buy.buyer_threshold is None else max(
                price, buy.buyer_threshold)
            if values[b] >= cut:
                transfers[b] += price
                transfers[holder] -= price
                holder = b
                break
    utils = tuple(values[i] * (1 if i == holder else 0)
                  - out.payments[i] - transfers[i]
                  for i in range(game.n_agents))
    return utils, out.revenue


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_combined_resale_matches_reference_loop(data):
    n = data.draw(st.integers(1, 4))
    rounds = data.draw(st.integers(1, 3))
    game = CombinedSingleItemGame(n, rounds)
    values = tuple(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
    actions = tuple(data.draw(lifted_actions(rounds)) for _ in range(n))
    utils, revenue = game.utilities_and_revenue(values, actions)
    ref_utils, ref_revenue = reference_utilities(game, values, actions)
    assert np.array(utils).tobytes() == np.array(ref_utils).tobytes()
    assert revenue == ref_revenue


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_combined_resale_rejects_bad_seller_price(bad):
    game = CombinedSingleItemGame(2, rounds=1)
    actions = (LiftedAction(0.6, (RoundAction(bad),)),
               LiftedAction(0.2, (RoundAction(),)))
    with pytest.raises(ValueError):
        game.utilities_and_revenue((1.0, 0.5), actions)
