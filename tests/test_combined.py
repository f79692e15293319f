import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.aftermarket import (ResaleSpec, SignalProtocol, ThresholdBuyer,
                                      TradeOutcome, check_weak_budget_balance)
from aftermarkets.allocation import Allocation, welfare
from aftermarkets.auctions import AuctionOutcome, BidVector, uniform_price
from aftermarkets.cli import posted_fails_summary
from aftermarkets import combined
from aftermarkets.combined import (CHUNK_ROWS, MECHANISM_KINDS, Mechanism,
                                   MonteCarlo, Quadrature, Strategy,
                                   expected_optimal_welfare, expected_outcome,
                                   play)
from aftermarkets.equilibrium import (Action, CombinedGame,
                                      default_deviation_grid,
                                      scripted_lower_bound_equilibrium)
from aftermarkets.distributions import Uniform, _expectations
from aftermarkets.smoothness import SingleItemAllPay, SingleItemFirstPrice
from aftermarkets.valuations import (HeadTailModel, MarginalValuation,
                                     MarketModel, draw_values, lower_bound_market,
                                     posted_fails_market, realize_batch,
                                     sample_profile, symmetric_fpa_market)

PROTO = SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT


def scripted(m):
    game = scripted_lower_bound_equilibrium(m)
    return game.market, game.mechanism, game.resale, game.strategies()


def test_play_matches_hand_trace():
    m = 10
    market, mech, resale, strategies = scripted(m)
    profile = [market.agents[0].realize(1.25), market.agents[1].realize(1.2),
               market.agents[2].realize()]
    out = play(market, mech, PROTO, resale, strategies, profile)
    assert out.auction_alloc.counts == (1, 1, 8)
    assert out.clearing_price == 0.0
    # A buys 1 at price 1; B buys m-3=7 since z=1.2 >= 1
    assert out.final_alloc.counts == (2, 8, 0)
    assert out.transfers == (1.0, 7.0, -8.0)
    assert out.utilities[2] == pytest.approx(8.0)
    assert out.welfare == pytest.approx(2 + 1.25 + 2 + 7 * 1.2)


def test_accounting_identity():
    m = 10
    market, mech, resale, strategies = scripted(m)
    for seed in range(50):
        profile = sample_profile(market, seed)
        out = play(market, mech, PROTO, resale, strategies, profile)
        # sum of utilities + revenue + net transfers == welfare
        assert sum(out.utilities) + out.revenue + sum(out.transfers) == \
            pytest.approx(out.welfare, abs=1e-9)
        assert sum(out.transfers) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_closed_forms():
    m = 10
    market, mech, resale, strategies = scripted(m)
    quad = Quadrature(subdivide=1, breakpoints=(1.0,))
    res = expected_outcome(market, mech, PROTO, resale, strategies, quad)
    closed = 5.25 + (m - 3) * (1.0 / (2 * m) + 1.0 / (8 * m * m))
    assert res.welfare == pytest.approx(closed, rel=1e-12)
    assert res.utilities[2] == pytest.approx(1.0 + (m - 3) / (2.0 * m), rel=1e-12)
    assert res.revenue == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_agrees_with_quadrature():
    m = 10
    market, mech, resale, strategies = scripted(m)
    quad = expected_outcome(market, mech, PROTO, resale, strategies,
                            Quadrature(subdivide=1, breakpoints=(1.0,)))
    mc = expected_outcome(market, mech, PROTO, resale, strategies,
                          MonteCarlo(40_000, seed=3))
    assert mc.welfare_stderr is not None
    assert abs(mc.welfare - quad.welfare) < 3.5 * mc.welfare_stderr


def test_expected_optimal_welfare_closed_form():
    m = 10
    market = lower_bound_market(m)
    Ez = market.agents[1].dist.mean()
    opt = expected_optimal_welfare(market, Quadrature(subdivide=1))
    assert opt == pytest.approx(5.25 + (m - 3) * Ez, rel=1e-10)


def test_fast_path_cross_check():
    """The constant-action evaluator and the generic play() pipeline agree."""
    m = 10
    game = scripted_lower_bound_equilibrium(m)
    ev = game.evaluator()
    market, mech, resale, strategies = scripted(m)
    quad = Quadrature(subdivide=1, breakpoints=(1.0,))
    res = expected_outcome(market, mech, PROTO, resale, strategies, quad)
    assert ev.expected_welfare() == pytest.approx(res.welfare, rel=1e-12)
    for i in range(3):
        assert ev.expected_utility(i) == pytest.approx(res.utilities[i], rel=1e-12)


ROLES = ("regular", "bulk", "speculator")


@pytest.fixture(scope="module")
def warm_evaluators():
    """One evaluator per m, kept across examples so that its resale memo is
    warm; each starts from a slice of every role's deviation grid."""
    evaluators = {}

    def get(game):
        m = game.market.m
        if m not in evaluators:
            ev = evaluators[m] = game.evaluator()
            for agent, role in enumerate(ROLES):
                for dev in default_deviation_grid(m, role).deviations(m)[::25]:
                    ev.expected_utility(agent, {agent: dev})
                    ev.expected_welfare({agent: dev})
        return evaluators[m]

    return get


def effective_cuts(actions):
    """1.0 and every resale purchase cutoff of the scripted profile (seller C
    posts to buyers A and B): the integrand's breakpoints."""
    price = actions[2].seller_price
    cuts = {1.0}
    if price is not None and math.isfinite(price):
        cuts |= {float(ThresholdBuyer(a.buyer_threshold).cut(price)) for a in actions[:2]}
    return tuple(sorted(cuts))


@given(st.integers(4, 40), st.sampled_from((0, 1, 2)), st.data())
@settings(max_examples=50, deadline=None)
def test_fast_path_randomized_cross_check(warm_evaluators, m, agent, data):
    """A warm evaluator returns exactly what a fresh one does, and both agree
    with play() integrated exactly over the same profile."""
    game = scripted_lower_bound_equilibrium(m)
    devs = default_deviation_grid(m, ROLES[agent]).deviations(m)
    # bid deviations outnumber the aftermarket ones a hundred to one
    dev = data.draw(st.sampled_from([d for d in devs if d.bid is not None])
                    | st.sampled_from([d for d in devs if d.bid is None]))
    overrides = {agent: dev}
    warm, fresh = warm_evaluators(game), game.evaluator()
    u = warm.expected_utility(agent, overrides)
    w = warm.expected_welfare(overrides)
    assert u == fresh.expected_utility(agent, overrides)
    assert w == fresh.expected_welfare(overrides)
    actions = list(game.base_actions)
    actions[agent] = dev.merged_into(actions[agent])
    merged = replace(game, base_actions=tuple(actions))
    res = expected_outcome(merged.market, merged.mechanism, PROTO, merged.resale,
                           merged.strategies(),
                           Quadrature(subdivide=1, breakpoints=effective_cuts(actions)))
    assert u == pytest.approx(res.utilities[agent], rel=1e-10)
    assert w == pytest.approx(res.welfare, rel=1e-10)


@pytest.mark.parametrize("resale", [None, ResaleSpec.single(2, (1,))],
                         ids=["no-resale", "random-agent-outside-group"])
@pytest.mark.parametrize("m", [10, 100])
def test_evaluator_agents_outside_resale_groups(m, resale):
    """An agent outside every resale group, random or not, is a block of its
    own, and the evaluator agrees with play() integrated exactly."""
    game = replace(scripted_lower_bound_equilibrium(m), resale=resale)
    ev = game.evaluator()
    res = expected_outcome(game.market, game.mechanism, PROTO, game.resale,
                           game.strategies(),
                           Quadrature(subdivide=1,
                                      breakpoints=effective_cuts(game.base_actions)))
    for i in range(3):
        assert ev.expected_utility(i) == pytest.approx(res.utilities[i], rel=1e-12)
    assert ev.expected_welfare() == pytest.approx(res.welfare, rel=1e-12)


@pytest.mark.parametrize("market", [lower_bound_market(10),
                                    posted_fails_market(0.01, 1000.0),
                                    symmetric_fpa_market(Uniform(0.0, 1.0))],
                         ids=lambda mk: mk.name)
def test_sample_profile_is_first_monte_carlo_profile(market):
    for seed in range(10):
        values = realize_batch(market.agents, draw_values(market, 5, seed))
        assert [v.valuation(0) for v in values] == sample_profile(market, seed)


def test_strategy_without_bid_bids_zero():
    """A Strategy with no bid bids zero on every unit: under the uniform-price
    auction play() gives what an explicit empty BidVector gives."""
    m = 10
    market, mech, resale, strategies = scripted(m)
    for i in range(3):
        no_bid, zero_bid = list(strategies), list(strategies)
        no_bid[i] = replace(strategies[i], bid=None)
        zero_bid[i] = replace(strategies[i], bid=BidVector.from_runs((), m))
        for seed in range(5):
            profile = sample_profile(market, seed)
            assert (play(market, mech, PROTO, resale, no_bid, profile)
                    == play(market, mech, PROTO, resale, zero_bid, profile))


def test_posted_primary_mechanism():
    market = lower_bound_market(10)
    mech = Mechanism("posted", posted_price=1.9, posted_order=(0, 1, 2))
    strategies = (Strategy(), Strategy(), Strategy())
    profile = [market.agents[0].realize(1.2), market.agents[1].realize(0.5),
               market.agents[2].realize()]
    out = play(market, mech, PROTO, None, strategies, profile)
    # only the two head marginals of 2.0 clear the posted price 1.9
    assert out.final_alloc.counts == (1, 1, 0)
    assert out.revenue == pytest.approx(2 * 1.9)


def test_empty_posted_order_sells_to_no_one():
    """posted_order=() visits no buyer; only None means index order."""
    market = posted_fails_market(0.01, 1000.0)
    profile = sample_profile(market, 1)
    truthful = (Strategy(), Strategy())

    def posted(order):
        return Mechanism("posted", posted_price=0.5, posted_order=order)

    assert play(market, posted(None), PROTO, None, truthful,
                profile).final_alloc.counts == (1, 0)
    out = play(market, posted(()), PROTO, None, truthful, profile)
    assert out.final_alloc.counts == (0, 0)
    assert out.revenue == 0.0 and out.welfare == 0.0
    res = expected_outcome(market, posted(()), PROTO, ResaleSpec.single(0, (1,)),
                           truthful, MonteCarlo(200, 1))
    assert res.welfare == 0.0 and res.revenue == 0.0
    assert tuple(res.utilities) == (0.0, 0.0)
    assert expected_outcome(market, posted(None), PROTO, None, truthful,
                            MonteCarlo(200, 1)).revenue > 0.0


def test_posted_outputs_pinned():
    """The posted-fails audit row, and a Monte Carlo estimate of its scripted
    play, to the bit."""
    row = posted_fails_summary(0.01, 1000)
    assert [row[k].hex() for k in ("scripted_welfare", "opt_welfare",
                                   "balanced_welfare")] == [
        "0x1.7fffac1d29dc7p+0", "0x1.0ce35f09f0a0ep+3", "0x1.fa18a998fffa0p+2"]
    eps, H = 0.01, 1000.0
    market = posted_fails_market(eps, H)
    strategies = (Strategy(posted_buy=lambda val, price, left: 1, seller_price=H / eps),
                  Strategy(buyer=ThresholdBuyer()))
    mech = Mechanism("posted", posted_price=0.5 / (1.0 - eps), posted_order=(0, 1))
    out = expected_outcome(market, mech, PROTO, ResaleSpec.single(0, (1,)),
                           strategies, MonteCarlo(2000, 5))
    assert out.welfare.hex() == "0x1.ff3a0a6d3e47fp-2"
    assert [float(u).hex() for u in out.utilities] == ["-0x1.7c7aceb59a1a1p-8",
                                                       "0x0.0p+0"]
    assert float(out.revenue).hex() == "0x1.0295fad40a4a8p-1"
    assert out.welfare_stderr.hex() == "0x1.acfd3c163856bp-8"


def reference_single_item(bids, kind="first_price"):
    """The single-item rule on number bids, kept as a reference: the highest
    bid wins, ties going to the lowest index; the winner pays its bid, and
    under all-pay every agent pays its bid."""
    winner = min(range(len(bids)), key=lambda i: (-bids[i], i))
    counts = tuple(int(i == winner) for i in range(len(bids)))
    if kind == "all_pay":
        return AuctionOutcome(Allocation(counts), tuple(float(b) for b in bids))
    return AuctionOutcome(Allocation(counts), tuple(
        bids[i] if i == winner else 0.0 for i in range(len(bids))))


@given(st.sampled_from(["first_price", "all_pay"]),
       st.lists(st.one_of(st.sampled_from((0.0, 0.25, 0.5)), st.floats(0.0, 2.0)),
                min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_run_auction_clears_single_item_kinds_by_the_number_rule(kind, bids):
    """First price and all-pay clear one-unit bid vectors as the number
    rule does, bit for bit: the greedy walk's winner, its pay-as-bid."""
    out = combined._run_auction(Mechanism(kind), [BidVector([b], 1) for b in bids], 1)
    want = reference_single_item(bids, kind)
    assert out.alloc == want.alloc
    assert [p.hex() for p in out.payments] == [float(p).hex() for p in want.payments]


@pytest.mark.parametrize("kind, auction", [("first_price", SingleItemFirstPrice),
                                           ("all_pay", SingleItemAllPay)])
def test_single_item_mechanisms_clear_as_their_auctions(kind, auction):
    """play() and the constant-action evaluator clear a single-item kind as
    its single-item game does, ties to the lower index."""
    market = symmetric_fpa_market(Uniform(0.0, 1.0))
    profile = [market.agents[0].realize(0.7), market.agents[1].realize(0.6)]
    for levels in ((0.3, 0.5), (0.4, 0.4), (0.0, 0.2)):
        strategies = tuple(Strategy(bid=BidVector.flat(b, 1, 1)) for b in levels)
        expected = auction(2).clear(list(levels))
        out = play(market, Mechanism(kind), PROTO, None, strategies, profile)
        assert out.auction_alloc == expected.alloc
        assert out.auction_payments == expected.payments
        assert out.utilities == tuple(v.value(x) - p for v, x, p in zip(
            profile, expected.alloc.counts, expected.payments))
        game = CombinedGame(market, Mechanism(kind), None,
                            tuple(Action(bid=BidVector.flat(b, 1, 1)) for b in levels))
        ev = game.evaluator()
        for i in range(2):  # E[v] = 1/2 on Uniform(0, 1)
            assert ev.expected_utility(i) == pytest.approx(
                0.5 * expected.alloc[i] - expected.payments[i], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("kind", ["first_price", "all_pay"])
def test_single_item_mechanisms_reject_many_units(kind):
    """A single-item kind on m = 10 would sell one unit; it raises instead."""
    game = replace(scripted_lower_bound_equilibrium(10), mechanism=Mechanism(kind))
    profile = [a.realize(1.2) if a.random else a.realize() for a in game.market.agents]
    with pytest.raises(ValueError):
        play(game.market, game.mechanism, PROTO, game.resale, game.strategies(),
             profile)
    with pytest.raises(ValueError):
        game.evaluator()


def test_mechanism_validation():
    with pytest.raises(ValueError):
        Mechanism("vickrey")
    with pytest.raises(ValueError):
        Mechanism("posted")


@pytest.mark.parametrize("kind", [k for k in MECHANISM_KINDS if k != "uniform"])
def test_mechanism_rejects_reserve_outside_uniform(kind):
    # a discriminatory reserve of 5 would be ignored: both units sold at bids of 1
    with pytest.raises(ValueError):
        Mechanism(kind, reserve=5.0, posted_price=1.0 if kind == "posted" else None)


@pytest.mark.parametrize("kind", [k for k in MECHANISM_KINDS if k != "posted"])
@pytest.mark.parametrize("setting", [{"posted_price": 1.0}, {"posted_order": (1, 0)},
                                     {"posted_order": ()}])
def test_mechanism_rejects_posted_settings_outside_posted(kind, setting):
    with pytest.raises(ValueError):
        Mechanism(kind, **setting)


@pytest.mark.parametrize("subdivide", [0, -1])
def test_quadrature_rejects_subdivide_below_one(subdivide):
    # no cell would integrate nothing: welfare, E[OPT] and reserves of 0.0
    with pytest.raises(ValueError):
        Quadrature(subdivide=subdivide)


def test_monte_carlo_rejects_no_draws():
    with pytest.raises(ValueError):
        MonteCarlo(0, 1)


def test_expected_outcome_resells_once_per_chunk(monkeypatch):
    """Callable bids clear row by row, yet every row of a chunk resells in
    one `run_posted_resale` call, winner-led too; a callable resale price is
    called once per row, by the one agent that sells there."""
    resale_rows, priced = [], []
    resell = combined.run_posted_resale

    def counted(initial, *args):
        resale_rows.append(len(initial))
        return resell(initial, *args)

    def price(valuation, obs):
        priced.append(obs)
        return valuation.marginal(0) + 0.25

    monkeypatch.setattr(combined, "run_posted_resale", counted)
    bidder = Strategy(bid=lambda v: BidVector([0.5 * v.marginal(0)], 1),
                      seller_price=price)
    n = CHUNK_ROWS + 10
    out = expected_outcome(symmetric_fpa_market(Uniform(0.0, 1.0)),
                           Mechanism("first_price"), PROTO,
                           ResaleSpec.winner_resale(), [bidder, bidder],
                           MonteCarlo(n, 3))
    assert resale_rows == [CHUNK_ROWS, 10]
    assert len(priced) == n
    assert [obs.alloc.counts.count(1) for obs in priced] == [1] * n
    assert 0.0 < out.welfare < 1.0


@pytest.mark.parametrize("protocol", list(SignalProtocol))
def test_play_callable_seller_price_reads_signals(protocol):
    """A callable resale price sees the auction allocation, its own payment
    and, under PUBLIC_BIDS, every bid; play() builds these signals only for
    such a price."""
    m = 10
    market, mech, resale, strategies = scripted(m)
    seen = []

    def price(valuation, obs):
        seen.append(obs)
        return 1.0 if obs.alloc[2] == m - 2 and obs.own_payment == 0.0 else 0.5

    reading = list(strategies)
    reading[2] = replace(strategies[2], seller_price=price)
    profile = [market.agents[0].realize(1.25), market.agents[1].realize(1.2),
               market.agents[2].realize()]
    out = play(market, mech, protocol, resale, reading, profile)
    assert out == play(market, mech, protocol, resale, strategies, profile)
    assert len(seen) == 1
    obs = seen[0]
    assert obs.alloc == out.auction_alloc
    assert obs.own_payment == out.auction_payments[2]
    if protocol is SignalProtocol.PUBLIC_BIDS:
        assert obs.bids == tuple(s.bid for s in strategies)
    else:
        assert obs.bids is None


@pytest.mark.parametrize("kind, price", [("uniform", None), ("discriminatory", None),
                                         ("posted", 1.0), ("posted", 1)],
                         ids=("uniform", "discriminatory", "posted", "posted-int"))
def test_outcome_fields_are_python_floats(kind, price):
    """Every number of a CombinedOutcome and an ExpectedOutcome is a Python
    float, not a numpy scalar (which prints as np.float64(...)) nor an int:
    an int posted price, and a uniform price set by an int bid, become
    floats."""
    market, mech, resale, strategies = scripted(10)
    if kind != "uniform":
        mech = Mechanism(kind, posted_price=price)
    out = play(market, mech, PROTO, resale, strategies, sample_profile(market, 1))
    numbers = [*out.auction_payments, *out.transfers, *out.utilities,
               out.welfare, out.revenue]
    if kind == "uniform":
        cleared = uniform_price([BidVector.flat(2, 1, 2), BidVector.flat(1, 2, 2)], 2)
        assert cleared.clearing_price == 1 and cleared.payments == (1, 1)
        numbers += [cleared.clearing_price, *cleared.payments]
    if out.clearing_price is not None:
        numbers.append(out.clearing_price)
    for integration in (MonteCarlo(50, 1), Quadrature(subdivide=1)):
        exp = expected_outcome(market, mech, PROTO, resale, strategies, integration)
        numbers += [x for x in astuple(exp) if not isinstance(x, tuple) and x is not None]
        numbers += exp.utilities
    assert all(type(x) is float for x in numbers), [type(x) for x in numbers]


def test_floats_add_left_to_right():
    """Every site that adds floats adds them left to right from 0, on every
    Python version: 1e16 + 1.0 rounds back to 1e16, twice. The built-in sum
    compensates from Python 3.12 on and would give 1e16 + 2."""
    values = (1e16, 1.0, 1.0)
    assert math.fsum(values) == 1e16 + 2
    profile = [MarginalValuation([v]) for v in values]
    assert welfare(profile, Allocation((1, 1, 1))) == 1e16
    assert AuctionOutcome(Allocation((1, 1, 1)), values).revenue == 1e16
    assert _expectations(np.ones(3), np.array([values])).tolist() == [1e16]
    # a row's transfers add in agent order: 1e16 - 1 - 1 rounds back to 1e16,
    # so the row totals 0, where a compensated sum gives -2
    trade = TradeOutcome(np.zeros((1, 4), dtype=np.int64),
                         np.array([[1e16, -1.0, -1.0, -1e16]]))
    assert check_weak_budget_balance(trade)
    market = MarketModel(3, tuple(HeadTailModel(head=(v,)) for v in values))
    bid = Strategy(bid=BidVector.from_runs(((1.0, 1),), 3))
    out = play(market, Mechanism("uniform"), PROTO, None, (bid,) * 3, profile)
    assert out.welfare == 1e16
    assert expected_outcome(market, Mechanism("uniform"), PROTO, None, (bid,) * 3,
                            MonteCarlo(3, 0)).welfare == 1e16
