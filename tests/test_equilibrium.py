import itertools
import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets import equilibrium
from aftermarkets.aftermarket import ResaleSpec
from aftermarkets.auctions import BidBatch, BidVector
from aftermarkets.combined import Mechanism
from aftermarkets.distributions import (PiecewiseCdf, SegmentSpec, Uniform,
                                        lower_bound_z_distribution)
from aftermarkets.equilibrium import (BRD_MAX_ITERS, Action, CombinedGame,
                                      CombinedTabularGame,
                                      DeviationGrid, SymmetricFpaReport,
                                      TabularGame, _bid_table_nodes,
                                      _tabulated_fpa_bid,
                                      best_response_dynamics,
                                      best_response_gap,
                                      default_deviation_grid,
                                      dominance_witness_suite,
                                      interim_curves, run_dominance_suite,
                                      scripted_grouped_equilibrium,
                                      scripted_lower_bound_equilibrium,
                                      symmetric_fpa_bid, symmetric_fpa_check,
                                      verify_bne, weak_dominance_witness)
from aftermarkets.valuations import HeadTailModel, MarketModel


def test_evaluator_keeps_cells_per_block_and_cuts():
    """A buyer's cells depend on the seller's price and its threshold only
    through its cut max(price, threshold): thresholds at or below the price
    reuse the base cells, and a no-offer price cuts nowhere, like no cut."""
    ev = scripted_lower_bound_equilibrium(100).evaluator()
    assert not hasattr(ev, "_cells") and not hasattr(ev, "_cells_cache")
    block = (2, (0, 1))
    ev.expected_welfare()
    ev.utilities(0, [Action(buyer_threshold=t) for t in (0.5, 1.0)])
    assert list(ev._cell_batches) == [(block, (1.0, 1.0))]
    ev.utilities(0, [Action(buyer_threshold=1.2)])
    ev.utilities(2, [Action(seller_price=math.inf)])
    assert list(ev._cell_batches) == [(block, (1.0, 1.0)), (block, (1.2, 1.0)),
                                      (block, (math.inf, math.inf))]
    # a no-offer cut lies outside every segment, so A's and B's cells are uncut
    _, weights = ev._cell_batches[(block, (math.inf, math.inf))]
    assert len(weights) == math.prod(len(ev.market.agents[i].dist.cells()[1])
                                     for i in (0, 1))


def test_scripted_profile_closed_forms():
    for m in (10, 100):
        ev = scripted_lower_bound_equilibrium(m).evaluator()
        assert ev.expected_utility(2) == pytest.approx(1 + (m - 3) / (2.0 * m),
                                                       rel=1e-10)
        assert ev.expected_utility(0) == pytest.approx(2.25, rel=1e-12)
        assert ev.expected_welfare() == pytest.approx(
            5.25 + (m - 3) * (1.0 / (2 * m) + 1.0 / (8.0 * m * m)), rel=1e-10)


def test_known_profitable_deviation_detected():
    # remove the speculator's resale offer: now bidding for units is a loss,
    # and the grid must find that withdrawing the bids is strictly better
    m = 10
    game = scripted_lower_bound_equilibrium(m)
    ev = game.evaluator()
    u_scripted_no_sale = ev.expected_utility(2, {2: Action(seller_price=math.inf)})
    assert u_scripted_no_sale == pytest.approx(0.0, abs=1e-12)
    # a deliberately bad script: C bids above the others' heads
    bad = Action(bid=BidVector.flat(2.5, m, m))
    grid = DeviationGrid(bid_levels=(0.0, 1.0), bid_counts=(1, m - 2))
    gap = best_response_gap(game, 2, DeviationGrid((0.0,), (1,)))
    assert gap.gap <= 1e-9  # on-path profile has no profitable deviation here
    u_bad = ev.expected_utility(2, {2: bad})
    assert u_bad < ev.expected_utility(2) - 1.0  # overbidding is clearly worse


def test_verify_bne_scripted_profile():
    m = 100
    game = scripted_lower_bound_equilibrium(m)
    grids = {0: default_deviation_grid(m, "regular"),
             1: default_deviation_grid(m, "bulk"),
             2: default_deviation_grid(m, "speculator")}
    report = verify_bne(game, grids, eps=1e-6)
    assert report.verdict
    assert all(g.n_deviations >= 1000 for g in report.gaps)
    assert report.max_gap <= 1e-6


def test_gap_reports_no_error_estimate():
    # the interval-moment rule is exact here; no estimate is computed
    game = scripted_lower_bound_equilibrium(10)
    gap = best_response_gap(game, 2, DeviationGrid(seller_prices=(0.5, 1.0)))
    assert [f.name for f in fields(gap)] == [
        "gap", "witness", "equilibrium_utility", "n_deviations"]


def test_evaluator_rejects_overlapping_resale_groups():
    game = scripted_lower_bound_equilibrium(10)
    with pytest.raises(ValueError):  # the spec rejects groups sharing an agent
        replace(game, resale=ResaleSpec(((2, (0, 1)), (1, (0,))))).evaluator()


def test_evaluator_rejects_resale_group_past_last_agent():
    game = replace(scripted_lower_bound_equilibrium(10),
                   resale=ResaleSpec.single(5, (0, 1)))
    with pytest.raises(ValueError):  # at construction, not at the first utility
        game.evaluator()


def test_evaluator_rejects_posted_mechanism():
    game = scripted_lower_bound_equilibrium(10)
    posted = replace(game, mechanism=Mechanism("posted", posted_price=1.0))
    with pytest.raises(ValueError):
        posted.evaluator()


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_evaluator_rejects_bad_seller_price(bad):
    # at a price of -1 the speculator would pay buyers to take units
    ev = scripted_lower_bound_equilibrium(10).evaluator()
    with pytest.raises(ValueError):
        ev.expected_utility(2, {2: Action(seller_price=bad)})
    with pytest.raises(ValueError):
        ev.expected_welfare({2: Action(seller_price=bad)})


def test_evaluator_rejects_nan_threshold():
    ev = scripted_lower_bound_equilibrium(10).evaluator()
    with pytest.raises(ValueError):
        ev.expected_utility(0, {0: Action(buyer_threshold=math.nan)})
    with pytest.raises(ValueError):
        ev.expected_welfare({1: Action(buyer_threshold=math.nan)})


@pytest.mark.parametrize("grid", [
    pytest.param(lambda: DeviationGrid(buyer_thresholds=(1.0, math.nan)),
                 id="nan-threshold"),
    pytest.param(lambda: DeviationGrid(seller_prices=(1.0, math.nan)),
                 id="nan-price"),
    pytest.param(lambda: DeviationGrid(seller_prices=(-0.5,)), id="negative-price"),
])
def test_deviation_grid_rejects_bad_aftermarket_values(grid):
    with pytest.raises(ValueError):
        grid()


def test_verify_bne_flags_non_equilibrium():
    # price the resale at 0.2: raising it is profitable, so the profile fails
    m = 10
    game = scripted_lower_bound_equilibrium(m)
    base = list(game.base_actions)
    base[2] = Action(bid=base[2].bid, seller_price=0.2)
    broken = type(game)(game.market, game.mechanism, game.resale, tuple(base))
    grid = DeviationGrid(seller_prices=(0.5, 1.0))
    report = verify_bne(broken, {0: DeviationGrid(), 1: DeviationGrid(), 2: grid},
                        eps=1e-6)
    assert not report.verdict
    assert report.gaps[2].witness.seller_price == 1.0


def test_grouped_scripted_equilibrium():
    game = scripted_grouped_equilibrium(100, 0.2)
    r = 20
    k = 5
    ev = game.evaluator()
    closed = k * (5.25 + (r - 3) * (1.0 / (2 * r) + 1.0 / (8.0 * r * r)))
    assert ev.expected_welfare() == pytest.approx(closed, rel=1e-10)
    for agent in range(6):  # both a full group and the next group's regular
        role = ("regular", "bulk", "speculator")[agent % 3]
        gap = best_response_gap(game, agent, default_deviation_grid(100, role))
        assert gap.gap <= 1e-6


def _gap_key(gap):
    w = gap.witness
    runs = None if w.bid is None else [(float(b).hex(), c) for b, c in w.bid.runs]
    return (gap.gap.hex(), gap.equilibrium_utility.hex(), w.label, runs,
            w.seller_price, w.buyer_threshold, gap.n_deviations)


@pytest.mark.parametrize("m", [10, 100])
def test_grouped_one_group_is_the_lower_bound_game(m):
    """With gamma = 1 the grouped game is the lower-bound game: the same gaps,
    witnesses and deviation counts on the default grids, the same welfare
    and the same utilities, bit for bit."""
    grouped = scripted_grouped_equilibrium(m, 1.0)
    single = scripted_lower_bound_equilibrium(m)
    grids = {i: default_deviation_grid(m, role)
             for i, role in enumerate(("regular", "bulk", "speculator"))}
    reports = [verify_bne(g, grids, eps=1e-6) for g in (grouped, single)]
    assert ([_gap_key(g) for g in reports[0].gaps]
            == [_gap_key(g) for g in reports[1].gaps])
    evs = [g.evaluator() for g in (grouped, single)]
    assert evs[0].expected_welfare().hex() == evs[1].expected_welfare().hex()
    for agent in range(3):
        assert (evs[0].expected_utility(agent).hex()
                == evs[1].expected_utility(agent).hex())


def test_grouped_game_repeats_one_group():
    """At (1000, 0.1) each of the 10 groups repeats the agents and the
    scripted bids and prices of the one-group game of 100 units."""
    m, k = 1000, 10
    game = scripted_grouped_equilibrium(m, 0.1)
    one = scripted_lower_bound_equilibrium(m // k)
    assert game.market.n == 3 * k
    assert game.market.groups == tuple((3 * g, 3 * g + 1, 3 * g + 2) for g in range(k))
    assert game.resale.groups == tuple((3 * g + 2, (3 * g, 3 * g + 1)) for g in range(k))
    for j, (agent, action) in enumerate(zip(game.market.agents, game.base_actions)):
        ref, ref_action = one.market.agents[j % 3], one.base_actions[j % 3]
        assert agent.head == ref.head and agent.tail_count == ref.tail_count
        assert (agent.dist is None) == (ref.dist is None)
        if agent.dist is not None:
            assert agent.dist.support == ref.dist.support
        assert action.bid.runs == ref_action.bid.runs and action.bid.m == m
        assert action.seller_price == ref_action.seller_price
        assert action.buyer_threshold == ref_action.buyer_threshold


def test_dominance_suite_all_witnessed():
    game = scripted_lower_bound_equilibrium(100)
    results = run_dominance_suite(game)
    assert len(results) == 7
    for label, report in results:
        assert report.not_weakly_dominated, label


def test_symmetric_fpa_uniform():
    dist = Uniform(0.0, 1.0)
    assert symmetric_fpa_bid(dist, 0.8) == pytest.approx(0.4)
    report = symmetric_fpa_check(dist, samples=5000, seed=2)
    assert report.gap <= 1e-9
    assert report.efficiency >= 0.999
    assert report.max_payment_residual <= 1e-6


def test_interim_curves_uniform():
    dist = Uniform(0.0, 1.0)
    b = lambda v: symmetric_fpa_bid(dist, v)
    grid = np.linspace(0.1, 1.0, 10)
    xs, ps, res = interim_curves((dist, dist), (b, b), 0, grid)
    assert np.allclose(xs, grid, atol=1e-9)
    assert np.allclose(ps, grid ** 2 / 2.0, atol=1e-9)
    assert np.max(np.abs(res)) <= 1e-6


@pytest.mark.parametrize("name", ["z100", "z1000", "sqrt"])
def test_interim_integral_on_steep_and_singular_cdfs(name):
    """With bids v/2 on both sides the agent wins with probability F(v), so
    the payment residual is int_0^v F - v F(v) / 2 in closed form. F rises
    over a width of 1/(2m - 1) at 0 for z, and sqrt(v) has an unbounded
    density there: one Kronrod piece over [0, v] misses by up to 1e-4, the
    halved pieces do not."""
    if name == "sqrt":
        dist = PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=math.sqrt,
                                         pdf=lambda x: 0.5 / math.sqrt(x)),))
        integral = lambda v: 2.0 / 3.0 * v ** 1.5
    else:
        dist = lower_bound_z_distribution(int(name[1:]))
        c = 2 * int(name[1:]) - 1
        integral = lambda v: v - np.log1p(c * v) / c
    grid = np.linspace(0.05, 1.0, 20)
    half = lambda v: np.asarray(v) / 2.0
    xs, _, res = interim_curves((dist, dist), (half, half), 0, grid)
    np.testing.assert_allclose(xs, dist.cdf(grid), rtol=1e-12)
    np.testing.assert_allclose(res, integral(grid) - grid * xs / 2.0, atol=1e-12)


def test_interim_integral_evaluates_each_gap_once():
    """The grid cuts [lo, 1] into gaps that are each integrated once, not
    once per grid point above them: on z1000 the bid functions see at most
    50,000 values (410,164 when every grid point integrated from lo)."""
    dist = lower_bound_z_distribution(1000)
    seen = []

    def half(v):
        seen.append(np.size(v))
        return np.asarray(v) / 2.0

    interim_curves((dist, dist), (half, half), 0, np.linspace(0.05, 1.0, 20))
    assert sum(seen) <= 50_000


def test_interim_grid_below_support():
    """A grid value below the agent's support start takes the signed integral
    -int_v^lo x: with bids v/2 against Uniform(0, 1) the agent wins with
    probability v, and the residuals vanish on both sides of lo."""
    half = lambda v: np.asarray(v) / 2.0
    grid = [0.25, 0.75]
    xs, _, res = interim_curves((Uniform(0.5, 1.5), Uniform(0.0, 1.0)),
                                (half, half), 0, grid)
    np.testing.assert_array_equal(xs, grid)
    np.testing.assert_allclose(res, 0.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("level", [1.0, 16.0])
def test_interim_tie_goes_to_lower_index(level):
    # identical constant bids tie everywhere; agent 0 wins every tie
    dist = Uniform(0.0, 1.0)
    flat = lambda v: np.full(np.shape(v), level)
    xs0, _, _ = interim_curves((dist, dist), (flat, flat), 0, [0.5])
    xs1, _, _ = interim_curves((dist, dist), (flat, flat), 1, [0.5])
    assert xs0[0] == 1.0
    assert xs1[0] == 0.0


def test_symmetric_fpa_residual_across_cdf_kink():
    # the CDF of z kinks at 1, inside the support
    report = symmetric_fpa_check(lower_bound_z_distribution(10), 11, 101, 2000)
    assert report.max_payment_residual <= 1e-6
    assert report.bid_table_error <= 1e-6


def test_symmetric_fpa_far_from_zero():
    report = symmetric_fpa_check(Uniform(1e5, 1e5 + 1.0), 11, 101, 2000)
    assert report.max_payment_residual <= 1e-6
    assert report.gap <= 1e-9


def _square_cdf():
    """F(x) = x^2 on [0, 1], with no closed-form moment: the base class's
    partial_mean integrates x * pdf by its cumulative Kronrod rule."""
    return PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=lambda x: x * x,
                                     pdf=lambda x: 2.0 * x, ppf=math.sqrt),))


def _cosine_cdf():
    """F(x) = (1 - cos(pi x)) / 2 on [0, 1]; no ppf, so quantiles invert the
    cdf by bisection."""
    return PiecewiseCdf((SegmentSpec(
        0.0, 1.0, cdf=lambda x: (1.0 - math.cos(math.pi * x)) / 2.0,
        pdf=lambda x: math.pi / 2.0 * math.sin(math.pi * x)),))


@pytest.mark.parametrize("make", [
    lambda: lower_bound_z_distribution(10),
    lambda: lower_bound_z_distribution(100),
    _square_cdf, lambda: Uniform(0.0, 1.0), _cosine_cdf,
], ids=["z10", "z100", "square", "uniform", "cosine"])
def test_bid_table_error_bounds_random_points(make):
    dist = make()
    b_hat, error = _tabulated_fpa_bid(dist)
    assert error <= 1e-6
    lo, hi = dist.support
    rng = np.random.default_rng(17)
    # half spread in value, half in probability (z's mass sits near 0)
    points = np.concatenate((rng.uniform(lo, hi, 500),
                             dist.quantile(rng.random(500))))
    worst = np.max(np.abs(b_hat(points) - symmetric_fpa_bid(dist, points)))
    assert worst <= 2.0 * error + 1e-15


def test_bid_table_bounds_partial_mean_points(monkeypatch):
    dist = _square_cdf()
    sizes = []
    exact = PiecewiseCdf.partial_mean

    def counted(self, a, b):
        sizes.append(np.size(b))
        return exact(self, a, b)

    monkeypatch.setattr(PiecewiseCdf, "partial_mean", counted)
    report = symmetric_fpa_check(dist, 5, 21, 500, seed=1)
    # the table and its cell midpoints, in one call
    assert sizes == [2 * _bid_table_nodes(dist).size - 1]
    assert report.passes(1e-6)


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-10), (0.0, 1.0), (2.0, 3.0)])
def test_interim_grid_stays_in_support(monkeypatch, lo, hi):
    """The interim grid starts a width-relative step above a support that
    starts at 0, so it stays inside even a tiny support."""
    grids = []

    def spy(dists, bid_fns, agent, value_grid):
        grids.append(np.asarray(value_grid))
        return interim_curves(dists, bid_fns, agent, value_grid)

    monkeypatch.setattr(equilibrium, "interim_curves", spy)
    symmetric_fpa_check(Uniform(lo, hi), 5, 21, 200)
    (grid,) = grids
    assert grid[-1] == hi and np.all(grid[:-1] < hi)
    assert grid[0] == (lo + 1e-9 * (hi - lo) if lo == 0 else lo)


@pytest.mark.parametrize("sizes", [(0, 401, 20), (21, 0, 20), (21, 401, 0),
                                   (21, 401, -5)],
                         ids=["value_points", "bid_points", "samples", "negative"])
def test_symmetric_fpa_rejects_bad_sizes(sizes):
    with pytest.raises(ValueError, match=">= 1"):
        symmetric_fpa_check(Uniform(0.0, 1.0), *sizes)


def test_symmetric_fpa_passes_requires_residual():
    report = SymmetricFpaReport(0.0, 1.0, 2e-6, 10, 0.0)
    assert not report.passes(1e-6)
    assert replace(report, max_payment_residual=1e-6).passes(1e-6)


def test_symmetric_fpa_cli_defaults_uniform():
    report = symmetric_fpa_check(Uniform(0.0, 1.0), samples=20000, seed=11)
    assert report.efficiency == 1.0
    assert report.gap <= 1e-12
    assert report.max_payment_residual <= 1e-12


class MatchingPennies(TabularGame):
    n_agents = 2

    def action_set(self, agent):
        return ["H", "T"]

    def utilities(self, agent, profile):
        # agent 0 wants to match agent 1's coin, agent 1 to differ from 0's
        other = profile[1 - agent]
        return [float((a == other) == (agent == 0)) for a in ("H", "T")]


def test_brd_detects_cycle_in_matching_pennies():
    res = best_response_dynamics(MatchingPennies(), [("H", "H"), ("T", "H")])
    assert res.fixed_points == ()
    assert res.n_cycles == 2


class OneUlpApart(TabularGame):
    """Agent 0's second action beats its first by one ulp near 1e5; agent 1
    has a single action."""

    n_agents = 2
    low = 1e5
    high = float(np.nextafter(1e5, np.inf))

    def action_set(self, agent):
        return ["a", "b"] if agent == 0 else ["x"]

    def utilities(self, agent, profile):
        return [self.low, self.high] if agent == 0 else [0.0]


def test_brd_margin_is_relative():
    # one ulp at 1e5 is a rounding tie, not an improvement: no switch
    res = best_response_dynamics(OneUlpApart(), [("a", "x")])
    assert res.fixed_points == (("a", "x"),)
    assert res.iterations == (1,)
    assert res.n_cycles == 0


def test_brd_rejects_init_outside_action_set():
    with pytest.raises(ValueError):
        best_response_dynamics(OneUlpApart(), [("a", "x"), ("c", "x")])


class TableGame(TabularGame):
    """A finite game over actions 0..k-1 per agent, with utilities read from
    `table[profile][agent]`."""

    def __init__(self, sizes, table):
        self.sizes = sizes
        self.table = table

    @property
    def n_agents(self):
        return len(self.sizes)

    def action_set(self, agent):
        return list(range(self.sizes[agent]))

    def utilities(self, agent, profile):
        return [self.table[profile[:agent] + (a,) + profile[agent + 1:]][agent]
                for a in self.action_set(agent)]


def reference_dynamics(game, inits):
    """The per-profile loop: each agent scores its current profile, then every
    other action's profile in set order, and keeps the first to beat the
    running best by more than the margin."""
    def utility(agent, profile):
        row = game.utilities(agent, profile)
        return row[game.action_set(agent).index(profile[agent])]

    fixed, iters, cycles = [], [], 0
    for init in inits:
        profile, seen, converged = tuple(init), {tuple(init)}, False
        for it in range(1, BRD_MAX_ITERS + 1):
            changed = False
            for i in range(game.n_agents):
                current = profile[i]
                best_u, best_a = utility(i, profile), current
                for a in game.action_set(i):
                    if a != current:
                        u = utility(i, profile[:i] + (a,) + profile[i + 1:])
                        if u > best_u + 1e-12 * max(1.0, abs(best_u)):
                            best_u, best_a = u, a
                if best_a != current:
                    profile = profile[:i] + (best_a,) + profile[i + 1:]
                    changed = True
            if not changed:
                converged = True
                break
            if profile in seen:
                cycles += 1
                break
            seen.add(profile)
        iters.append(it)
        if converged and profile not in fixed:
            fixed.append(profile)
    return tuple(fixed), cycles, tuple(iters)


# values plus their one-ulp neighbours, and steps inside and outside the
# 1e-12 relative margin, so that ties and near-ties occur
NEAR_TIES = sorted({x for v in (0.0, 1.0, 1e5)
                    for x in (v, float(np.nextafter(v, np.inf)),
                              float(np.nextafter(v, -np.inf)))}
                   | {1.0 + 5e-13, 1.0 + 2e-12})


@st.composite
def table_games(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    profiles = list(itertools.product(*map(range, sizes)))
    payoffs = st.tuples(*[st.sampled_from(NEAR_TIES)] * len(sizes))
    table = dict(zip(profiles, draw(st.lists(payoffs, min_size=len(profiles),
                                             max_size=len(profiles)))))
    inits = draw(st.lists(st.sampled_from(profiles), min_size=1, max_size=6))
    return TableGame(sizes, table), inits


@settings(max_examples=300, deadline=None)
@given(table_games())
def test_brd_rows_match_per_profile_loop(case):
    game, inits = case
    res = best_response_dynamics(game, inits)
    assert (res.fixed_points, res.n_cycles, res.iterations) == reference_dynamics(
        game, inits)
    assert res.n_converged == len(res.fixed_points)


def test_brd_converges_on_combined_game():
    m = 10
    game = scripted_lower_bound_equilibrium(m)
    acts_ab = [Action(bid=BidVector.flat(l, c, m))
               for l in (0.0, 1.0, 2.0) for c in (1, 2)]
    acts_c = [Action(bid=BidVector.flat(l, c, m), seller_price=p)
              for l in (0.5, 1.0) for c in (m - 3, m - 2) for p in (0.5, 1.0)]
    tab = CombinedTabularGame(game, [acts_ab, acts_ab, acts_c])
    inits = [(acts_ab[i % len(acts_ab)], acts_ab[(2 * i) % len(acts_ab)],
              acts_c[(3 * i) % len(acts_c)]) for i in range(8)]
    res = best_response_dynamics(tab, inits)
    assert res.n_converged >= 1
    assert res.n_cycles == 0
    for fp in res.fixed_points:
        assert tab.expected_welfare(fp) > 0


def test_tabular_utilities_match_fresh_evaluators():
    """Every row equals a fresh evaluator's expected_utility bit for bit,
    cached or not, with a reserve so that the prices and the buyers'
    thresholds both matter."""
    m = 10
    game = scripted_lower_bound_equilibrium(m, reserve=0.3)
    acts_ab = [Action(bid=BidVector.flat(l, c, m), buyer_threshold=t)
               for l in (0.0, 1.0, 2.0) for c in (1, 2) for t in (None, 1.2)]
    acts_c = [Action(bid=BidVector.flat(l, c, m), seller_price=p)
              for l in (0.5, 1.0) for c in (m - 3, m - 2) for p in (0.5, 1.0, math.inf)]
    tab = CombinedTabularGame(game, [acts_ab, acts_ab, acts_c])
    rng = random.Random(3)
    for agent in range(3):
        profiles = [tuple(rng.choice(s) for s in (acts_ab, acts_ab, acts_c))
                    for _ in range(12)]
        profiles += profiles[:3]  # rows already cached
        for p in profiles:
            expected = [game.evaluator().expected_utility(
                agent, {**dict(enumerate(p)), agent: a}).hex()
                for a in tab.action_set(agent)]
            for _ in range(2):
                assert [u.hex() for u in tab.utilities(agent, p)] == expected


def test_rows_clear_each_distinct_bid_once(monkeypatch):
    """A row clears the auction once per distinct bid of its actions: the
    benchmark's speculator set holds 5 distinct bids in 13 actions, the A/B
    set three equal zero bids among 18, and a gap's on-path and aftermarket
    row keeps the base bid."""
    calls = []
    run = equilibrium._run_auction
    monkeypatch.setattr(equilibrium, "_run_auction",
                        lambda *args: calls.append(args) or run(*args))
    m = 100
    game = scripted_lower_bound_equilibrium(m, reserve=0.04)
    acts_ab = [Action(bid=BidVector.flat(l, c, m))
               for l in (0.0, 0.04, 0.5, 1.0, 1.5, 2.0) for c in (1, 2, 5)]
    acts_c = [Action(bid=BidVector.from_runs((), m), seller_price=math.inf)]
    acts_c += [Action(bid=BidVector.flat(l, c, m), seller_price=p)
               for l in (0.5, 1.0) for c in (49, 98) for p in (0.5, 1.0, 1.5)]
    tab = CombinedTabularGame(game, [acts_ab, acts_ab, acts_c])
    profile = (acts_ab[16], acts_ab[15], acts_c[4])
    for agent, clearings in ((2, 5), (0, 16)):
        calls.clear()
        tab.utilities(agent, profile)
        assert len(calls) == clearings
    calls.clear()
    best_response_gap(game, 2, default_deviation_grid(m, "speculator"))
    assert len(calls) == 1


@pytest.mark.parametrize("kind, m", [("discriminatory", 10), ("first_price", 1),
                                     ("all_pay", 1)])
def test_bid_batch_clears_in_one_kernel_call(monkeypatch, kind, m):
    """Under every sealed-bid kind, not only uniform price, a bid batch
    clears in one `uniform_price_deviations` call and no `_run_auction`
    call, and gives the `utilities` row of its vectors bit for bit."""
    calls = []
    for name in ("uniform_price_deviations", "_run_auction"):
        run = getattr(equilibrium, name)
        monkeypatch.setattr(equilibrium, name, lambda *args, name=name, run=run:
                            calls.append(name) or run(*args))
    if m == 1:  # agent 2 resells to agent 0 at price 0.8
        market = MarketModel(1, (HeadTailModel(tail_count=1, dist=Uniform(0.0, 1.0)),
                                 HeadTailModel(head=(1.0,)),
                                 HeadTailModel(tail_count=1, dist=Uniform(0.5, 1.5))))
        game = CombinedGame(market, Mechanism(kind), ResaleSpec(((2, (0,)),)), (
            Action(bid=BidVector([0.5], 1)), Action(bid=BidVector([0.9], 1)),
            Action(bid=BidVector([1.2], 1), seller_price=0.8)))
    else:
        game = replace(scripted_lower_bound_equilibrium(m), mechanism=Mechanism(kind))
    batch = default_deviation_grid(m, "regular").bid_batch(m)
    for agent in range(3):
        ev = game.evaluator()
        calls.clear()
        rows = ev.bid_utilities(agent, batch)
        assert calls == ["uniform_price_deviations"]
        expected = ev.utilities(agent, [Action(bid=batch[j]) for j in range(len(batch))])
        assert [u.hex() for u in rows.tolist()] == [u.hex() for u in expected.tolist()]


def test_dominance_suite_shares_one_evaluator_exactly():
    """run_dominance_suite's shared evaluator gives every row a fresh
    evaluator per case gives."""
    for m, reserve in ((10, None), (100, 0.5)):
        game = scripted_lower_bound_equilibrium(m, reserve=reserve)
        fresh = [(label, weak_dominance_witness(game.evaluator(), agent, alt,
                                                witness, label))
                 for label, agent, alt, witness in dominance_witness_suite(game)]
        assert run_dominance_suite(game) == fresh


def test_deviation_grid_includes_on_path():
    grid = default_deviation_grid(100, "speculator")
    devs = grid.deviations(100)
    assert devs[0].label == "on-path"
    assert len(devs) >= 1000


def reference_bid_deviations(grid, m):
    """The grid's bid deviations as the original hand loop enumerated them,
    kept as a reference for `DeviationGrid.bid_batch`: (label, bid) pairs in
    grid order, each distinct bid once."""
    out, seen = [], set()
    head_units = sum(c for _, c in grid.head)
    head_min = min((v for v, _ in grid.head), default=math.inf)
    for level in grid.bid_levels:
        for count in grid.bid_counts:
            for use_head in (False, True) if grid.head else (False,):
                if use_head and (level > head_min or count > m - head_units):
                    continue
                if not use_head and count > m:
                    continue
                runs = (grid.head if use_head else ()) + ((level, count),)
                bv = BidVector.from_runs(runs, m)
                if bv not in seen:
                    seen.add(bv)
                    out.append((f"bid{'+head' if use_head else ''} {level}x{count}", bv))
    return out


GRID_LEVELS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@st.composite
def deviation_grids(draw):
    """A unit count and a grid whose levels include 0, the head's last value
    and values above it, and whose counts include 0 and values above
    m - head units; the head has 0-2 runs, zero values and counts allowed."""
    m = draw(st.integers(1, 30))
    values = sorted(draw(st.lists(st.sampled_from(GRID_LEVELS), max_size=2)),
                    reverse=True)
    head = tuple((v, draw(st.integers(0, 3))) for v in values)
    levels = draw(st.lists(st.sampled_from(GRID_LEVELS + tuple(values)), max_size=8))
    counts = draw(st.lists(st.integers(0, m + 3), max_size=8))
    return m, DeviationGrid(tuple(levels), tuple(counts), head=head)


@given(deviation_grids())
@settings(max_examples=300, deadline=None)
def test_bid_batch_matches_reference_enumeration(case):
    m, grid = case
    expected = reference_bid_deviations(grid, m)
    batch = grid.bid_batch(m)
    assert [batch.vector(j) for j in range(len(batch))] == [bv for _, bv in expected]
    devs = grid.deviations(m)
    assert devs[0].label == "on-path"
    assert [(d.label, d.bid) for d in devs[1:len(expected) + 1]] == expected
    assert len(devs) == 1 + len(expected)


@pytest.mark.parametrize("grid", [
    pytest.param(DeviationGrid((math.nan,), (1,)), id="nan-level"),
    pytest.param(DeviationGrid((-1.0,), (1,)), id="negative-level"),
    pytest.param(DeviationGrid((math.inf,), (1,)), id="infinite-level"),
    pytest.param(DeviationGrid((1.0,), (-1,)), id="negative-count"),
    pytest.param(DeviationGrid((1.0,), (1,), head=((1.0, 1), (2.0, 1))),
                 id="increasing-head"),
])
def test_bid_batch_rejects_bad_bids(grid):
    with pytest.raises(ValueError):
        grid.bid_batch(5)


def test_default_grid_labels_and_bids_unchanged():
    for m in (10, 100, 10_000):
        for role in ("regular", "speculator"):
            grid = default_deviation_grid(m, role)
            expected = reference_bid_deviations(grid, m)
            devs = grid.deviations(m)
            assert [(d.label, d.bid) for d in devs[1:len(expected) + 1]] == expected
            assert [d.label for d in devs[len(expected) + 1:]] == (
                [f"price {p}" for p in grid.seller_prices]
                + [f"threshold {t}" for t in grid.buyer_thresholds])


def test_bid_batch_is_run_encoded():
    """The 2,263 bids of the m = 1000 regular grid take D x runs arrays, not
    the 20.4 MB of dense per-unit arrays."""
    batch = default_deviation_grid(1000, "regular").bid_batch(1000)
    assert len(batch) == 2263
    assert batch.run_values.nbytes + batch.run_counts.nbytes + batch.tail.nbytes < 1e6


def mixed_deviations(m, rng):
    """Bid-only deviations (the on-path no-op among them), price-only,
    threshold-only and bid-plus-price deviations, in random order."""
    levels = (0.0, 0.5, 1.0, 1.0 + 1.0 / (2 * m), 2.0, 2.4)
    devs = [Action(label="on-path")]
    devs += [Action(bid=BidVector.flat(level, count, m))
             for level in levels for count in (1, 2, m - 2, m)]
    devs += [Action(bid=BidVector.from_runs(((2.0, 1), (level, count)), m))
             for level in levels if level <= 2.0 for count in (1, m - 3)]
    devs += [Action(seller_price=p) for p in (0.5, 1.0, math.inf)]
    devs += [Action(buyer_threshold=t) for t in (0.9, 1.1)]
    devs += [Action(bid=BidVector.flat(1.0, m - 2, m), seller_price=p)
             for p in (0.9, 1.0)]
    rng.shuffle(devs)
    return devs


def assert_batched_utilities_exact(game, agents, rng):
    """bid_utilities on the bid-only deviations (the on-path no-op keeps the
    base bid) and utilities on the others equal a fresh evaluator's
    expected_utility bit for bit, on one evaluator shared by all agents,
    both while its stages are integrated and once they are cached; so does
    the shared evaluator's expected_utility afterwards."""
    ev = game.evaluator()
    for agent in agents:
        devs = mixed_deviations(game.market.m, rng)
        single = [game.evaluator().expected_utility(agent, {agent: d}) for d in devs]
        rows = [j for j, d in enumerate(devs)
                if d.seller_price is None and d.buyer_threshold is None]
        others = [j for j in range(len(devs)) if j not in rows]
        base = game.base_actions[agent]
        batch = BidBatch.of([(base if devs[j].bid is None else devs[j]).bid
                             for j in rows])
        for _ in range(2):
            assert [u.hex() for u in ev.bid_utilities(agent, batch).tolist()] == [
                single[j].hex() for j in rows]
            row = [devs[j] for j in others]
            assert [u.hex() for u in ev.utilities(agent, row).tolist()] == [
                single[j].hex() for j in others]
        for j, d in enumerate(devs):
            assert ev.expected_utility(agent, {agent: d}).hex() == single[j].hex()


@given(st.integers(4, 40), st.sampled_from([None, 0.03, 0.5, 1.0]),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_bid_utilities_match_expected_utility(m, reserve, rng):
    """The batched utilities equal the per-deviation ones bit for bit."""
    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    assert_batched_utilities_exact(game, range(3), rng)


def test_bid_utilities_grouped_market():
    game = scripted_grouped_equilibrium(40, 0.25)
    assert_batched_utilities_exact(game, (0, 1, 2, 4, 11), random.Random(3))


def test_bid_utilities_discriminatory():
    game = replace(scripted_lower_bound_equilibrium(12),
                   mechanism=Mechanism("discriminatory"))
    assert_batched_utilities_exact(game, range(3), random.Random(5))


@pytest.mark.parametrize("reserve, agent, role", [
    (None, 0, "regular"), (0.5, 2, "speculator"), (1.0, 1, "bulk")])
def test_gap_witness_is_first_best_deviation(reserve, agent, role):
    """Of equally good deviations the gap reports the first in grid order."""
    m = 10
    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    grid = default_deviation_grid(m, role)
    devs = grid.deviations(m)
    ev = game.evaluator()
    utils = [ev.expected_utility(agent, {agent: d}) for d in devs]
    best = max(utils)
    assert utils.count(best) > 1  # later deviations tie with the witness
    batch = grid.bid_batch(m)
    assert [u.hex() for u in ev.bid_utilities(agent, batch).tolist()] == [
        u.hex() for u in utils[1:len(batch) + 1]]
    gap = best_response_gap(game, agent, grid)
    assert gap.witness == devs[utils.index(best)]
    assert gap.gap == best - ev.expected_utility(agent)
