"""The batched two-stage game against per-profile scalar references.

`expected_outcome` plays chunks of value profiles as batches and resells
each chunk in one array-valued `run_posted_resale`; a
posted primary mechanism sells to a whole chunk through the same kernel's
sale, and the constant-action evaluator integrates its stages through it,
with (allocation, cell) rows. `expected_optimal_welfare` scores chunks of
profiles with the array-valued greedy optimum `opt_welfare_rows`. The
references below are the per-profile loops they replaced: a scalar posted
primary sale, a scalar posted resale, play() on one profile, a Monte Carlo
or tensor-cell loop over play() or over `opt_allocation`, and one stage
integrated cell by cell.
Random `HeadTailModel` markets (n <= 4, m <= 30, at most two random
dimensions) must match them bit for bit."""

import math
import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.aftermarket import (NO_OFFER, ResaleSpec, SignalProtocol,
                                      ThresholdBuyer, apply_signal,
                                      run_posted_resale)
from aftermarkets.allocation import (Allocation, opt_allocation,
                                     opt_welfare_rows, welfare)
from aftermarkets.auctions import AuctionOutcome, BidBatch, BidVector
from aftermarkets.combined import (CHUNK_ROWS, Mechanism, MonteCarlo,
                                   Quadrature, Strategy, _run_auction,
                                   expected_optimal_welfare, expected_outcome,
                                   play)
from aftermarkets.distributions import (Atom, EqualRevenueCapped, PiecewiseCdf,
                                        PointMass, SegmentSpec, Uniform)
from aftermarkets.equilibrium import Action, CombinedGame
from aftermarkets.valuations import (HeadTailModel, MarginalValuation,
                                     MarketModel, ValuationBatch, draw_values,
                                     grouped_market, lower_bound_market,
                                     posted_fails_market)


# -- scalar references -------------------------------------------------------


def reference_demand(policy, valuation, holding, price, stock):
    if not isinstance(policy, ThresholdBuyer):  # asked on a batch of one
        q = np.ravel(policy.quantities(ValuationBatch.of([valuation]),
                                       np.array([holding]), price, np.array([stock])))[0]
        return max(0, min(int(q), stock))
    cut = price if policy.threshold is None else max(price, policy.threshold)
    if math.isinf(cut):
        return 0
    return max(0, min(valuation.count_ge(cut) - holding, stock))


def reference_resale(counts, groups, prices, policies, profile):
    """The scalar posted-resale loop on one profile."""
    counts, transfers = list(counts), [0.0] * len(counts)
    for seller, buyers in groups:
        price = prices.get(seller, NO_OFFER)
        if math.isinf(price):
            continue
        stock = counts[seller]
        for b in buyers:
            if stock == 0:
                break
            q = reference_demand(policies.get(b, ThresholdBuyer()), profile[b],
                                 counts[b], price, stock)
            counts[b] += q
            counts[seller] -= q
            transfers[b] += q * price
            transfers[seller] -= q * price
            stock -= q
    return counts, transfers


def reference_groups(resale, counts):
    """The (seller, buyers) groups of `resale` on one row of holdings:
    winner-led, the largest holder, ties going to the lowest index, sells to
    every other agent in index order, and nobody sells when no one holds a
    unit."""
    if not resale.winner_led:
        return resale.groups
    holder = max(range(len(counts)), key=lambda i: (counts[i], -i))
    if counts[holder] == 0:
        return ()
    return ((holder, tuple(i for i in range(len(counts)) if i != holder)),)


def reference_posted_sale(unit_price, order, valuations, m, rules=None):
    """The scalar sequential posted-price sale on one profile: buyers visit
    in `order`; each buys units while the marginal value is >= the price
    (indifference buys), capped by the remaining supply. `rules[i]`, if
    set, replaces buyer i's demand with rules[i](valuation, price, left)."""
    n = len(valuations)
    counts = [0] * n
    payments = [0.0] * n
    left = m
    for i in order:
        if left == 0:
            break
        want = valuations[i].count_ge(unit_price)
        if rules is not None and rules[i] is not None:
            want = rules[i](valuations[i], unit_price, left)
        q = min(want, left)
        counts[i] = q
        payments[i] = q * unit_price
        left -= q
    return AuctionOutcome(Allocation(tuple(counts)), tuple(payments),
                          clearing_price=unit_price)


def reference_play(market, mechanism, protocol, resale, strategies, profile):
    """play() on one profile: welfare, utilities and revenue."""
    m = market.m
    bids = [s.bid_for(v, m) for s, v in zip(strategies, profile)]
    if mechanism.kind == "posted":
        order = mechanism.posted_order
        outcome = reference_posted_sale(
            mechanism.posted_price, range(len(profile)) if order is None else order,
            profile, m, [s.posted_buy for s in strategies])
    else:
        outcome = _run_auction(mechanism, bids, m)
    counts, transfers = list(outcome.alloc.counts), [0.0] * len(profile)
    if resale is not None:
        groups = reference_groups(resale, outcome.alloc.counts)
        prices = {}
        for seller, _ in groups:
            price = strategies[seller].seller_price
            if callable(price):
                price = price(profile[seller],
                              apply_signal(protocol, outcome, bids)[seller])
            prices[seller] = price
        policies = {i: s.buyer for i, s in enumerate(strategies)}
        counts, transfers = reference_resale(counts, groups, prices, policies,
                                             profile)
    utilities = [v.value(counts[i]) - outcome.payments[i] - transfers[i]
                 for i, v in enumerate(profile)]
    return welfare(profile, Allocation(tuple(counts))), utilities, outcome.revenue


def reference_rows(market, integration):
    """(scalars, weight) per profile: the Monte Carlo rows or the tensor
    product of the cells, weights multiplied in agent order from 1.0."""
    if isinstance(integration, MonteCarlo):
        rows = draw_values(market, integration.n, integration.seed).tolist()
        return [(row, 1.0 / integration.n) for row in rows]
    axes = [zip(*(a.tolist() for a in market.agents[i].dist.cells(
        integration.breakpoints, integration.subdivide)))
        for i in market.random_dims()]
    out = []
    for cell in product(*axes):
        weight = 1.0
        for _, w in cell:
            weight *= w
        out.append(([x for x, _ in cell], weight))
    return out


def realize(models, scalars):
    it = iter(scalars)
    return [a.realize(next(it)) if a.random else a.realize() for a in models]


def reference_expected_outcome(market, mechanism, protocol, resale, strategies,
                               integration):
    wel = rev = wel2 = 0.0
    utils = np.zeros(market.n)
    for scalars, w in reference_rows(market, integration):
        out_wel, out_utils, out_rev = reference_play(
            market, mechanism, protocol, resale, strategies,
            realize(market.agents, scalars))
        wel += w * out_wel
        wel2 += w * out_wel ** 2
        rev += w * out_rev
        utils += w * np.asarray(out_utils)
    stderr = None
    if isinstance(integration, MonteCarlo):
        stderr = math.sqrt(max(wel2 - wel * wel, 0.0) / integration.n)
    return wel, tuple(utils), rev, stderr


def reference_expected_optimum(market, integration):
    """E[OPT] as the per-profile loop: opt_allocation on each realized row."""
    total = 0.0
    for scalars, w in reference_rows(market, integration):
        total += w * opt_allocation(realize(market.agents, scalars), market.m)[1]
    return total


def reference_stage(game, acts, block, alloc):
    """One block's resale integrated cell by cell: weights, and per member
    its value of its final holding and its transfer in each cell."""
    seller, buyers = block
    members = (seller,) + buyers
    price = acts[seller].seller_price
    if price is None or not buyers:
        price = NO_OFFER
    policies = {j: ThresholdBuyer(acts[b].buyer_threshold)
                for j, b in enumerate(buyers, 1)}
    models = [game.market.agents[i] for i in members]
    cells = []
    for j, (i, model) in enumerate(zip(members, models)):
        if not model.random:
            continue
        cut = None
        if j and not math.isinf(price):
            thr = acts[i].buyer_threshold
            cut = price if thr is None else max(price, thr)
        bps = () if cut is None or math.isinf(cut) else (cut,)
        cells.append(zip(*(a.tolist() for a in model.dist.cells(bps))))
    weights, vals, transfers = [], [[] for _ in members], [[] for _ in members]
    for cell in product(*cells):
        weight = 1.0
        for _, w in cell:
            weight *= w
        profile = realize(models, [x for x, _ in cell])
        counts, paid = reference_resale(alloc, [(0, range(1, len(members)))],
                                        {0: price}, policies, profile)
        weights.append(weight)
        for j, v in enumerate(profile):
            vals[j].append(v.value(counts[j]))
            transfers[j].append(paid[j])
    return (np.array(weights), [np.array(v, dtype=float) for v in vals],
            [np.array(t, dtype=float) for t in transfers])


def block_of(game, agent):
    for seller, buyers in (game.resale.groups if game.resale else ()):
        if agent in (seller,) + tuple(buyers):
            return seller, tuple(buyers)
    return agent, ()


def reference_auction(game, acts):
    m = game.market.m
    bids = [a.bid if a.bid is not None else BidVector.from_runs((), m) for a in acts]
    return _run_auction(game.mechanism, bids, m)


def reference_utility(game, agent, acts):
    outcome = reference_auction(game, acts)
    block = block_of(game, agent)
    members = (block[0],) + block[1]
    weights, vals, transfers = reference_stage(
        game, acts, block, [outcome.alloc[i] for i in members])
    j = members.index(agent)
    u = vals[j] - outcome.payments[agent] - transfers[j]
    return float(u @ weights)


def reference_welfare(game, acts):
    outcome = reference_auction(game, acts)
    blocks = [(s, tuple(b)) for s, b in (game.resale.groups if game.resale else ())]
    grouped = {i for s, b in blocks for i in (s,) + b}
    blocks += [(i, ()) for i in range(game.market.n) if i not in grouped]
    total = 0.0
    for block in blocks:
        members = (block[0],) + block[1]
        weights, vals, _ = reference_stage(game, acts, block,
                                           [outcome.alloc[i] for i in members])
        for v in vals:
            total += float(v @ weights)
    return total


# -- random markets and strategies -------------------------------------------


def random_dist(rng):
    kind = rng.randrange(4)
    if kind == 0:
        lo = round(rng.uniform(0.0, 2.0), 2)
        return Uniform(lo, lo + round(rng.uniform(0.1, 2.0), 2))
    if kind == 1:
        return EqualRevenueCapped(round(rng.uniform(1.5, 6.0), 2))
    if kind == 2:
        return PointMass(rng.choice((0.0, round(rng.uniform(0.0, 3.0), 2))))
    # mass p uniform on [a, b), the rest an atom at b
    a = round(rng.uniform(0.0, 2.0), 2)
    b = a + round(rng.uniform(0.2, 2.0), 2)
    p = rng.choice((0.25, 0.5, 0.75))
    seg = SegmentSpec(a, b, cdf=lambda x: p * (x - a) / (b - a),
                      pdf=lambda x: p / (b - a), ppf=lambda u: a + u * (b - a) / p)
    return PiecewiseCdf((seg,), (Atom(b, 1.0 - p),))


def random_market(rng, m=None):
    """A random market; `m` fixes its units (the draw of m is still made)."""
    drawn, n = rng.randint(1, 30), rng.randint(1, 4)
    m = m or drawn
    random_agents = set(rng.sample(range(n), rng.randint(0, min(2, n))))
    agents = []
    for i in range(n):
        if i not in random_agents:
            head = sorted((round(rng.uniform(0.0, 4.0), 2)
                           for _ in range(rng.randint(0, 3))), reverse=True)
            agents.append(HeadTailModel(head=tuple(head)))
            continue
        dist = random_dist(rng)
        top = dist.support[1]
        head = sorted((top + round(rng.uniform(0.0, 2.0), 2)
                       for _ in range(rng.randint(0, 2))), reverse=True)
        if isinstance(dist, PointMass) and rng.random() < 0.5:
            head.append(top)  # the tail merges into the last head run
        agents.append(HeadTailModel(head=tuple(head), tail_count=rng.randint(1, m),
                                    dist=dist))
    return MarketModel(m=m, agents=tuple(agents))


def random_groups(rng, n):
    agents = rng.sample(range(n), rng.randint(0, n))
    groups = []
    while agents:
        size = rng.randint(1, len(agents))
        chunk, agents = agents[:size], agents[size:]
        groups.append((chunk[0], tuple(chunk[1:])))
    return ResaleSpec(tuple(groups)) if groups or rng.random() < 0.5 else None


def random_bid(rng, m):
    levels = sorted((round(rng.uniform(0.0, 4.0), 1)
                     for _ in range(rng.randint(0, 2))), reverse=True)
    runs, left = [], m
    for level in levels:
        count = rng.randint(0, left)
        runs.append((level, count))
        left -= count
    return BidVector.from_runs(runs, m)


def random_action(rng, m):
    return Action(bid=random_bid(rng, m),
                  seller_price=rng.choice((None, math.inf, round(rng.uniform(0.0, 4.0), 1))),
                  buyer_threshold=rng.choice((None, None, math.inf,
                                              round(rng.uniform(0.0, 4.0), 1))))


def random_game(rng, single_item=None):
    """A random market under a random sealed-bid kind: the single-item kinds
    too when the market sells one unit. `single_item` names the kind of a
    game on one unit instead."""
    market = random_market(rng, 1 if single_item else None)
    mechanisms = [Mechanism("uniform"), Mechanism("discriminatory"),
                  Mechanism("uniform", reserve=round(rng.uniform(0.0, 2.0), 1))]
    if market.m == 1:
        mechanisms += [Mechanism("first_price"), Mechanism("all_pay")]
    mechanism = rng.choice(mechanisms)
    if single_item:
        mechanism = Mechanism(single_item)
    return CombinedGame(market, mechanism, random_groups(rng, market.n),
                        tuple(random_action(rng, market.m) for _ in range(market.n)))


def truthful_bid(m):
    """A callable bid: the valuation's marginals on at most m units."""
    def bid(valuation):
        runs, left = [], m
        for v, c in valuation.runs:
            runs.append((v, min(c, left)))
            left -= runs[-1][1]
        return BidVector.from_runs(runs, m)
    return bid


def random_strategies(rng, market):
    """Strategies with callable bids, callable seller prices, buyers that
    never buy and posted-sale demand overrides mixed in: overrides that read
    the units left, and demand beyond the supply."""
    out = []
    for _ in range(market.n):
        bid = truthful_bid(market.m) if rng.random() < 0.5 else random_bid(rng, market.m)
        price = rng.choice((NO_OFFER, round(rng.uniform(0.0, 4.0), 1),
                            lambda v, obs: 0.5 * obs.own_payment + v.value(1)))
        buyer = rng.choice((ThresholdBuyer(), ThresholdBuyer(NO_OFFER),
                            ThresholdBuyer(round(rng.uniform(0.0, 4.0), 1))))
        posted_buy = rng.choice((None, lambda v, price, left: v.count_ge(price + 0.5),
                                 lambda v, price, left: (left + 1) // 2,
                                 lambda v, price, left: 2 * market.m + 1))
        out.append(Strategy(bid=bid, seller_price=price, buyer=buyer,
                            posted_buy=posted_buy))
    return tuple(out)


def hexes(values):
    return [float(x).hex() for x in values]


def cuts_of(game):
    """Every finite purchase cutoff: the integrand's breakpoints."""
    cuts = set()
    for seller, buyers in (game.resale.groups if game.resale else ()):
        price = game.base_actions[seller].seller_price
        if price is None or math.isinf(price):
            continue
        for b in buyers:
            thr = game.base_actions[b].buyer_threshold
            cut = price if thr is None else max(price, thr)
            if math.isfinite(cut):
                cuts.add(cut)
    return tuple(sorted(cuts))


# -- tests ---------------------------------------------------------------


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_evaluator_matches_cell_reference(rng):
    """Each stage, integrated in one batched kernel call for all its
    allocations and prices, equals the cell-by-cell reference bit for bit;
    so do the utilities, the batched bid utilities, the batched utilities of
    price and threshold deviations, a row against overridden opponents and
    the welfare."""
    check_evaluator_against_cell_reference(random_game(rng), rng)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["first_price", "all_pay"])
def test_single_item_evaluator_matches_cell_reference(kind, seed):
    """The same checks on one unit, where the single-item kinds play: a
    random game draws one in about 1% of examples."""
    rng = random.Random(seed)
    check_evaluator_against_cell_reference(random_game(rng, kind), rng)


def check_evaluator_against_cell_reference(game, rng):
    ev = game.evaluator()
    acts = list(game.base_actions)
    for agent in range(game.market.n):
        assert ev.expected_utility(agent).hex() == reference_utility(game, agent, acts).hex()
        bids = [random_bid(rng, game.market.m) for _ in range(rng.randint(1, 6))]
        rows = ev.bid_utilities(agent, BidBatch.of(bids)).tolist()
        expected = []
        for bv in bids:
            dev = acts[:agent] + [Action(bid=bv).merged_into(acts[agent])] + acts[agent + 1:]
            expected.append(reference_utility(game, agent, dev))
        assert hexes(rows) == hexes(expected)
        devs = [Action(seller_price=rng.choice((None, math.inf,
                                                round(rng.uniform(0.0, 4.0), 1))),
                       buyer_threshold=rng.choice((None, math.inf,
                                                   round(rng.uniform(0.0, 3.0), 1))))
                for _ in range(rng.randint(1, 6))]
        expected = []
        for d in devs:
            dev = acts[:agent] + [d.merged_into(acts[agent])] + acts[agent + 1:]
            expected.append(reference_utility(game, agent, dev))
        assert hexes(ev.utilities(agent, devs)) == hexes(expected)
        # the same row plus the bids against overridden opponents, some of
        # them keeping their base bid; the agent's own entry is ignored
        others = {i: random_action(rng, game.market.m) for i in range(game.market.n)
                  if i == agent or rng.random() < 0.6}
        others = {i: replace(a, bid=None) if rng.random() < 0.5 else a
                  for i, a in others.items()}
        merged = [others[i].merged_into(a) if i in others and i != agent else a
                  for i, a in enumerate(acts)]
        row = devs + [Action(bid=bv) for bv in bids]
        expected = [reference_utility(game, agent, merged[:agent]
                                      + [d.merged_into(acts[agent])] + merged[agent + 1:])
                    for d in row]
        assert hexes(ev.utilities(agent, row, others)) == hexes(expected)
    assert ev.expected_welfare().hex() == reference_welfare(game, acts).hex()


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_evaluator_matches_quadrature_play(rng):
    """The evaluator equals expected_outcome over quadrature cells cut at
    every purchase cutoff, to rel 1e-10."""
    game = random_game(rng)
    ev = game.evaluator()
    res = expected_outcome(game.market, game.mechanism, game.protocol, game.resale,
                           game.strategies(),
                           Quadrature(subdivide=1, breakpoints=cuts_of(game)))
    for agent in range(game.market.n):
        assert ev.expected_utility(agent) == pytest.approx(res.utilities[agent],
                                                           rel=1e-10)
    assert ev.expected_welfare() == pytest.approx(res.welfare, rel=1e-10)


@given(st.randoms(use_true_random=False), st.sampled_from(list(SignalProtocol)),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_expected_outcome_matches_play_loop(rng, protocol, posted):
    """expected_outcome over Monte Carlo rows and over quadrature cells
    equals the per-profile play() loop bit for bit, under constant and
    callable bids, callable seller prices, buyers that never buy and the
    posted mechanism (at price 0 too, and with orders that omit agents)."""
    market = random_market(rng)
    if posted:
        mechanism = Mechanism(
            "posted", posted_price=rng.choice((0.0, round(rng.uniform(0.0, 3.0), 1))),
            posted_order=tuple(rng.sample(range(market.n), rng.randint(0, market.n))))
    else:
        mechanism = rng.choice((Mechanism("uniform"), Mechanism("discriminatory"),
                                Mechanism("uniform", reserve=0.5)))
    resale = rng.choice((random_groups(rng, market.n), ResaleSpec.winner_resale()))
    strategies = random_strategies(rng, market)
    if rng.random() < 0.3:  # constant bids clear once
        strategies = tuple(Strategy(bid=random_bid(rng, market.m),
                                    seller_price=s.seller_price, buyer=s.buyer)
                           for s in strategies)
    for integration in (MonteCarlo(rng.randint(1, 300), rng.randrange(100)),
                        Quadrature(subdivide=rng.randint(1, 2))):
        out = expected_outcome(market, mechanism, protocol, resale, strategies,
                               integration)
        wel, utils, rev, stderr = reference_expected_outcome(
            market, mechanism, protocol, resale, strategies, integration)
        assert out.welfare.hex() == wel.hex()
        assert hexes(out.utilities) == hexes(utils)
        assert float(out.revenue).hex() == float(rev).hex()
        assert (out.welfare_stderr is None) == (stderr is None)
        if stderr is not None:
            assert out.welfare_stderr.hex() == stderr.hex()


class HalfDemand:
    """A buyer policy from outside the package: half the truthful demand."""

    def quantities(self, valuations, holding, price, stock):
        return (valuations.count_ge(price) - holding) // 2


class Eager:
    """A buyer policy from outside the package that asks for a unit at any
    price; a seller who makes no offer still sells it nothing."""

    def quantities(self, valuations, holding, price, stock):
        return 1


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_resale_batch_rows_match_scalar_loop(rng):
    """Rows with different initial holdings, per-row prices and buyer
    thresholds, winner-led or fixed groups, and policies from outside the
    package: every row of one batch equals the scalar loop on that row, bit
    for bit."""
    n, rows = rng.randint(1, 4), rng.randint(1, 8)
    m = rng.randint(1, 12)
    profiles, initial = [], []
    for _ in range(rows):
        profiles.append([MarginalValuation(sorted(
            (round(rng.uniform(0.0, 3.0), 1) for _ in range(rng.randint(0, 3))),
            reverse=True)) for _ in range(n)])
        left, row = m, []
        for _ in range(n):
            row.append(rng.randint(0, min(left, 3)))
            left -= row[-1]
        initial.append(row)
    spec = rng.choice((ResaleSpec.winner_resale(), random_groups(rng, n) or ResaleSpec()))
    prices = {i: rng.choice((round(rng.uniform(0.0, 3.0), 1), NO_OFFER,
                             np.array([rng.choice((NO_OFFER, round(rng.uniform(0.0, 3.0), 1)))
                                       for _ in range(rows)])))
              for i in range(n) if rng.random() < 0.8}
    policies = {i: rng.choice((ThresholdBuyer(), ThresholdBuyer(NO_OFFER),
                               HalfDemand(), Eager(),
                               ThresholdBuyer(round(rng.uniform(0.0, 3.0), 1)),
                               ThresholdBuyer(np.array([rng.choice((
                                   NO_OFFER, -math.inf, round(rng.uniform(0.0, 3.0), 1)))
                                   for _ in range(rows)]))))
                for i in range(n) if rng.random() < 0.8}
    out = run_posted_resale(np.array(initial), spec, prices, policies,
                            [ValuationBatch.of([p[i] for p in profiles]) for i in range(n)],
                            m)
    for j, (row, profile) in enumerate(zip(initial, profiles)):
        row_prices = {i: float(p[j]) if np.ndim(p) else p for i, p in prices.items()}
        row_policies = {i: ThresholdBuyer(float(p.threshold[j]))
                        if isinstance(p, ThresholdBuyer) and np.ndim(p.threshold) else p
                        for i, p in policies.items()}
        groups = reference_groups(spec, row)
        counts, transfers = reference_resale(row, groups, row_prices, row_policies,
                                             profile)
        assert out.final_alloc[j].tolist() == counts
        assert hexes(out.transfers[j]) == hexes(transfers)


def test_expected_outcome_chunks_keep_row_order():
    """Draws beyond one chunk add up in row order, as the play() loop does."""
    market = MarketModel(m=3, agents=(
        HeadTailModel(head=(2.0,), tail_count=2, dist=Uniform(0.0, 1.5)),
        HeadTailModel(tail_count=1, dist=EqualRevenueCapped(3.0)),
        HeadTailModel()))
    resale = ResaleSpec.single(2, (0, 1))
    strategies = (Strategy(bid=truthful_bid(3)), Strategy(bid=truthful_bid(3)),
                  Strategy(bid=BidVector.flat(1.0, 2, 3), seller_price=1.2))
    mc = MonteCarlo(9000, 4)
    out = expected_outcome(market, Mechanism("uniform"),
                           SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, resale,
                           strategies, mc)
    wel, utils, rev, stderr = reference_expected_outcome(
        market, Mechanism("uniform"), SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT,
        resale, strategies, mc)
    assert (out.welfare.hex(), hexes(out.utilities), out.welfare_stderr.hex()) == (
        wel.hex(), hexes(utils), stderr.hex())
    assert float(out.revenue).hex() == float(rev).hex()


# values that tie across agents and whose products with small counts round
TIE_VALUES = (0.1, 0.3, 0.7, 1 / 3, 2.2, 0.0)


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_opt_welfare_rows_match_opt_allocation(rng):
    """Every row's greedy optimum equals opt_allocation on that row's
    profile, by float.hex: values tie across agents (runs of different
    counts), runs worth 0, rows padded to different run counts, agents with
    no runs in any row, and k from 0 to past every explicit marginal."""
    n, rows = rng.randint(1, 8), rng.randint(1, 6)
    empty = {i for i in range(n) if rng.random() < 0.2}
    profiles = []
    for _ in range(rows):
        profile = []
        for i in range(n):
            values = set() if i in empty else {
                rng.choice(TIE_VALUES) if rng.random() < 0.7
                else round(rng.uniform(0.0, 3.0), 2)
                for _ in range(rng.randint(0, 3))}
            profile.append(MarginalValuation.from_runs(
                [(v, rng.randint(1, 9)) for v in sorted(values, reverse=True)]))
        profiles.append(profile)
    batches = [ValuationBatch.of([p[i] for p in profiles]) for i in range(n)]
    explicit = max(sum(v.n_explicit for v in p) for p in profiles)
    for k in {0, rng.randint(0, explicit), rng.randint(0, explicit),
              explicit + rng.randint(1, 5)}:
        assert hexes(opt_welfare_rows(batches, k)) == hexes(
            opt_allocation(p, k)[1] for p in profiles)


def test_opt_welfare_rows_edges():
    """No agents, agents without runs, infinite marginals left untaken, and
    a negative k."""
    assert opt_welfare_rows([ValuationBatch.of([MarginalValuation([])] * 2)],
                            3).tolist() == [0.0, 0.0]
    top = ValuationBatch.of([MarginalValuation([math.inf, math.inf, 1.0])])
    assert opt_welfare_rows([top], 1).tolist() == [math.inf]
    assert opt_welfare_rows([top], 0).tolist() == [0.0]
    with pytest.raises(ValueError):
        opt_welfare_rows([top], -1)


@pytest.mark.parametrize("market, integration", [
    (lower_bound_market(100), MonteCarlo(CHUNK_ROWS + 500, 3)),
    (lower_bound_market(10), Quadrature()),
    (lower_bound_market(1000), Quadrature(subdivide=1, breakpoints=(1.0,))),
    (grouped_market(1000, 0.1), MonteCarlo(300, 4)),
    (posted_fails_market(0.01, 1000.0), MonteCarlo(2000, 5)),
    (posted_fails_market(0.01, 1000.0), Quadrature(subdivide=2)),
], ids=["lower-bound-mc-chunks", "lower-bound-quad", "lower-bound-quad-1000",
        "grouped-mc", "posted-fails-mc", "posted-fails-quad"])
def test_expected_optimal_welfare_matches_scalar_loop(market, integration):
    """E[OPT] over Monte Carlo rows (beyond one chunk) and quadrature cells
    equals the per-profile opt_allocation loop bit for bit."""
    assert expected_optimal_welfare(market, integration).hex() == float(
        reference_expected_optimum(market, integration)).hex()


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_expected_optimal_welfare_matches_scalar_loop_on_random_markets(rng):
    market = random_market(rng)
    for integration in (MonteCarlo(rng.randint(1, 300), rng.randrange(100)),
                        Quadrature(subdivide=rng.randint(1, 2))):
        assert expected_optimal_welfare(market, integration).hex() == float(
            reference_expected_optimum(market, integration)).hex()


@pytest.mark.parametrize("seed", range(12))
def test_monte_carlo_within_four_stderr(seed):
    """Monte Carlo welfare of a random constant-action game lies within 4
    stderr of the exact quadrature value."""
    game = random_game(random.Random(seed))
    args = (game.market, game.mechanism, game.protocol, game.resale, game.strategies())
    exact = expected_outcome(*args, Quadrature(subdivide=1, breakpoints=cuts_of(game)))
    mc = expected_outcome(*args, MonteCarlo(4000, seed))
    slack = 4 * mc.welfare_stderr + 1e-9 * max(1.0, abs(exact.welfare))
    assert abs(mc.welfare - exact.welfare) <= slack


def test_head_tail_batch_merges_like_realize():
    """A tail equal to the last head marginal joins that run in the batch as
    in realize(), so the value is v * (1 + t), not v + v * t."""
    model = HeadTailModel(head=(3.0, 0.1), tail_count=5, dist=PointMass(0.1))
    batch = model.batch(np.array([0.1]))
    assert batch.valuation(0) == model.realize(0.1)
    assert model.realize(0.1).runs == ((3.0, 1), (0.1, 6))
    assert batch.value(np.array([7])).tolist() == [model.realize(0.1).value(7)]
    tail = HeadTailModel(head=(2.0,), tail_count=3, dist=Uniform(0.0, 2.0))
    xs = np.array([0.0, 0.5, 2.0, 1.25])
    batch = tail.batch(xs)
    for j, x in enumerate(xs.tolist()):
        assert batch.valuation(j) == tail.realize(x)
        for k in range(6):
            assert batch.value(np.full(4, k))[j].hex() == float(tail.realize(x).value(k)).hex()
            assert batch.count_ge(np.full(4, 0.5 * k))[j] == tail.realize(x).count_ge(0.5 * k)
    with pytest.raises(ValueError):
        tail.batch(np.array([2.5]))
    with pytest.raises(ValueError):
        tail.batch(np.array([math.nan]))
    with pytest.raises(ValueError):
        tail.batch(np.array([0.5, -0.5]))
    # a merged row beside an unmerged one: 0.1 * 6, not 0.1 + 0.1 * 5
    mixed = HeadTailModel(head=(0.1,), tail_count=5, dist=Uniform(0.0, 0.1))
    batch = mixed.batch(np.array([0.1, 0.05, 0.1]))
    assert batch.value(np.full(3, 7)).tolist() == [
        mixed.realize(x).value(7) for x in (0.1, 0.05, 0.1)]
    assert len(tail.batch(np.array([]))) == 0
    fixed = HeadTailModel(head=(3.0, 3.0, 1.0))
    batch = fixed.batch(np.zeros(3))
    assert [batch.valuation(j) for j in range(3)] == [fixed.realize()] * 3


def test_valuation_batch_round_trips():
    vals = [MarginalValuation([3.0, 2.0, 2.0]), MarginalValuation([]),
            MarginalValuation([1.5])]
    batch = ValuationBatch.of(vals)
    assert [batch.valuation(j) for j in range(3)] == vals
    assert batch.count_ge(2.0).tolist() == [3, 0, 0]
    assert batch.value(np.array([2, 5, 1])).tolist() == [5.0, 0.0, 1.5]


def fixed_market(m, *heads):
    """A market of agents with fixed marginals, and its one profile."""
    market = MarketModel(m=m, agents=tuple(HeadTailModel(head=h) for h in heads))
    return market, [a.realize() for a in market.agents]


def posted_play(market, profile, order, strategies, price=1.5):
    return play(market, Mechanism("posted", posted_price=price, posted_order=order),
                SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, None, strategies,
                profile)


def test_posted_sale_truthful_and_override():
    """Truthful buyers take the units their values cover; a posted_buy rule
    replaces the demand, capped by the units left; both as the scalar sale."""
    market, profile = fixed_market(3, (2.0, 1.0), (3.0,))
    out = posted_play(market, profile, (0, 1), (Strategy(), Strategy()))
    assert out.auction_alloc.counts == (1, 1)
    assert out.auction_payments == (1.5, 1.5)
    greedy = (Strategy(posted_buy=lambda v, price, left: 2), Strategy())
    out = posted_play(market, profile, (0, 1), greedy)
    assert out.auction_alloc.counts == (2, 1)
    assert out.auction_payments == (3.0, 1.5)
    rules = [s.posted_buy for s in greedy]
    assert reference_posted_sale(1.5, (0, 1), profile, 3, rules) == AuctionOutcome(
        out.auction_alloc, out.auction_payments, out.clearing_price)


def test_posted_buy_sees_units_left():
    """Each posted_buy rule is called with the units still unsold when its
    buyer's turn comes, not with m: one count per row of the batch."""
    seen = []

    def buying(q):
        def rule(valuations, price, left):
            seen.append(left.tolist())
            return q
        return rule

    market, profile = fixed_market(3, (), ())
    out = posted_play(market, profile, (0, 1),
                      (Strategy(posted_buy=buying(2)), Strategy(posted_buy=buying(5))))
    assert seen == [[3], [1]]
    assert out.auction_alloc.counts == (2, 1)


def test_posted_buy_is_asked_once_per_chunk():
    """expected_outcome asks each posted_buy rule once per chunk of rows,
    with the chunk's valuations and one count of units left per row."""
    market = MarketModel(m=2, agents=(
        HeadTailModel(tail_count=2, dist=Uniform(0.0, 2.0)), HeadTailModel(head=(1.0,))))
    asked = {0: [], 1: []}

    def counting(agent, demand):
        def rule(valuations, price, left):
            asked[agent].append((len(valuations), left.shape))
            return demand(valuations, price, left)
        return rule

    strategies = (Strategy(posted_buy=counting(0, lambda v, price, left: v.count_ge(price))),
                  Strategy(posted_buy=counting(1, lambda v, price, left: 1)))
    expected_outcome(market, Mechanism("posted", posted_price=0.5),
                     SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, None, strategies,
                     MonteCarlo(2 * CHUNK_ROWS + 1, 7))
    chunks = [(CHUNK_ROWS, (CHUNK_ROWS,))] * 2 + [(1, (1,))]
    assert asked == {0: chunks, 1: chunks}


@pytest.mark.parametrize("order", [(0, 0), (0, 2), (-1,)])
def test_posted_order_names_distinct_agents_of_the_market(order):
    """A repeated agent would buy twice (the scalar sale kept only her last
    purchase), and an agent outside the market has no valuation."""
    market, profile = fixed_market(2, (2.0, 2.0), ())
    with pytest.raises(ValueError):
        posted_play(market, profile, order,
                    (Strategy(posted_buy=lambda v, price, left: 1), Strategy()))


@pytest.mark.parametrize("demand", [-1, 1.5, math.inf, math.nan,
                                    np.array([1]), np.array([1, 1, 1, 1])])
def test_posted_demand_must_be_a_nonnegative_integer(demand):
    """On a batch of 3 rows: each count must be a finite nonnegative
    integer, and an array must have one count per row (only a scalar
    stands for every row, not an array of length 1)."""
    market, _ = fixed_market(2, (2.0,), ())
    with pytest.raises(ValueError):
        expected_outcome(market, Mechanism("posted", posted_price=1.5, posted_order=(0, 1)),
                         SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, None,
                         (Strategy(posted_buy=lambda v, price, left: demand), Strategy()),
                         MonteCarlo(3, 0))
