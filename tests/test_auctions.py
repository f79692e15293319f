import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.aftermarket import SignalProtocol
from aftermarkets.allocation import opt_allocation
from aftermarkets.auctions import (AuctionOutcome, BidBatch, BidVector,
                                   _sorted_entries, discriminatory,
                                   discriminatory_units_won, uniform_price,
                                   uniform_price_deviations)
from aftermarkets.combined import Mechanism, Strategy, play
from aftermarkets.smoothness import SingleItemAllPay, SingleItemFirstPrice
from aftermarkets.valuations import HeadTailModel, MarginalValuation, MarketModel


def random_bids(rng, n, m):
    out = []
    for _ in range(n):
        k = rng.randint(0, min(m, 4))
        vals = sorted((round(rng.uniform(0, 3), 2) for _ in range(k)), reverse=True)
        out.append(BidVector(vals, m))
    return out


def test_bid_vector_validation():
    with pytest.raises(ValueError):
        BidVector([1.0, 2.0], 5)
    with pytest.raises(ValueError):
        BidVector([-1.0], 5)
    with pytest.raises(ValueError):
        BidVector([1.0] * 6, 5)
    assert BidVector.flat(0.0, 3, 5).runs == ()
    assert BidVector.flat(2.0, 3, 5).runs == ((2.0, 3),)


def test_uniform_price_clearing():
    # three agents, m=3: bids 5,4 / 3 / 2 -> price = 2 (first losing bid)
    bids = [BidVector([5.0, 4.0], 3), BidVector([3.0], 3), BidVector([2.0], 3)]
    out = uniform_price(bids, 3)
    assert out.alloc.counts == (2, 1, 0)
    assert out.clearing_price == pytest.approx(2.0)
    assert out.payments == (4.0, 2.0, 0.0)


def test_uniform_price_excess_supply_price_zero():
    bids = [BidVector([5.0], 3), BidVector([3.0], 3)]
    out = uniform_price(bids, 3)
    assert out.clearing_price == 0.0
    # implicit zero bids soak up the leftover unit
    assert out.alloc.total == 3


def test_uniform_price_reserve():
    bids = [BidVector([5.0], 2), BidVector([0.3], 2)]
    out = uniform_price(bids, 2, reserve=0.5)
    # the 0.3 bid is filtered; winner pays the reserve
    assert out.alloc.counts == (1, 0)
    assert out.clearing_price == pytest.approx(0.5)
    out2 = uniform_price(bids, 2, reserve=None)
    assert out2.alloc.counts in ((1, 1), (2, 0))


def test_discriminatory_pay_as_bid():
    bids = [BidVector([5.0, 4.0], 3), BidVector([3.0], 3), BidVector([2.0], 3)]
    out = discriminatory(bids, 3)
    assert out.alloc.counts == (2, 1, 0)
    assert out.payments == (9.0, 3.0, 0.0)


def test_single_item_auctions():
    out = SingleItemFirstPrice(3).clear([0.4, 0.9, 0.1])
    assert out.alloc.counts == (0, 1, 0)
    assert out.payments == (0.0, 0.9, 0.0)
    ap = SingleItemAllPay(3).clear([0.4, 0.9, 0.1])
    assert ap.alloc.counts == (0, 1, 0)
    assert ap.payments == (0.4, 0.9, 0.1)
    tie = SingleItemFirstPrice(2).clear([0.5, 0.5])
    assert tie.alloc.counts == (1, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bid_vector_rejects_nan_and_infinite_bids(bad):
    with pytest.raises(ValueError):
        BidVector([bad], 2)
    with pytest.raises(ValueError):
        BidVector([3.0, bad], 2)
    with pytest.raises(ValueError):
        BidVector.from_runs([(bad, 1)], 2)
    with pytest.raises(ValueError):
        BidVector.from_runs([(3.0, 1), (bad, 1)], 2)


@pytest.mark.parametrize("bids", [[math.nan, 0.5], [-1.0, -2.0], [math.inf, 0.5],
                                  [0.5, -0.1]])
def test_single_item_rejects_invalid_bids(bids):
    for clear in (SingleItemFirstPrice(2).clear, SingleItemAllPay(2).clear):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            clear(bids)


# Agent 1 bids two units and the others one, all at 0.5: with m = 2 the
# lower indices take one unit each, in every clearing and in the optimum.
TIES = [BidVector([0.5], 2), BidVector([0.5, 0.5], 2), BidVector([0.5], 2)]


@pytest.mark.parametrize("clear, expected", [
    pytest.param(lambda: uniform_price(TIES, 2).alloc.counts, (1, 1, 0),
                 id="uniform"),
    pytest.param(lambda: uniform_price(TIES, 2, reserve=0.5).alloc.counts,
                 (1, 1, 0), id="uniform-reserve"),
    pytest.param(lambda: discriminatory(TIES, 2).alloc.counts, (1, 1, 0),
                 id="discriminatory"),
    pytest.param(lambda: tuple(
        int(discriminatory_units_won([(b,) for b in TIES], a,
                                     BidBatch.of([TIES[a]]), 2)[0][0, 0])
        for a in range(3)), (1, 1, 0), id="discriminatory-kernel"),
    pytest.param(lambda: tuple(
        int(uniform_price_deviations(TIES, a, BidBatch.of([TIES[a]]), 2)[0][0])
        for a in range(3)), (1, 1, 0), id="uniform-kernel"),
    pytest.param(lambda: opt_allocation(
        [MarginalValuation.from_runs(bv.runs) for bv in TIES], 2)[0].counts,
        (1, 1, 0), id="opt"),
    pytest.param(lambda: SingleItemFirstPrice(3).clear([0.5] * 3).alloc.counts,
                 (1, 0, 0), id="first-price"),
    pytest.param(lambda: SingleItemAllPay(3).clear([0.5] * 3).alloc.counts,
                 (1, 0, 0), id="all-pay"),
    pytest.param(lambda: tuple(
        int(SingleItemFirstPrice(3).units_and_payments([(0.5,)] * 3, a, [0.5])[0][0, 0])
        for a in range(3)), (1, 0, 0), id="first-price-kernel"),
])
def test_equal_bids_go_to_lower_index(clear, expected):
    assert clear() == expected


@pytest.mark.parametrize("make", [
    pytest.param(lambda: uniform_price(TIES, 2, reserve=math.nan), id="nan-reserve"),
    pytest.param(lambda: uniform_price_deviations(TIES, 0, BidBatch.of([TIES[0]]), 2,
                                                  math.nan),
                 id="kernel-nan-reserve"),
    pytest.param(lambda: Mechanism("uniform", reserve=math.nan),
                 id="mechanism-nan-reserve"),
    pytest.param(lambda: uniform_price(TIES, 2, reserve=-1.0), id="negative-reserve"),
    pytest.param(lambda: uniform_price_deviations(TIES, 0, BidBatch.of([TIES[0]]), 2,
                                                  -1.0),
                 id="kernel-negative-reserve"),
    pytest.param(lambda: Mechanism("uniform", reserve=-1.0),
                 id="mechanism-negative-reserve"),
    *(pytest.param(lambda p=p: Mechanism("posted", posted_price=p),
                   id=f"mechanism-posted-{p}") for p in (-1.0, math.inf, math.nan)),
])
def test_bad_prices_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_infinite_reserve_sells_nothing():
    out = uniform_price(TIES, 2, reserve=math.inf)
    assert out.alloc.counts == (0, 0, 0)
    assert out.payments == (0.0, 0.0, 0.0)


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_uniform_price_invariants(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    bids = random_bids(rng, rng.randint(1, 4), m)
    out = uniform_price(bids, m)
    price = out.clearing_price
    # every winning marginal >= price >= every fully losing positive marginal
    for i, bv in enumerate(bids):
        marginals = bv.runs
        flat = []
        for b, c in marginals:
            flat.extend([b] * c)
        won = out.alloc[i]
        for j, b in enumerate(flat):
            if j < won:
                assert b >= price - 1e-12
    assert out.alloc.total <= m
    assert out.revenue == pytest.approx(price * out.alloc.total)


@given(st.integers(0, 10_000), st.sampled_from(["uniform", "reserve", "discriminatory",
                                                "posted", "posted-override"]))
@settings(max_examples=400, deadline=None)
def test_auction_invariants(seed, kind):
    """Every clearing sells at most m units and charges no negative payment;
    a uniform-price winner pays exactly the clearing price per unit."""
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    bids = random_bids(rng, rng.randint(1, 4), m)
    if kind in ("uniform", "reserve"):
        reserve = round(rng.uniform(0.0, 3.0), 2) if kind == "reserve" else None
        out = uniform_price(bids, m, reserve)
        assert out.payments == tuple(out.clearing_price * c for c in out.alloc.counts)
    elif kind == "discriminatory":
        out = discriminatory(bids, m)
    else:  # the posted sale, with the bids as values
        market = MarketModel(m=m, agents=tuple(HeadTailModel() for _ in bids))
        vals = [MarginalValuation.from_runs(bv.runs) for bv in bids]
        strategies = [Strategy() for _ in bids]
        if kind == "posted-override":  # strategic demand beyond the supply
            strategies = [Strategy(posted_buy=rng.choice((
                None, lambda v, price, left, q=rng.randint(0, 2 * m): q)))
                for _ in bids]
        mechanism = Mechanism("posted", posted_price=round(rng.uniform(0.0, 3.0), 2),
                              posted_order=tuple(rng.sample(range(len(bids)), len(bids))))
        played = play(market, mechanism, SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT,
                      None, strategies, vals)
        out = AuctionOutcome(played.auction_alloc, played.auction_payments)
    assert out.alloc.total <= m
    assert all(p >= 0 for p in out.payments)


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_discriminatory_revenue_dominates_uniform(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    bids = random_bids(rng, rng.randint(1, 4), m)
    u = uniform_price(bids, m)
    d = discriminatory(bids, m)
    assert d.alloc.counts == u.alloc.counts
    assert d.revenue >= u.revenue - 1e-12


@given(st.integers(0, 10_000), st.floats(0.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_reserve_monotone_in_sold_units(seed, reserve):
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    bids = random_bids(rng, rng.randint(1, 4), m)
    low = uniform_price(bids, m, reserve=reserve)
    high = uniform_price(bids, m, reserve=reserve + 0.5)
    assert high.alloc.total <= low.alloc.total


GRID_BIDS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5])


@st.composite
def grid_bid_vector(draw, m):
    """A bid vector on the 0.25 grid: repeated levels tie, and zero levels
    leave implicit zero bids."""
    marginals = draw(st.lists(GRID_BIDS, max_size=m))
    return BidVector(sorted(marginals, reverse=True), m)


def reference_pay_as_bid(bids, m):
    """Each agent's winning marginal bids summed down the ranked entries of
    the greedy allocation, one `b * take` per entry."""
    paid = [0.0] * len(bids)
    left = m
    for b, i, _, c in _sorted_entries(bids, None):
        if left == 0:
            break
        take = min(c, left)
        paid[i] += b * take
        left -= take
    return paid


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pay_as_bid_is_value_of_units_won(data):
    """discriminatory() charges each winner its bid schedule's value of the
    units won, bit for bit the per-entry sum."""
    m = data.draw(st.integers(1, 12))
    bids = []
    for _ in range(data.draw(st.integers(1, 4))):
        marginals = data.draw(st.lists(st.one_of(GRID_BIDS, st.floats(0.0, 3.0)),
                                       max_size=m))
        bids.append(BidVector(sorted(marginals, reverse=True), m))
    out = discriminatory(bids, m)
    assert [p.hex() for p in out.payments] == [
        p.hex() for p in reference_pay_as_bid(bids, m)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_uniform_kernel_matches_uniform_price(data):
    """Every deviation cleared by the kernel gets exactly what uniform_price
    gives the same bids: every count, the price and every payment."""
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 4))
    bids = [data.draw(grid_bid_vector(m)) for _ in range(n)]
    agent = data.draw(st.integers(0, n - 1))
    deviations = data.draw(st.lists(grid_bid_vector(m), min_size=1, max_size=6))
    reserve = data.draw(st.sampled_from(
        [None, 0.0, 0.75, 0.6, 1.75, math.inf]))
    members = tuple(range(n))
    k, price, counts = uniform_price_deviations(
        bids, agent, BidBatch.of(deviations), m, reserve, members)
    for d, dev in enumerate(deviations):
        out = uniform_price(bids[:agent] + [dev] + bids[agent + 1:], m, reserve)
        assert int(k[d]) == out.alloc[agent]
        assert tuple(counts[d].tolist()) == out.alloc.counts
        assert float(price[d]).hex() == float(out.clearing_price).hex()
        payments = price[d] * counts[d]
        assert [float(p).hex() for p in payments] == [p.hex() for p in out.payments]
        assert counts[d].sum() <= m
        assert (payments >= 0).all()
