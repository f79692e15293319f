import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.aftermarket import (NO_OFFER, ResaleSpec, SignalProtocol,
                                      ThresholdBuyer, apply_signal,
                                      check_weak_budget_balance,
                                      opt_out_outcome, run_posted_resale)
from aftermarkets.allocation import Allocation
from aftermarkets.auctions import BidVector, uniform_price
from aftermarkets.combined import play
from aftermarkets.equilibrium import scripted_lower_bound_equilibrium
from aftermarkets.valuations import (MarginalValuation, ValuationBatch,
                                     sample_profile)


def random_setting(rng):
    n = rng.randint(2, 4)
    vals = []
    for _ in range(n):
        k = rng.randint(0, 3)
        vals.append(MarginalValuation(
            sorted((round(rng.uniform(0, 3), 2) for _ in range(k)), reverse=True)))
    counts = tuple(rng.randint(0, 3) for _ in range(n))
    seller = rng.randrange(n)
    buyers = tuple(i for i in range(n) if i != seller)
    price = round(rng.uniform(0.1, 3.0), 2)
    return vals, Allocation(counts), seller, buyers, price


def resell(initial, spec, prices, policies, vals, m=None):
    """run_posted_resale on the single profile `vals` as a batch of one:
    the final holdings and the transfers as tuples."""
    m = initial.total if m is None else m
    out = run_posted_resale(np.array([initial.counts]), spec, prices, policies,
                            [ValuationBatch.of([v]) for v in vals], m)
    return tuple(out.final_alloc[0].tolist()), tuple(out.transfers[0].tolist())


def test_signal_protocols():
    bids = [BidVector([1.0], 2), BidVector([2.0, 2.0], 2)]
    out = uniform_price(bids, 2)
    obs = apply_signal(SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, out, bids)
    assert obs[0].alloc == out.alloc
    assert obs[0].own_payment == out.payments[0]
    assert obs[0].bids is None
    obs2 = apply_signal(SignalProtocol.PUBLIC_BIDS, out, bids)
    assert obs2[1].bids == tuple(bids)


def test_threshold_buyer_dominant_policy():
    v = MarginalValuation([3.0, 2.0, 1.0])

    def demand(buyer, holding, price, stock):  # a batch of one row
        return buyer.quantities(ValuationBatch.of([v]), np.array([holding]), price,
                                np.array([stock])).tolist()

    buyer = ThresholdBuyer()
    assert demand(buyer, holding=0, price=1.5, stock=5) == [2]
    assert demand(buyer, holding=1, price=1.5, stock=5) == [1]
    assert demand(buyer, holding=0, price=1.5, stock=1) == [2]  # `_sell` caps it
    assert demand(buyer, holding=0, price=NO_OFFER, stock=5) == [0]
    strict = ThresholdBuyer(threshold=2.5)
    assert demand(strict, holding=0, price=1.5, stock=5) == [1]
    assert demand(ThresholdBuyer(NO_OFFER), 0, 0.1, 5) == [0]


def test_threshold_buyer_cut():
    """max(price, threshold), the price for no threshold, on scalar and
    per-row prices and thresholds."""
    assert ThresholdBuyer().cut(1.5) == 1.5
    assert ThresholdBuyer(2.5).cut(1.5) == 2.5
    assert ThresholdBuyer(0.5).cut(1.5) == 1.5
    assert ThresholdBuyer(0.5).cut(NO_OFFER) == NO_OFFER
    prices = np.array([0.5, 1.5, NO_OFFER])
    assert ThresholdBuyer().cut(prices).tolist() == [0.5, 1.5, NO_OFFER]
    assert ThresholdBuyer(1.0).cut(prices).tolist() == [1.0, 1.5, NO_OFFER]
    per_row = ThresholdBuyer(np.array([2.0, 1.0, 0.0]))
    assert per_row.cut(1.2).tolist() == [2.0, 1.2, 1.2]
    assert per_row.cut(prices).tolist() == [2.0, 1.5, NO_OFFER]


def test_threshold_buyer_rejects_nan():
    # max(price, nan) is price, so a NaN threshold would buy like None
    with pytest.raises(ValueError):
        ThresholdBuyer(math.nan)
    with pytest.raises(ValueError):  # one threshold per row of a batch
        ThresholdBuyer(np.array([1.0, math.nan]))


def test_posted_resale_sequential_order():
    vals = [MarginalValuation([2.0]), MarginalValuation([2.0, 2.0]),
            MarginalValuation([])]
    initial = Allocation((0, 0, 2))
    spec = ResaleSpec.single(2, (0, 1))
    final, transfers = resell(initial, spec, {2: 1.0}, {}, vals)
    assert final == (1, 1, 0)
    assert transfers == (1.0, 1.0, -2.0)
    assert sum(transfers) == 0.0
    # reversed visiting order: agent 1 takes both units
    final2, _ = resell(initial, ResaleSpec.single(2, (1, 0)), {2: 1.0}, {}, vals)
    assert final2 == (0, 2, 0)


def test_no_offer_keeps_allocation():
    vals = [MarginalValuation([2.0]), MarginalValuation([])]
    initial = Allocation((0, 2))
    final, transfers = resell(initial, ResaleSpec.single(1, (0,)),
                              {1: NO_OFFER}, {}, vals)
    assert final == initial.counts
    assert transfers == (0.0, 0.0)


def test_winner_led_resale():
    vals = [MarginalValuation([5.0]), MarginalValuation([1.0])]
    spec = ResaleSpec.winner_resale()
    (seller, buyers), = spec.sales(np.array([(0, 1), (0, 0)]))
    assert seller.tolist() == [1, -1]  # the second row holds nothing: no sale
    assert buyers == (0, 1)
    assert resell(Allocation((0, 1)), spec, {1: 0.5}, {}, vals) == (
        (1, 0), (0.5, -0.5))


def test_winner_led_seller_column():
    """The largest holder sells, ties going to the lowest index; a row
    where nobody holds a unit has no sale, and there the would-be seller's
    price is never read, so a NaN or negative one does not raise."""
    initial = np.array([(2, 2, 0), (0, 1, 1), (0, 0, 3), (0, 0, 0)])
    (seller, buyers), = ResaleSpec.winner_resale().sales(initial)
    assert seller.tolist() == [0, 1, 2, -1]
    assert buyers == (0, 1, 2)
    fixed = ResaleSpec(((2, (0,)), (1, ())))
    assert [(s.tolist(), b) for s, b in fixed.sales(initial)] == [
        ([2, 2, 2, 2], (0,)), ([1, 1, 1, 1], ())]
    vals = [ValuationBatch.of([MarginalValuation([3.0, 3.0])] * 4)
            for _ in range(3)]
    for bad in (math.nan, -1.0):
        price = np.array([1.0, 2.0, 0.5, bad])
        out = run_posted_resale(initial, ResaleSpec.winner_resale(),
                                {0: price, 1: price, 2: price}, {}, vals, 4)
        assert out.final_alloc.tolist() == [[0, 2, 2], [1, 0, 1], [2, 1, 0],
                                            [0, 0, 0]]
        assert out.transfers.tolist() == [[-2.0, 0.0, 2.0], [2.0, -2.0, 0.0],
                                          [1.0, 0.5, -1.5], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError):  # the seller's own NaN price still raises
        run_posted_resale(initial, ResaleSpec.winner_resale(),
                          {0: np.array([math.nan, 2.0, 0.5, 1.0])}, {}, vals, 4)


@pytest.mark.parametrize("groups", [
    ((0, (0, 1)),),             # a seller among its own buyers
    ((0, (1, 1)),),             # a repeated buyer
    ((0, (1,)), (2, (1,))),     # two groups sharing an agent
    ((-1, (0,)),),              # a negative index
])
def test_resale_spec_rejects_bad_groups(groups):
    with pytest.raises(ValueError):
        ResaleSpec(groups)


def test_resale_spec_rejects_groups_when_winner_led():
    with pytest.raises(ValueError):  # sales() would ignore the groups
        ResaleSpec(((0, (1,)),), winner_led=True)


def test_resale_rejects_agent_past_the_last():
    vals = [ValuationBatch.of([MarginalValuation([1.0])]) for _ in range(2)]
    for spec in (ResaleSpec.single(2, (0,)), ResaleSpec.single(0, (1, 2))):
        with pytest.raises(ValueError):
            run_posted_resale(np.array([(1, 0)]), spec, {0: 1.0, 2: 1.0}, {},
                              vals, 1)


def test_opt_out_outcome():
    out = opt_out_outcome(np.array([(1, 2)]))
    assert out.final_alloc.tolist() == [[1, 2]]
    assert out.transfers.tolist() == [[0.0, 0.0]]


def test_negative_price_rejected():
    vals = [MarginalValuation([]), MarginalValuation([1.0])]
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            resell(Allocation((1, 0)), ResaleSpec.single(0, (1,)), {0: bad}, {}, vals)


class FixedDemand:
    """A buyer policy that asks for `q` units on every row."""

    def __init__(self, q):
        self.q = q

    def quantities(self, valuations, holding, price, stock):
        return np.full(len(holding), self.q)


def test_resale_demand_must_be_a_whole_number():
    """A float count that is not whole raises; +-inf is capped to the stock."""
    vals = [MarginalValuation([]), MarginalValuation([2.0, 2.0])]
    spec = ResaleSpec.single(0, (1,))
    for bad in (math.nan, 1.5):
        with pytest.raises(ValueError):
            resell(Allocation((2, 0)), spec, {0: 1.0}, {1: FixedDemand(bad)}, vals)
    assert resell(Allocation((2, 0)), spec, {0: 1.0}, {1: FixedDemand(math.inf)},
                  vals) == ((0, 2), (-2.0, 2.0))
    assert resell(Allocation((2, 0)), spec, {0: 1.0}, {1: FixedDemand(-math.inf)},
                  vals) == ((2, 0), (0.0, 0.0))


def test_resale_rejects_overselling():
    """An initial row that sells more than the m units is rejected at the
    resale boundary, in a batch as for a single profile."""
    vals = [MarginalValuation([1.0]), MarginalValuation([2.0])]
    spec = ResaleSpec.single(0, (1,))
    with pytest.raises(ValueError):
        resell(Allocation((2, 0)), spec, {0: 1.0}, {}, vals, m=1)
    batch = [ValuationBatch.of([v, v]) for v in vals]
    with pytest.raises(ValueError):
        run_posted_resale(np.array([(1, 0), (2, 0)]), spec, {0: 1.0}, {}, batch, 1)
    assert resell(Allocation((1, 0)), spec, {0: 1.0}, {}, vals, m=1) == (
        (0, 1), (-1.0, 1.0))


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_play_rejects_bad_seller_price(bad):
    game = scripted_lower_bound_equilibrium(10)
    strategies = list(game.strategies())
    strategies[2] = replace(strategies[2], seller_price=bad)
    with pytest.raises(ValueError):
        play(game.market, game.mechanism, game.protocol, game.resale, strategies,
             sample_profile(game.market, 0))


@given(st.integers(0, 10_000))
@settings(max_examples=500, deadline=None)
def test_resale_invariants(seed):
    rng = random.Random(seed)
    vals, initial, seller, buyers, price = random_setting(rng)
    spec = ResaleSpec.single(seller, buyers)
    out = run_posted_resale(np.array([initial.counts]), spec, {seller: price}, {},
                            [ValuationBatch.of([v]) for v in vals], initial.total)
    assert check_weak_budget_balance(out, scale=price * 10)
    final, transfers = out.final_alloc[0].tolist(), out.transfers[0].tolist()
    # strong budget balance and conservation of units
    assert sum(transfers) == pytest.approx(0.0, abs=1e-12)
    assert sum(final) == initial.total
    # voluntary participation: the dominant buyer policy never loses utility
    for i in range(len(vals)):
        gain = (vals[i].value(final[i]) - vals[i].value(initial[i])
                - transfers[i])
        if i != seller:
            assert gain >= -1e-12
    # seller revenue is nonnegative
    assert transfers[seller] <= 1e-12
    # trade weakly increases welfare when buyers value units above the
    # seller's (zero beyond her own use) marginal value only if price <= value;
    # with the dominant policy every purchased unit has value >= price
    for i in buyers:
        bought = final[i] - initial[i]
        if bought > 0:
            assert vals[i].value(initial[i] + bought) - vals[i].value(initial[i]) \
                >= bought * price - 1e-9
