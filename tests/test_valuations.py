from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.auctions import BidVector
from aftermarkets.distributions import Uniform
from aftermarkets.valuations import (ZERO_VALUATION, HeadTailModel,
                                     MarginalValuation, MarketModel,
                                     grouped_market,
                                     lower_bound_market, posted_fails_market,
                                     sample_profile, symmetric_fpa_market)


def test_marginal_valuation_basics():
    v = MarginalValuation([2.0, 1.5, 1.5, 0.5])
    assert v.runs == ((2.0, 1), (1.5, 2), (0.5, 1))
    assert v.value(0) == 0
    assert v.value(2) == 3.5
    assert v.value(10) == 5.5
    assert v.marginal(0) == 2.0
    assert v.marginal(3) == 0.5
    assert v.marginal(4) == 0
    assert v.count_ge(1.5) == 3


def test_marginal_valuation_rejects_increasing():
    with pytest.raises(ValueError):
        MarginalValuation([1.0, 2.0])
    with pytest.raises(ValueError):
        MarginalValuation.from_runs(((1.0, 1), (2.0, 1)))


def test_bids_and_marginals_share_run_validation():
    runs = ((2.0, 1), (2.0, 2), (1.0, 0), (1.0, 1), (0.0, 1))
    assert MarginalValuation.from_runs(runs).runs == ((2.0, 3), (1.0, 1), (0.0, 1))
    assert MarginalValuation([2.0, 2.0, 2.0, 1.0, 0.0]).runs == \
        MarginalValuation.from_runs(runs).runs
    # bids keep their zero-run drop and their unit count
    assert BidVector.from_runs(runs, 6).runs == ((2.0, 3), (1.0, 1))
    assert BidVector([2.0, 2.0, 2.0, 1.0, 0.0]).m == 5
    for bad in (((1.0, -1),), ((-1.0, 1),), ((1.0, 1), (2.0, 1))):
        with pytest.raises(ValueError):
            MarginalValuation.from_runs(bad)
        with pytest.raises(ValueError):
            BidVector.from_runs(bad, 5)


def test_bids_and_valuations_compare_by_type():
    """A BidVector is a marginal schedule with a unit count: it never equals a
    MarginalValuation, and bid vectors differing only in m differ."""
    runs = ((2.0, 1), (1.0, 2))
    valuation = MarginalValuation.from_runs(runs)
    assert valuation == MarginalValuation([2.0, 1.0, 1.0])
    assert hash(valuation) == hash(MarginalValuation([2.0, 1.0, 1.0]))
    bid = BidVector.from_runs(runs, 3)
    assert isinstance(bid, MarginalValuation) and bid.value(2) == valuation.value(2)
    assert not bid == valuation and not valuation == bid
    assert bid != valuation and valuation != bid
    same = BidVector([2.0, 1.0, 1.0])
    assert bid == same and hash(bid) == hash(same)
    wider = BidVector.from_runs(runs, 4)
    assert bid != wider and hash(bid) != hash(wider)


def test_nan_marginals_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        MarginalValuation([1.0, nan, 2.0])
    with pytest.raises(ValueError):
        MarginalValuation([nan])
    with pytest.raises(ValueError):
        MarginalValuation.from_runs([(2.0, 1), (nan, 3)])
    model = HeadTailModel(head=(2.0,), tail_count=3, dist=Uniform(0.0, 1.0))
    with pytest.raises(ValueError):
        model.realize(nan)


def test_fraction_support():
    v = MarginalValuation([Fraction(3, 2), Fraction(1, 3)])
    assert v.value(2) == Fraction(11, 6)


def test_zero_valuation():
    assert ZERO_VALUATION.value(5) == 0
    assert ZERO_VALUATION.count_ge(0.1) == 0


def test_head_tail_realize():
    model = HeadTailModel(head=(2.0,), tail_count=3, dist=Uniform(0.0, 1.0))
    for s in (0.0, 0.4, 1.0):
        v = model.realize(s)
        for k in range(6):
            assert v.value(k) == (2.0 if k else 0.0) + s * min(max(k - 1, 0), 3)
        for t in (0.2, 0.5, 2.0):
            assert v.count_ge(t) == (2.0 >= t) + 3 * (s >= t)


def test_head_tail_rejects_tail_above_head():
    with pytest.raises(ValueError):
        HeadTailModel(head=(1.0,), tail_count=1, dist=Uniform(0.0, 2.0))


def test_lower_bound_market_shape():
    mkt = lower_bound_market(10)
    assert mkt.m == 10 and mkt.n == 3
    a, b, c = mkt.agents
    assert a.head == (2.0,) and a.tail_count == 1
    assert b.head == (2.0,) and b.tail_count == 9
    assert not c.random and c.head == ()
    assert mkt.groups == ((0, 1, 2),)


def test_grouped_market_shape():
    mkt = grouped_market(100, 0.1)
    assert len(mkt.groups) == 10 and mkt.n == 30
    # group size 10: the bulk agent has 9 tail units
    assert mkt.agents[1].tail_count == 9
    with pytest.raises(ValueError):
        grouped_market(100, 0.35)  # ceil(1/gamma)=3 does not divide 100


def test_market_needs_units_and_agents():
    """Every expectation plays or scores one batch per agent, so a market
    without agents is rejected where it is built."""
    with pytest.raises(ValueError):
        MarketModel(m=0, agents=(HeadTailModel(),))
    with pytest.raises(ValueError):
        MarketModel(m=2, agents=())


def test_single_item_markets():
    assert posted_fails_market(0.01, 1000.0).m == 1
    assert symmetric_fpa_market(Uniform(0.0, 1.0)).m == 1


@given(st.integers(0, 9999))
@settings(max_examples=200, deadline=None)
def test_sampled_profiles_valid(seed):
    mkt = lower_bound_market(10)
    profile = sample_profile(mkt, seed)
    a, b, c = profile
    assert a.marginal(0) == 2.0 and 1.0 <= a.marginal(1) <= 1.5
    assert b.marginal(0) == 2.0
    z = b.marginal(1)
    assert 0.0 <= z <= 1.05
    assert all(b.marginal(j) == z for j in range(1, 10))
    assert c.value(10) == 0


def test_sample_profile_deterministic():
    mkt = lower_bound_market(10)
    p1 = sample_profile(mkt, 42)
    p2 = sample_profile(mkt, 42)
    assert [v.runs for v in p1] == [v.runs for v in p2]
