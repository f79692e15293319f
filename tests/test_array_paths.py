"""The array paths of the distribution primitives and of the first-price
bisection agree exactly with their scalar results."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.distributions import (EqualRevenueCapped, PointMass, Uniform,
                                        _monotone_inverse,
                                        lower_bound_z_distribution,
                                        speculative_buyer_value_distribution)
from aftermarkets.equilibrium import symmetric_fpa_bid

distributions = st.one_of(
    st.builds(lambda lo, w: Uniform(lo, lo + w),
              st.floats(-10.0, 1e5), st.floats(1e-3, 100.0)),
    st.builds(EqualRevenueCapped, st.floats(1.01, 1e4)),
    st.builds(PointMass, st.floats(-10.0, 10.0)),
    st.builds(lower_bound_z_distribution, st.integers(4, 200)),
    st.builds(speculative_buyer_value_distribution,
              st.floats(0.01, 0.99), st.floats(1.01, 1e3)),
)
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
unit = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12)


def _points(dist, fracs):
    """Points spread over the support and one unit beyond either end."""
    lo, hi = dist.support
    return (lo - 1.0) + np.asarray(fracs) * (hi - lo + 2.0)


def _same(fn, xs):
    arr = fn(xs)
    ref = np.array([fn(float(x)) for x in xs])
    assert arr.shape == xs.shape
    assert np.array_equal(arr, ref)


@given(distributions, fractions)
@settings(max_examples=60, deadline=None)
def test_cdf_partial_mean_and_bid_arrays_match_scalars(dist, fracs):
    xs = _points(dist, fracs)
    lo, _ = dist.support
    _same(dist.cdf, xs)
    _same(lambda v: dist.partial_mean(lo, v), xs)
    _same(lambda v: symmetric_fpa_bid(dist, v), xs)


@given(distributions, unit)
@settings(max_examples=60, deadline=None)
def test_quantile_array_matches_scalars(dist, us):
    _same(dist.quantile, np.asarray(us))


def _scalar_inverse(fn, target, lo, hi):
    """Reference: the scalar 80-step bisection for sup{w: fn(w) < target}."""
    if fn(lo) >= target:
        return lo
    if fn(hi) < target:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(distributions, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_monotone_inverse_matches_scalar_bisection(dist, fracs):
    lo, hi = dist.support
    b_lo, b_hi = symmetric_fpa_bid(dist, np.array([lo, hi]))
    # targets from below b(lo) to above b(hi), so both early returns occur
    targets = (b_lo - 1.0) + np.asarray(fracs) * (b_hi - b_lo + 2.0)
    fn = lambda w: symmetric_fpa_bid(dist, w)
    got = _monotone_inverse(fn, targets, lo, hi)
    ref = [_scalar_inverse(fn, float(t), lo, hi) for t in targets]
    assert np.array_equal(got, ref)

