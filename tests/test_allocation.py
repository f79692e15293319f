import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.allocation import (Allocation, brute_force_opt,
                                     opt_allocation, opt_welfares, welfare)
from aftermarkets.balanced import realization_price
from aftermarkets.valuations import MarginalValuation


def random_profile(rng, n_max=4, runs_max=3):
    profile = []
    for _ in range(rng.randint(1, n_max)):
        k = rng.randint(0, runs_max)
        vals = sorted((round(rng.uniform(0, 5), 3) for _ in range(k)), reverse=True)
        profile.append(MarginalValuation(vals))
    return profile


def test_welfare_simple():
    prof = [MarginalValuation([3.0, 1.0]), MarginalValuation([2.0])]
    assert welfare(prof, Allocation((2, 1))) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        welfare(prof, Allocation((1,)))


def test_opt_allocation_takes_largest_marginals():
    prof = [MarginalValuation([3.0, 1.0]), MarginalValuation([2.0, 2.0])]
    alloc, opt = opt_allocation(prof, 3)
    assert opt == pytest.approx(7.0)
    assert alloc.counts == (1, 2)


def test_opt_matches_brute_force_randomized():
    rng = random.Random(123)
    for _ in range(1000):
        prof = random_profile(rng)
        m = rng.randint(1, 10)
        _, greedy = opt_allocation(prof, m)
        exact = brute_force_opt(prof, m)
        assert greedy == pytest.approx(exact, abs=1e-12)


def test_opt_concave_in_units():
    rng = random.Random(7)
    for _ in range(100):
        prof = random_profile(rng)
        vals = [opt_allocation(prof, k)[1] for k in range(8)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
        assert all(d >= -1e-12 for d in diffs)


@given(st.integers(0, 10_000), st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_feasible_welfare_below_opt(seed, m):
    rng = random.Random(seed)
    prof = random_profile(rng)
    _, opt = opt_allocation(prof, m)
    counts = [0] * len(prof)
    left = m
    for i in range(len(prof)):
        take = rng.randint(0, left)
        counts[i] = take
        left -= take
    assert welfare(prof, Allocation(tuple(counts))) <= opt + 1e-12


def test_exact_fraction_arithmetic():
    prof = [MarginalValuation([Fraction(5, 3), Fraction(1, 3)]),
            MarginalValuation([Fraction(3, 2)])]
    _, opt = opt_allocation(prof, 2)
    assert opt == Fraction(5, 3) + Fraction(3, 2)
    assert realization_price(prof, 2) == (Fraction(5, 3) + Fraction(3, 2)) / 2


FRACTIONS = st.builds(Fraction, st.integers(0, 24), st.integers(1, 9))
FLOATS = st.one_of(st.sampled_from((0.0, 0.1, 0.3, 1.0)), st.floats(0.0, 5.0))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_opt_welfares_equal_opt_allocation_exactly(data):
    values = data.draw(st.sampled_from((FRACTIONS, FLOATS)))
    prof = [MarginalValuation(sorted(data.draw(st.lists(values, max_size=5)),
                                     reverse=True))
            for _ in range(data.draw(st.integers(0, 5)))]
    m = data.draw(st.integers(0, 12))
    opts = opt_welfares(prof, m)
    assert len(opts) == m + 1
    for j, opt in enumerate(opts):
        ref = opt_allocation(prof, j)[1]
        assert opt == ref and type(opt) is type(ref)


def test_brute_force_guard():
    prof = [MarginalValuation([1.0] * 40) for _ in range(8)]
    with pytest.raises(ValueError):
        brute_force_opt(prof, 40, guard=1000)
