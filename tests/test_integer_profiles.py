"""Fraction profiles run in integers: every marginal times one common
denominator L (`allocation._scaled_runs`). The greedy optimum, the OPT curve,
the brute force and the balancedness margins are checked against the
Fraction code they replace, kept here as references, with `==` and the same
result type; float profiles are checked bit for bit (`float.hex`). Greedy and
brute force share the scaler, so the greedy-vs-brute check cannot catch a
scaling mistake: the scaler is checked on its own."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.allocation import (Allocation, _scaled_runs, brute_force_opt,
                                     opt_allocation, opt_welfares)
from aftermarkets.balanced import (BalancednessReport, check_balanced_conditions,
                                   realization_price)
from aftermarkets.valuations import MarginalValuation


# -- references: the Fraction arithmetic of the greedy, the curve, the brute
# force and the margins, as they were before the integer scaling -----------

def _reference_ranked(profile):
    entries = []
    for i, v in enumerate(profile):
        start = 0
        for val, cnt in v.runs:
            if val > 0:
                entries.append((val, i, start, cnt))
            start += cnt
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def reference_opt_allocation(profile, k):
    counts = [0] * len(profile)
    total = 0
    left = k
    for val, i, _, cnt in _reference_ranked(profile):
        if left == 0:
            break
        take = min(cnt, left)
        counts[i] += take
        total += val * take
        left -= take
        if take < cnt:
            break
    return Allocation(tuple(counts)), total


def reference_opt_welfares(profile, m):
    out = [0]
    total = 0
    for val, _, _, cnt in _reference_ranked(profile):
        for take in range(1, min(cnt, m + 1 - len(out)) + 1):
            out.append(total + val * take)
        if len(out) > m:
            break
        total += val * cnt
    out.extend([total] * (m + 1 - len(out)))
    return out


def reference_brute_force_opt(profile, k):
    caps = [min(k, v.n_explicit) for v in profile]
    prefix = [[v.value(q) for q in range(cap + 1)] for v, cap in zip(profile, caps)]
    best = 0

    def rec(i, left, acc):
        nonlocal best
        if i == len(prefix):
            if acc > best:
                best = acc
            return
        for q in range(min(caps[i], left) + 1):
            rec(i + 1, left - q, acc + prefix[i][q])

    rec(0, k, 0)
    return best


def reference_check_balanced_conditions(profile, m, price=None):
    opts = reference_opt_welfares(profile, m)
    if price is None:
        price = Fraction(opts[m], m) if isinstance(opts[m], int) else opts[m] / m
    cover = [k * price - (opts[m] - opts[m - k]) for k in range(m + 1)]
    left = [opts[m - k] - (m - k) * price for k in range(m + 1)]
    min_cover, min_left = min(cover), min(left)
    return BalancednessReport(min_cover >= 0 and min_left >= 0,
                              cover.index(min_cover), min_cover, min_left)


# -- strategies ------------------------------------------------------------

FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 24), st.integers(1, 9)),
    st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)))
FLOATS = st.one_of(st.sampled_from((0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0)),
                   st.floats(0.0, 5.0))


def profiles(values, max_agents=5, max_units=5):
    """0..max_agents agents, each with 0..max_units marginals (zeros too)."""
    agent = st.lists(values, max_size=max_units).map(
        lambda xs: MarginalValuation(sorted(xs, reverse=True)))
    return st.lists(agent, max_size=max_agents)


def same(a, b):
    """Equal and of one type; floats equal bit for bit."""
    if type(a) is not type(b):
        return False
    return float.hex(a) == float.hex(b) if isinstance(a, float) else a == b


def same_report(a, b):
    return (a.ok == b.ok and a.worst_k == b.worst_k
            and same(a.min_margin_cover, b.min_margin_cover)
            and same(a.min_margin_leftover, b.min_margin_leftover))


# -- the scaler ------------------------------------------------------------

@given(profiles(FRACTIONS))
@settings(max_examples=200, deadline=None)
def test_scaled_runs_divide_back_to_the_fractions(prof):
    runs, scale = _scaled_runs(prof)
    assert scale == math.lcm(*(val.denominator for v in prof for val, _ in v.runs))
    assert len(runs) == len(prof)
    for scaled, v in zip(runs, prof):
        assert len(scaled) == len(v.runs)
        for (x, c), (val, cnt) in zip(scaled, v.runs):
            assert type(x) is int and Fraction(x, scale) == val and c == cnt


@given(profiles(FLOATS))
@settings(max_examples=100, deadline=None)
def test_scaled_runs_leave_other_profiles_alone(prof):
    # one Fraction first, then the float values: the scan meets a float
    prof = [MarginalValuation([Fraction(7, 3)])] + prof + [MarginalValuation([1.0])]
    runs, scale = _scaled_runs(prof)
    assert scale is None
    assert all(r is v.runs for r, v in zip(runs, prof))


# -- the greedy optimum, the curve and the brute force ---------------------

@given(profiles(FRACTIONS), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_fraction_optimum_and_curve_equal_the_fraction_code(prof, m):
    alloc, opt = opt_allocation(prof, m)
    ref_alloc, ref_opt = reference_opt_allocation(prof, m)
    assert alloc == ref_alloc and same(opt, ref_opt)
    curve, ref_curve = opt_welfares(prof, m), reference_opt_welfares(prof, m)
    assert len(curve) == len(ref_curve)
    assert all(same(a, b) for a, b in zip(curve, ref_curve))
    if m:
        assert same(realization_price(prof, m), Fraction(ref_opt, m))


@given(profiles(FRACTIONS, max_agents=4, max_units=3), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_fraction_brute_force_equals_the_fraction_code(prof, k):
    assert same(brute_force_opt(prof, k), reference_brute_force_opt(prof, k))


@given(profiles(FLOATS), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_float_optimum_curve_and_brute_force_are_unchanged(prof, m):
    alloc, opt = opt_allocation(prof, m)
    ref_alloc, ref_opt = reference_opt_allocation(prof, m)
    assert alloc == ref_alloc and same(opt, ref_opt)
    assert all(same(a, b) for a, b in zip(opt_welfares(prof, m),
                                          reference_opt_welfares(prof, m)))
    small = prof[:4]
    k = min(m, 8)
    assert same(brute_force_opt(small, k), reference_brute_force_opt(small, k))


# -- the balancedness margins ----------------------------------------------

PRICES = st.one_of(st.none(), FRACTIONS, st.integers(0, 30), st.floats(0.0, 30.0))


@given(profiles(FRACTIONS), st.integers(1, 12), PRICES)
@settings(max_examples=300, deadline=None)
def test_fraction_margins_equal_the_fraction_code(prof, m, price):
    rep = check_balanced_conditions(prof, m, price)
    if isinstance(price, (int, float)):
        # an int or float price gave int or float margins where the profile
        # has no positive marginal (int) or always (float); on a Fraction
        # profile the price is now taken as a Fraction, so every margin is one
        ref = reference_check_balanced_conditions(prof, m, Fraction(price))
        assert type(rep.min_margin_cover) is type(rep.min_margin_leftover) is Fraction
        assert rep == ref
    else:
        assert same_report(rep, reference_check_balanced_conditions(prof, m, price))
    if price is None:
        assert rep.ok


def test_float_price_on_a_wide_common_denominator():
    """L of 60 six-digit primes is far beyond the float range, and the float
    price is taken at its exact value, so nothing overflows."""
    primes = [p for p in range(999_001, 1_000_000, 2)
              if all(p % d for d in range(3, 1000, 2))][:60]
    assert len(primes) == 60
    prof = [MarginalValuation([Fraction(1, p)]) for p in primes]
    rep = check_balanced_conditions(prof, 3, 0.25)
    assert rep == reference_check_balanced_conditions(prof, 3, Fraction(0.25))
    assert not rep.ok and rep.min_margin_leftover < 0


TIED = st.sampled_from((0.1, 0.2, 0.3, 1 / 3, 0.7, 1.1, 2.3))


@given(profiles(TIED, max_agents=6, max_units=6), st.integers(1, 12))
@settings(max_examples=500, deadline=None)
def test_float_realization_price_is_balanced_on_tied_marginals(prof, m):
    """Tied float marginals make the margins of an exactly balanced price
    round to about -1e-15; each is judged against 1e-12 * max(1, |OPT|)."""
    assert check_balanced_conditions(prof, m).ok
