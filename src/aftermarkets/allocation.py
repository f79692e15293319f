"""Welfare accounting and the greedy optimal-allocation oracle for identical
units and non-increasing marginals, with an exhaustive cross-check. Profiles
whose marginals are all Fractions are optimized in integers: every value
times one common denominator (`_scaled_runs`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .distributions import _left_sum
from .valuations import MarginalValuation, ValuationBatch


@dataclass(frozen=True)
class Allocation:
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("unit counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __len__(self) -> int:
        return len(self.counts)


def welfare(profile: Sequence[MarginalValuation], alloc: Allocation):
    """Wel(v, x) = sum_i v_i(x_i) in agent order by `_left_sum` (exact on Fractions)."""
    if len(alloc) != len(profile):
        raise ValueError("allocation arity does not match profile")
    return _left_sum(v.value(x) for v, x in zip(profile, alloc.counts))


def _scaled_runs(profile: Sequence[MarginalValuation]):
    """(each agent's runs, L). When every marginal is a Fraction, each value
    times L = lcm of their denominators, as an int: a positive scale keeps
    the order and the ties of the values exactly. Otherwise the runs as they
    are and L = None; the scan stops at the first other value."""
    runs = [v.runs for v in profile]
    denominators = []
    for agent in runs:
        for val, _ in agent:
            if type(val) is not Fraction:
                return runs, None
            denominators.append(val.denominator)
    scale = math.lcm(*denominators)
    return [[(val.numerator * (scale // val.denominator), cnt) for val, cnt in agent]
            for agent in runs], scale


def _unscaled(total, scale):
    """A total of scaled runs in value units: a zero total stays the int 0."""
    return Fraction(total, scale) if scale and total else total


def _ranked_runs(runs: Sequence[Sequence[tuple]]) -> list[tuple]:
    """Every positive marginal run of each agent's (value, count) runs as
    (value, agent, start_unit, count), in greedy order: value desc, then
    (agent asc, unit asc). This is the one tie order of the package: the
    auctions rank BidVector runs (which have the same shape) with it too."""
    entries = []
    for i, agent in enumerate(runs):
        start = 0
        for val, cnt in agent:
            if val > 0:
                entries.append((val, i, start, cnt))
            start += cnt
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def _greedy(entries, k: int, n: int):
    """Walk ranked (value, agent, start_unit, count) entries down to k units:
    the per-agent counts of n agents, the welfare of the units taken (each
    entry's value times its units taken, added in rank order from 0) and the
    value of the (k+1)-th unit, 0.0 when none is left. The one greedy walk of the package: the
    optimum and the sealed-bid clearings take their units from it."""
    counts = [0] * n
    total = 0
    left = k
    for val, i, _, cnt in entries:
        if left == 0:
            return counts, total, val
        take = min(cnt, left)
        counts[i] += take
        total += val * take
        left -= take
        if take < cnt:
            return counts, total, val
    return counts, total, 0.0


def opt_allocation(profile: Sequence[MarginalValuation], k: int):
    """Greedy welfare maximum with at most k units: allocate the k globally
    largest positive marginals, ties broken by (agent asc, unit asc).

    Returns (Allocation, welfare). Zero-value marginals are never allocated
    (they cannot change the welfare).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    runs, scale = _scaled_runs(profile)
    counts, total, _ = _greedy(_ranked_runs(runs), k, len(profile))
    return Allocation(tuple(counts)), _unscaled(total, scale)


def opt_welfare_rows(values: Sequence[ValuationBatch], k: int) -> np.ndarray:
    """OPT(v; k) of every row of `values` (one batch per agent), equal to
    `opt_allocation(row profile, k)[1]` bit for bit. Each row's runs, agents
    in order, are ranked by one stable sort of their values, so equal values
    keep (agent asc, unit asc); each run takes what the runs before it
    leave of k, and the products are added left to right, as
    `opt_allocation` adds them. Runs worth 0 (the padding among them) and
    runs that take nothing add exact zeros."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    run_values = np.concatenate([v.run_values for v in values], axis=1)
    counts = np.concatenate([v.run_counts for v in values], axis=1)
    if not run_values.shape[1]:
        return np.zeros(len(run_values))
    order = np.argsort(-run_values, axis=1, kind="stable")
    run_values = np.take_along_axis(run_values, order, axis=1)
    counts = np.where(run_values > 0, np.take_along_axis(counts, order, axis=1), 0)
    take = np.clip(k - (np.cumsum(counts, axis=1) - counts), 0, counts)
    # a run that takes nothing adds 0.0, not inf * 0
    terms = np.where(take > 0, run_values, 0.0) * take
    return np.cumsum(terms, axis=1)[:, -1]


def opt_welfares(profile: Sequence[MarginalValuation], m: int) -> list:
    """[OPT(v; j) for j in 0..m] from one greedy pass. Each entry makes the
    additions of `opt_allocation(profile, j)` in the same order (whole runs
    as value * count, then value * take), in integers for a Fraction
    profile, so it equals that welfare exactly."""
    curve, scale = _scaled_welfares(profile, m)
    return [_unscaled(total, scale) for total in curve]


def _scaled_welfares(profile: Sequence[MarginalValuation], m: int):
    """(the curve of `opt_welfares` in units of 1/L, L) for the L of
    `_scaled_runs`: ints for a Fraction profile, and for any other profile
    the curve itself with L = None."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    runs, scale = _scaled_runs(profile)
    out = [0]
    total = 0
    for val, _, _, cnt in _ranked_runs(runs):
        for take in range(1, min(cnt, m + 1 - len(out)) + 1):
            out.append(total + val * take)
        if len(out) > m:
            break
        total += val * cnt
    out.extend([total] * (m + 1 - len(out)))
    return out, scale


def brute_force_opt(profile: Sequence[MarginalValuation], k: int,
                    guard: int = 10_000_000):
    """Exhaustive maximum of welfare over all feasible allocations of <= k
    units, independent of the greedy; in integers for a Fraction profile,
    each agent's value of q units added as `MarginalValuation.value` adds
    it. Guarded against huge instances."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    caps = [min(k, v.n_explicit) for v in profile]
    if _feasible_count(caps, k) > guard:
        raise ValueError("instance too large for exhaustive enumeration")
    runs, scale = _scaled_runs(profile)
    prefix = []
    for agent, cap in zip(runs, caps):
        row = [0]
        total = 0
        for val, cnt in agent:
            for take in range(1, min(cnt, cap + 1 - len(row)) + 1):
                row.append(total + val * take)
            total += val * cnt
        prefix.append(row)

    best = 0

    def rec(i: int, left: int, acc):
        nonlocal best
        if i == len(prefix):
            if acc > best:
                best = acc
            return
        row = prefix[i]
        for q in range(min(caps[i], left) + 1):
            rec(i + 1, left - q, acc + row[q])

    rec(0, k, 0)
    return _unscaled(best, scale)


def _feasible_count(caps: list[int], k: int) -> int:
    """Exact number of integer vectors with 0 <= x_i <= cap_i and sum <= k."""
    dp = [1] + [0] * k
    for cap in caps:
        new = [0] * (k + 1)
        run = 0
        for s in range(k + 1):
            run += dp[s]
            if s - cap - 1 >= 0:
                run -= dp[s - cap - 1]
            new[s] = run
        dp = new
    return sum(dp)
