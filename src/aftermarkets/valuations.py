"""Agent valuations (non-increasing marginals, run-length encoded), valuation
models driven by one scalar draw, the market presets used throughout, and the
two rules by which every expectation over valuations draws them: Monte Carlo
rows (`draw_values`) and tensor quadrature cells (`cell_profiles`)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .distributions import (UnitDistribution, Uniform,
                            lower_bound_z_distribution,
                            speculative_buyer_value_distribution)


def _merge_runs(runs: Sequence[tuple]) -> list[tuple]:
    """Validated (value, count) runs: nonnegative counts and values, values
    non-increasing, zero counts skipped and equal neighbours merged."""
    merged = []
    for v, c in runs:
        if c < 0:
            raise ValueError("run count must be nonnegative")
        if c == 0:
            continue
        if not v >= 0:  # negative or NaN
            raise ValueError("marginal values must be nonnegative")
        if merged:
            last, count = merged[-1]
            if v > last:
                raise ValueError("marginals must be non-increasing")
            if v == last:
                merged[-1] = (v, count + c)
                continue
        merged.append((v, c))
    return merged


class MarginalValuation:
    """Non-increasing per-unit marginal values, stored as (value, count) runs.

    Units beyond the explicit runs have marginal value 0. Values may be any
    ordered numeric type (floats for simulation, Fractions for the exact
    pricing checks).
    """

    __slots__ = ("runs",)

    def __init__(self, marginals: Sequence):
        self.runs = self.from_runs([(v, 1) for v in marginals]).runs

    @classmethod
    def from_runs(cls, runs: Sequence[tuple]) -> "MarginalValuation":
        obj = cls.__new__(cls)
        obj.runs = tuple(_merge_runs(runs))
        return obj

    @property
    def n_explicit(self) -> int:
        return sum(c for _, c in self.runs)

    def value(self, k: int):
        """Total value of holding k units (marginals beyond the runs are 0)."""
        if k < 0:
            raise ValueError("unit count must be nonnegative")
        total, left = 0, k
        for v, c in self.runs:
            take = min(c, left)
            total += v * take
            left -= take
            if left == 0:
                break
        return total

    def marginal(self, j: int):
        """Marginal value of the (j+1)-th unit (0-indexed)."""
        seen = 0
        for v, c in self.runs:
            if j < seen + c:
                return v
            seen += c
        return 0

    def count_ge(self, threshold) -> int:
        """Number of explicit marginals >= threshold."""
        return sum(c for v, c in self.runs if v >= threshold)

    def marginals_list(self, m: Optional[int] = None) -> list:
        out = []
        for v, c in self.runs:
            out.extend([v] * c)
        if m is not None:
            if len(out) > m:
                raise ValueError("more explicit marginals than m")
            out.extend([0] * (m - len(out)))
        return out

    def __eq__(self, other):
        return isinstance(other, MarginalValuation) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return f"MarginalValuation(runs={self.runs})"


ZERO_VALUATION = MarginalValuation.from_runs(())


@dataclass(frozen=True)
class HeadTailModel:
    """Valuation model: fixed head marginals, then `tail_count` units all equal
    to one scalar drawn from `dist` (head and tail empty => zero valuation).

    Covers every preset agent: head (2,) + one random unit; head (2,) + m-1
    random units; pure speculator (empty); single random unit.
    """

    head: tuple = ()
    tail_count: int = 0
    dist: Optional[UnitDistribution] = None

    def __post_init__(self):
        for a, b in zip(self.head, self.head[1:]):
            if b > a:
                raise ValueError("head marginals must be non-increasing")
        if self.tail_count > 0 and self.dist is None:
            raise ValueError("tail requires a distribution")
        if self.head and self.dist is not None and self.tail_count > 0:
            if self.dist.support[1] > self.head[-1]:
                raise ValueError("tail support must not exceed last head marginal")

    @property
    def random(self) -> bool:
        return self.dist is not None and self.tail_count > 0

    def realize(self, scalar=None) -> MarginalValuation:
        runs = [(v, 1) for v in self.head]
        if self.tail_count > 0:
            if scalar is None:
                raise ValueError("model requires a scalar draw")
            runs.append((scalar, self.tail_count))
        return MarginalValuation.from_runs(runs)


@dataclass(frozen=True)
class MarketModel:
    """m identical units and one valuation model per agent, drawn independently."""

    m: int
    agents: tuple[HeadTailModel, ...]
    name: str = "custom"
    groups: tuple[tuple[int, int, int], ...] = ()  # (regular, bulk, speculator) triples

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")

    @property
    def n(self) -> int:
        return len(self.agents)

    def random_dims(self) -> list[int]:
        return [i for i, a in enumerate(self.agents) if a.random]


def lower_bound_market(m: int) -> MarketModel:
    """Three agents: A = (2, a2~U[1,1.5]); B = (2, z,...,z) with z from the
    heavy-tailed piecewise CDF; C = speculator with zero value."""
    if m <= 3:
        raise ValueError("requires m > 3")
    a = HeadTailModel(head=(2.0,), tail_count=1, dist=Uniform(1.0, 1.5))
    b = HeadTailModel(head=(2.0,), tail_count=m - 1, dist=lower_bound_z_distribution(m))
    c = HeadTailModel()
    return MarketModel(m=m, agents=(a, b, c), name="lower_bound",
                       groups=((0, 1, 2),))


def grouped_market(m: int, gamma: float) -> MarketModel:
    """k = ceil(1/gamma) independent copies of the three-agent group sharing one
    auction; each group's bulk distribution uses the group size r = m/k."""
    import math
    k = math.ceil(1.0 / gamma)
    if m % k != 0:
        raise ValueError("m must be divisible by ceil(1/gamma)")
    r = m // k
    if r <= 3:
        raise ValueError("requires m/k > 3")
    agents, groups = [], []
    zdist = lower_bound_z_distribution(r)
    for g in range(k):
        base = 3 * g
        agents.append(HeadTailModel(head=(2.0,), tail_count=1, dist=Uniform(1.0, 1.5)))
        agents.append(HeadTailModel(head=(2.0,), tail_count=r - 1, dist=zdist))
        agents.append(HeadTailModel())
        groups.append((base, base + 1, base + 2))
    return MarketModel(m=m, agents=tuple(agents), name="grouped",
                       groups=tuple(groups))


def posted_fails_market(eps: float, H: float) -> MarketModel:
    """Single item; buyer 1 ~ U[0,1]; buyer 2 is 0 w.p. 1-eps else z/eps with z
    equal-revenue capped at H."""
    b1 = HeadTailModel(tail_count=1, dist=Uniform(0.0, 1.0))
    b2 = HeadTailModel(tail_count=1, dist=speculative_buyer_value_distribution(eps, H))
    return MarketModel(m=1, agents=(b1, b2), name="posted_fails")


def symmetric_fpa_market(dist: UnitDistribution) -> MarketModel:
    """Two i.i.d. single-item buyers."""
    buyer = HeadTailModel(tail_count=1, dist=dist)
    return MarketModel(m=1, agents=(buyer, buyer), name="symmetric_fpa")


def draw_values(model: MarketModel, n: int, seed: int) -> np.ndarray:
    """The (n x random agents) Monte Carlo draws of `model`: row j is draw j,
    one uniform per random agent in agent order from one `default_rng(seed)`
    stream, mapped through that agent's quantile."""
    dims = model.random_dims()
    draws = np.random.default_rng(seed).random((n, len(dims)))
    for k, i in enumerate(dims):
        draws[:, k] = model.agents[i].dist.quantile(draws[:, k])
    return draws


def _realizer(models: Sequence[HeadTailModel]):
    """The map from one scalar per random model, in model order, to the
    profile of `models`; the non-random models are realized once, here."""
    fixed = [None if a.random else a.realize() for a in models]
    dims = [i for i, a in enumerate(models) if a.random]

    def realize(scalars) -> list[MarginalValuation]:
        profile = list(fixed)
        for i, x in zip(dims, scalars):
            profile[i] = models[i].realize(x)
        return profile
    return realize


def sample_profile(model: MarketModel, seed: int) -> list[MarginalValuation]:
    """The first profile of the Monte Carlo stream `draw_values(model, ., seed)`."""
    return _realizer(model.agents)(draw_values(model, 1, seed)[0].tolist())


def cell_profiles(models: Sequence[HeadTailModel], cells: Sequence[tuple]):
    """Yield (profile, weight) for every cell of the tensor product of the
    random models' `(nodes, weights)` pairs, `cells` holding one pair per
    random model in model order. A cell's weight is the product of its
    nodes' weights, multiplied in model order from 1.0."""
    realize = _realizer(models)
    axes = [zip(nodes.tolist(), weights.tolist()) for nodes, weights in cells]
    for cell in product(*axes):
        weight = 1.0
        for _, w in cell:
            weight *= w
        yield realize([x for x, _ in cell]), weight
