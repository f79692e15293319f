"""Agent valuations (non-increasing marginals, run-length encoded), valuation
models driven by one scalar draw, run batches of valuations for array-valued
play, the market presets used throughout, and the two rules by which every
expectation over valuations draws them: Monte Carlo rows (`draw_values`) and
tensor quadrature cells (`cell_nodes`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def __eq__(self, other):
        return isinstance(other, MarginalValuation) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return f"MarginalValuation(runs={self.runs})"


ZERO_VALUATION = MarginalValuation.from_runs(())


class ValuationBatch:
    """Valuations as run arrays, the valuation twin of `BidBatch`. Row j has
    marginal value `run_values[j, r]` on `run_counts[j, r]` units: its runs in
    order, then empty (0.0, 0) runs as padding; units beyond them are worth
    0. The constructor takes the rows as valid; `of` builds them from
    MarginalValuations, `HeadTailModel.batch` from a column of scalar draws,
    and `valuation(j)` rebuilds row j."""

    __slots__ = ("run_values", "run_counts")

    def __init__(self, run_values: np.ndarray, run_counts: np.ndarray):
        self.run_values = run_values
        self.run_counts = run_counts

    @classmethod
    def of(cls, valuations: Sequence[MarginalValuation]) -> "ValuationBatch":
        n_runs = max((len(v.runs) for v in valuations), default=0)
        run_values = np.zeros((len(valuations), n_runs))
        run_counts = np.zeros((len(valuations), n_runs), dtype=np.int64)
        for j, v in enumerate(valuations):
            for r, (x, c) in enumerate(v.runs):
                run_values[j, r] = x
                run_counts[j, r] = c
        return cls(run_values, run_counts)

    @classmethod
    def concat(cls, batches: Sequence["ValuationBatch"]) -> "ValuationBatch":
        """The rows of `batches` in order; they must have as many runs."""
        if len(batches) == 1:
            return batches[0]
        return cls(np.concatenate([b.run_values for b in batches]),
                   np.concatenate([b.run_counts for b in batches]))

    def __len__(self) -> int:
        return len(self.run_values)

    def take(self, rows: np.ndarray) -> "ValuationBatch":
        return ValuationBatch(self.run_values[rows], self.run_counts[rows])

    def valuation(self, j: int) -> MarginalValuation:
        return MarginalValuation.from_runs(tuple(zip(self.run_values[j].tolist(),
                                                     self.run_counts[j].tolist())))

    def count_ge(self, cut) -> np.ndarray:
        """Per row, the number of explicit marginals >= `cut`, a scalar or
        an array of one cut per row."""
        if isinstance(cut, np.ndarray):
            cut = cut[:, None]
        return np.where(self.run_values >= cut, self.run_counts, 0).sum(axis=1)

    def value(self, k: np.ndarray) -> np.ndarray:
        """Per row j, the total value of holding k[j] >= 0 units, added up
        run by run as MarginalValuation.value adds it, so bit for bit equal."""
        n_runs = self.run_values.shape[1]
        if not n_runs:
            return np.zeros(len(self))
        left = np.asarray(k, dtype=np.int64)
        for r in range(n_runs):
            take = np.minimum(self.run_counts[:, r], left)
            # 0 + x is x: the first run's product starts the running total
            part = self.run_values[:, r] * take
            total = part if r == 0 else total + part
            if r + 1 < n_runs:
                left = left - take
        return total


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

    def batch(self, scalars: np.ndarray) -> ValuationBatch:
        """[realize(x) for x in scalars] as one batch, built from the runs
        `realize` gives the smallest and the largest draw: it checks their
        range, and merges a tail equal to the last head marginal into that
        run, which only the largest draw can reach. The draws equal to the
        largest take its runs; every other draw takes the smallest draw's
        runs with its own value on the tail run. A model without a random
        tail repeats its one valuation."""
        x = np.asarray(scalars, dtype=float)
        if self.random and len(x):
            low, high = np.minimum.reduce(x), np.maximum.reduce(x)
            runs, top_runs = self.realize(float(low)).runs, self.realize(float(high)).runs
        else:
            runs = top_runs = self.realize(0.0 if self.random else None).runs
        run_values = np.empty((len(x), len(runs)))
        run_counts = np.empty((len(x), len(runs)), dtype=np.int64)
        run_values[:], run_counts[:] = zip(*runs) if runs else ((), ())
        if self.random:
            run_values[:, -1] = x
        if len(top_runs) < len(runs):  # the largest draws' tail was merged
            top = x == high
            run_values[top], run_counts[top] = zip(*top_runs, (0.0, 0))
        return ValuationBatch(run_values, run_counts)


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
        if not self.agents:
            raise ValueError("a market needs at least one agent")

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


def sample_profile(model: MarketModel, seed: int) -> list[MarginalValuation]:
    """The first profile of the Monte Carlo stream `draw_values(model, ., seed)`."""
    return [v.valuation(0) for v in realize_batch(model.agents,
                                                   draw_values(model, 1, seed))]


def realize_batch(models: Sequence[HeadTailModel],
                  scalars: np.ndarray) -> list[ValuationBatch]:
    """The profiles of `models` at every row of `scalars` (rows x random
    models, in model order), as one `HeadTailModel.batch` per model; row j
    of agent i is `models[i].realize` of its scalar, `valuation(j)` away."""
    columns = iter(np.asarray(scalars, dtype=float).T)
    rows = np.zeros(len(scalars))
    return [a.batch(next(columns) if a.random else rows) for a in models]


def cell_nodes(cells: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The tensor product of the random models' `(nodes, weights)` pairs,
    `cells` holding one pair per random model in model order, the first
    model varying slowest: a (cells x random models) array of nodes and
    each cell's weight, the product of its nodes' weights multiplied in
    model order from 1.0."""
    n_cells = math.prod(len(w) for _, w in cells)
    scalars, weights = np.empty((n_cells, len(cells))), np.ones(n_cells)
    inner = n_cells
    for col, (nodes, w) in enumerate(cells if n_cells else ()):
        inner //= len(w)  # cells per node of this model
        at = np.arange(n_cells) // inner % len(w)
        scalars[:, col] = nodes[at]
        # 1.0 * w is w: the first model's weights start the product
        weights = w[at] if col == 0 else weights * w[at]
    return scalars, weights
