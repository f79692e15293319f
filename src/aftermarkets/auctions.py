"""Sealed-bid primary mechanisms on bid schedules: uniform-price (optional
reserve), discriminatory and all-pay. First price is the discriminatory
auction of one unit. (The posted primary sale clears through the resale
kernel's sale, `aftermarket._sell`.)
A bid is a marginal schedule plus a unit count: `BidVector` is a
`MarginalValuation` with `m`, and `BidBatch` a `ValuationBatch` with each
row's implicit zero bids, so pay-as-bid is the schedule's `value` of the
units won, in the discriminatory clearing and its kernel alike; all-pay
charges the `value` of all m units.
Every clearing takes its winners from the one greedy walk,
`allocation._greedy`. Next to the uniform-price and discriminatory clearings
are kernels (`uniform_price_deviations`, `discriminatory_units_won`) that
clear one agent's many alternative bids at once, the discriminatory one
against every profile of the opponents' action sets. Both take the bids as
one `BidBatch` and read the units won off one kernel, `_deviation_units`.
Every clearing and kernel breaks ties one way: higher bid first, then lower
agent index, then lower unit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import Allocation, _greedy, _ranked_runs
from .distributions import _left_sum
from .valuations import MarginalValuation, ValuationBatch, _merge_runs


class BidVector(MarginalValuation):
    """Non-increasing marginal bids for m units: a marginal schedule whose
    runs are all positive and cover at most m units; units beyond the
    explicit runs are implicit zero bids. `value(k)` is what k won units
    cost under pay-as-bid. A BidVector never equals a MarginalValuation."""

    __slots__ = ("m",)

    def __init__(self, marginals: Sequence[float], m: Optional[int] = None):
        runs = [(b, 1) for b in marginals]
        obj = self.from_runs(runs, len(runs) if m is None else m)
        self.runs, self.m = obj.runs, obj.m

    @classmethod
    def flat(cls, level: float, count: int, m: int) -> "BidVector":
        return cls.from_runs([(level, count)], m)

    @classmethod
    def from_runs(cls, runs: Sequence[tuple[float, int]], m: int) -> "BidVector":
        total = 0
        positive = []
        for b, c in _merge_runs(runs):
            if b == math.inf:  # NaN and negatives are already rejected
                raise ValueError("bids must be finite and nonnegative")
            total += c
            if b > 0:
                positive.append((b, c))
        if total > m:
            raise ValueError("more bids than units")
        obj = cls.__new__(cls)
        obj.runs = tuple(positive)
        obj.m = m
        return obj

    def __eq__(self, other):
        return isinstance(other, BidVector) and (self.runs, self.m) == (other.runs, other.m)

    def __hash__(self):
        return hash((self.runs, self.m))

    def __repr__(self):
        return f"BidVector(runs={self.runs}, m={self.m})"


@dataclass(frozen=True)
class AuctionOutcome:
    alloc: Allocation
    payments: tuple[float, ...]
    clearing_price: Optional[float] = None

    @property
    def revenue(self) -> float:
        """The payments added in agent order by `_left_sum`."""
        return _left_sum(self.payments)


def _sorted_entries(bids: Sequence[BidVector], reserve: Optional[float]):
    """All marginal bid runs surviving the reserve as (bid, agent, start_unit,
    count), in the greedy order of `_ranked_runs` (bid desc, agent asc, unit
    asc). Every BidVector run is positive, so with no positive reserve all
    runs survive and each agent's implicit zeros follow, in agent order."""
    entries = _ranked_runs([bv.runs for bv in bids])
    if reserve is not None and reserve > 0:
        return [e for e in entries if e[0] >= reserve]
    for i, bv in enumerate(bids):
        start = bv.n_explicit
        if bv.m > start:
            entries.append((0.0, i, start, bv.m - start))
    return entries


def _check_reserve(reserve: Optional[float]) -> None:
    if reserve is not None and not reserve >= 0:
        raise ValueError(f"reserve must be nonnegative, not {reserve}")


def uniform_price(bids: Sequence[BidVector], m: int,
                  reserve: Optional[float] = None) -> AuctionOutcome:
    """Marginal bids strictly below the reserve are removed; the m highest
    surviving marginals win; every winner pays
    max(reserve, highest surviving losing marginal) per unit. An infinite
    reserve sells nothing; a negative or NaN reserve is rejected."""
    _check_reserve(reserve)
    counts, _, next_losing = _greedy(_sorted_entries(bids, reserve), m, len(bids))
    price = float(next_losing)  # a float, as every kind's payments are
    if reserve is not None and sum(counts) > 0:
        price = max(price, float(reserve))
    payments = tuple(price * c for c in counts)
    return AuctionOutcome(Allocation(tuple(counts)), payments, clearing_price=price)


def discriminatory(bids: Sequence[BidVector], m: int) -> AuctionOutcome:
    """Same allocation as uniform_price without reserve; each winner pays as
    bid: her bid schedule's value of the units she won."""
    counts, _, _ = _greedy(_sorted_entries(bids, None), m, len(bids))
    return AuctionOutcome(Allocation(tuple(counts)),
                          tuple(float(bv.value(k)) for bv, k in zip(bids, counts)))


def all_pay(bids: Sequence[BidVector], m: int) -> AuctionOutcome:
    """The discriminatory allocation; every agent pays its bid schedule's
    value of all m units, won or not: on one unit, its bid."""
    return AuctionOutcome(discriminatory(bids, m).alloc,
                          tuple(float(bv.value(m)) for bv in bids))


def _ranked_ends(entries):
    """Bids and cumulative unit counts of ranked entries, with a 0 in front
    of the counts: `ends[j]` units rank above entry j."""
    bids = np.array([e[0] for e in entries], dtype=float)
    ends = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum([e[3] for e in entries], out=ends[1:])
    return bids, ends


class BidBatch(ValuationBatch):
    """Bid vectors as run arrays, for clearing one agent's alternative bids
    at once: a ValuationBatch of the rows' positive runs plus `tail[j]`, the
    implicit zero bids of row j. The constructor takes the rows as valid;
    `of` builds them from BidVectors, and `vector(j)`, or `batch[j]`,
    validates row j as it rebuilds it."""

    __slots__ = ("tail",)

    def __init__(self, run_values: np.ndarray, run_counts: np.ndarray,
                 tail: np.ndarray):
        super().__init__(run_values, run_counts)
        self.tail = tail

    @classmethod
    def of(cls, bids: Sequence[BidVector]) -> "BidBatch":
        runs = ValuationBatch.of(bids)
        units = np.array([bv.m for bv in bids], dtype=np.int64)
        return cls(runs.run_values, runs.run_counts,
                   units - runs.run_counts.sum(axis=1))

    def vector(self, j: int) -> BidVector:
        counts = self.run_counts[j].tolist()
        return BidVector.from_runs(tuple(zip(self.run_values[j].tolist(), counts)),
                                   sum(counts) + int(self.tail[j]))

    __getitem__ = vector


def _product_columns(sets):
    """For each of `sets`, the position of its action in every profile of
    product(*sets), in product order: one int array per set."""
    total = math.prod(len(s) for s in sets)
    profiles, stride = np.arange(total), total
    for s in sets:
        stride //= max(len(s), 1)
        yield profiles // stride % max(len(s), 1)


def _units_above(bids, reserve: Optional[float], values: np.ndarray, side: str):
    """Units of the surviving runs of `bids` that rank above each of
    `values`: bid >= value with side "right" (lower indices, ahead at equal
    bids), bid > value with side "left"."""
    ranked, ends = _ranked_ends(_sorted_entries(bids, reserve))
    # bids are descending, so negate them for searchsorted
    return ends[np.searchsorted(-ranked, -values, side=side)]


def _deviation_units(sets, agent: int, batch: BidBatch, m: int,
                     reserve: Optional[float]):
    """The runs of every row of `batch` against every profile of the others'
    sets in `sets` (one set of BidVectors per agent, its own not read), as
    uniform_price_deviations describes them: the run bids, with the implicit
    zeros as a last run at bid 0, the runs' first and end units (runs below a
    reserve are empty), and the units k each row wins, an (opponents'
    profiles x rows) array in product order. The units above a run add up
    over opponents: those with one action are ranked together, as the
    clearing ranks them, and every action of the others on its own."""
    run_values = np.concatenate((batch.run_values, np.zeros((len(batch), 1))), axis=1)
    run_counts = np.concatenate((batch.run_counts, batch.tail[:, None]), axis=1)
    if reserve is not None:
        run_counts[run_values < reserve] = 0
    run_ends = np.cumsum(run_counts, axis=1)
    run_starts = run_ends - run_counts
    others = [s for j, s in enumerate(sets) if j != agent]
    above, varying = 0, []
    for side, group in (("right", others[:agent]), ("left", others[agent:])):
        above = above + _units_above([s[0] for s in group if len(s) == 1], reserve,
                                     run_values, side)
        varying += [np.array([_units_above([bv], reserve, run_values, side) for bv in s],
                             dtype=np.int64).reshape((len(s),) + run_values.shape)
                    for s in group if len(s) != 1]
    above = np.zeros((math.prod(len(s) for s in others),) + run_values.shape,
                     dtype=np.int64) + above
    for units, column in zip(varying, _product_columns([s for s in others if len(s) != 1])):
        above += units[column]
    # clip(m - above - s, 0, c); np.clip is slower on the small batches
    # of the smoothness checks
    k = np.minimum(np.maximum(m - above - run_starts, 0), run_counts).sum(axis=-1)
    return run_values, run_starts, run_ends, k


def uniform_price_deviations(bids: Sequence[BidVector], agent: int,
                             batch: BidBatch, m: int,
                             reserve: Optional[float] = None,
                             members: Sequence[int] = ()):
    """Units won by `agent`, the clearing price and the counts of `members`
    for every row of `batch`, the other bids fixed, as uniform_price()
    clears them. With no reserve this is the allocation of every sealed-bid
    kind: discriminatory, first price and all-pay clear as uniform price.

    The opponents' surviving runs are ranked once, by _sorted_entries. A run
    r of the agent (bid b, first unit s, c units; the implicit zeros are a
    run at bid 0 unless a positive reserve removes them) sees
    above = (opponent units bid >= b from lower indices) + (units bid > b
    from higher ones), and wins clip(m - above - s, 0, c) units; the agent
    wins k units in all. Of sold = min(m, surviving units) the opponents win
    the top sold - k of their own ranking. With more than m units surviving,
    the price is the (m+1)-th marginal: the larger of the agent's unit k and
    the opponents' unit m - k, whichever exists; otherwise 0. If anything
    sells it is raised to the reserve.
    Returns three arrays: units won, prices, and the counts of `members`
    (one column per member, in order)."""
    _check_reserve(reserve)
    entries = [e for e in _sorted_entries(bids, reserve) if e[1] != agent]
    opp_bids, opp_ends = _ranked_ends(entries)
    run_values, run_starts, run_ends, (k,) = _deviation_units(
        [(bv,) for bv in bids], agent, batch, m, reserve)
    surviving = opp_ends[-1] + run_ends[:, -1]
    sold = np.minimum(m, surviving)
    # the (m+1)-th marginal: the agent's unit k or the opponents' unit m - k
    in_run = (run_starts <= k[:, None]) & (k[:, None] < run_ends)
    own_next = np.max(np.where(in_run, run_values, -math.inf), axis=1)
    opp_next = np.append(opp_bids, -math.inf)[
        np.searchsorted(opp_ends[1:], m - k, side="right")]
    price = np.where(surviving > m, np.maximum(own_next, opp_next), 0.0)
    if reserve is not None:
        price = np.where((sold > 0) & (reserve > price), reserve, price)
    opp_won = sold - k
    counts = np.zeros((len(batch), len(members)), dtype=np.int64)
    for col, i in enumerate(members):
        if i == agent:
            counts[:, col] = k
            continue
        own = [j for j, e in enumerate(entries) if e[1] == i]
        starts = opp_ends[own]
        sizes = np.array([entries[j][3] for j in own], dtype=np.int64)
        counts[:, col] = np.clip(opp_won[:, None] - starts, 0, sizes).sum(axis=1)
    return k, price, counts


def discriminatory_units_won(sets, agent: int, batch: BidBatch, m: int):
    """Units won and payments of `agent` for every row of `batch` against
    every profile of the others' sets in `sets`, as discriminatory() clears
    them: two arrays shaped as `_deviation_units` shapes k. The
    discriminatory allocation is uniform_price()'s without a reserve, so the
    units won are that k; won units form a prefix, and the payment is the
    pay-as-bid `value(k)` of the row, bit for bit the one discriminatory()
    charges."""
    *_, counts = _deviation_units(sets, agent, batch, m, None)
    return counts, batch.value(counts)
