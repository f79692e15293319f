"""Sealed-bid primary mechanisms: uniform-price (optional reserve),
discriminatory, and single-item first-price and all-pay. (The posted primary
sale clears through the resale kernel's sale, `aftermarket._sell`.)
Next to the uniform-price, discriminatory and first-price clearings are
kernels (`uniform_price_deviations`, `discriminatory_units_won`,
`first_price_deviation_wins`) that clear one agent's many alternative bids
at once against fixed opponents. Both multi-unit kernels take the bids as
one run-encoded `BidBatch`, and the discriminatory one reads its units won
off the uniform one. Every clearing and kernel breaks ties one way: higher
bid first, then lower agent index, then lower unit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import Allocation, _ranked_runs
from .valuations import ValuationBatch, _merge_runs


class BidVector:
    """Non-increasing marginal bids for m units, run-length encoded; units
    beyond the explicit runs are implicit zero bids."""

    __slots__ = ("runs", "m")

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
        return sum(self.payments)


def _sorted_entries(bids: Sequence[BidVector], reserve: Optional[float]):
    """All marginal bid runs surviving the reserve as (bid, agent, start_unit,
    count), in the greedy order of `_ranked_runs` (bid desc, agent asc, unit
    asc). Every BidVector run is positive, so with no positive reserve all
    runs survive and each agent's implicit zeros follow, in agent order."""
    entries = _ranked_runs(bids)
    if reserve is not None and reserve > 0:
        return [e for e in entries if e[0] >= reserve]
    for i, bv in enumerate(bids):
        start = 0
        for _, c in bv.runs:
            start += c
        if bv.m > start:
            entries.append((0.0, i, start, bv.m - start))
    return entries


def _allocate(entries, m: int, n: int):
    """Greedy allocation of m units down the sorted entries; returns per-agent
    counts, per-agent sum of winning bids, and the (m+1)-th highest surviving
    marginal (0 when fewer than m+1 survive)."""
    counts = [0] * n
    bid_totals = [0.0] * n
    left = m
    next_losing = 0.0
    for b, i, _, c in entries:
        if left == 0:
            next_losing = b
            break
        take = min(c, left)
        counts[i] += take
        bid_totals[i] += b * take
        left -= take
        if left == 0 and take < c:
            next_losing = b
            break
    return counts, bid_totals, next_losing


def _check_reserve(reserve: Optional[float]) -> None:
    if reserve is not None and math.isnan(reserve):
        raise ValueError("reserve must not be NaN")


def uniform_price(bids: Sequence[BidVector], m: int,
                  reserve: Optional[float] = None) -> AuctionOutcome:
    """Marginal bids strictly below the reserve are removed; the m highest
    surviving marginals win; every winner pays
    max(reserve, highest surviving losing marginal) per unit. An infinite
    reserve sells nothing; a NaN reserve is rejected."""
    _check_reserve(reserve)
    counts, _, next_losing = _allocate(_sorted_entries(bids, reserve), m, len(bids))
    sold = sum(counts)
    price = next_losing
    if reserve is not None and sold > 0:
        price = max(price, reserve)
    payments = tuple(price * c for c in counts)
    return AuctionOutcome(Allocation(tuple(counts)), payments, clearing_price=price)


def discriminatory(bids: Sequence[BidVector], m: int) -> AuctionOutcome:
    """Same allocation as uniform_price without reserve; each winner pays the
    sum of her own winning marginal bids."""
    counts, bid_totals, _ = _allocate(_sorted_entries(bids, None), m, len(bids))
    return AuctionOutcome(Allocation(tuple(counts)), tuple(bid_totals))


def _ranked_ends(entries):
    """Bids and cumulative unit counts of ranked entries, with a 0 in front
    of the counts: `ends[j]` units rank above entry j."""
    bids = np.array([e[0] for e in entries], dtype=float)
    ends = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum([e[3] for e in entries], out=ends[1:])
    return bids, ends


class BidBatch:
    """Bid vectors as run arrays, for clearing one agent's alternative bids
    at once. Row j bids `run_bids[j, r]` on `run_counts[j, r]` units: its
    positive runs in order, then empty (0.0, 0) runs as padding; then come
    its `tail[j]` implicit zero bids. The constructor takes the rows as
    valid; `of` builds them from BidVectors, and `vector(j)` validates row j
    as it rebuilds it."""

    __slots__ = ("run_bids", "run_counts", "tail")

    def __init__(self, run_bids: np.ndarray, run_counts: np.ndarray,
                 tail: np.ndarray):
        self.run_bids = run_bids
        self.run_counts = run_counts
        self.tail = tail

    @classmethod
    def of(cls, bids: Sequence[BidVector]) -> "BidBatch":
        n_runs = max((len(bv.runs) for bv in bids), default=0)
        run_bids = np.zeros((len(bids), n_runs))
        run_counts = np.zeros((len(bids), n_runs), dtype=np.int64)
        for a, bv in enumerate(bids):
            for r, (b, c) in enumerate(bv.runs):
                run_bids[a, r] = b
                run_counts[a, r] = c
        units = np.array([bv.m for bv in bids], dtype=np.int64)
        return cls(run_bids, run_counts, units - run_counts.sum(axis=1))

    def __len__(self) -> int:
        return len(self.run_bids)

    def vector(self, j: int) -> BidVector:
        counts = self.run_counts[j].tolist()
        return BidVector.from_runs(tuple(zip(self.run_bids[j].tolist(), counts)),
                                   sum(counts) + int(self.tail[j]))


def _deviation_units(entries, agent: int, batch: BidBatch, m: int,
                     reserve: Optional[float]):
    """The runs of every row of `batch` against the opponents' ranked
    surviving `entries`, as uniform_price_deviations describes them: the
    run bids, with the implicit zeros as a last run at bid 0, the runs'
    first and end units (runs below a reserve are empty), and the units k
    each row wins."""
    ahead_bids, ahead_ends = _ranked_ends([e for e in entries if e[1] < agent])
    behind_bids, behind_ends = _ranked_ends([e for e in entries if e[1] > agent])
    run_bids = np.concatenate((batch.run_bids, np.zeros((len(batch), 1))), axis=1)
    run_counts = np.concatenate((batch.run_counts, batch.tail[:, None]), axis=1)
    if reserve is not None:
        run_counts[run_bids < reserve] = 0
    run_ends = np.cumsum(run_counts, axis=1)
    run_starts = run_ends - run_counts
    # bids are descending, so negate them for searchsorted
    above = (ahead_ends[np.searchsorted(-ahead_bids, -run_bids, side="right")]
             + behind_ends[np.searchsorted(-behind_bids, -run_bids, side="left")])
    # clip(m - above - s, 0, c); np.clip is slower on the small batches
    # of the smoothness checks
    k = np.minimum(np.maximum(m - above - run_starts, 0), run_counts).sum(axis=1)
    return run_bids, run_starts, run_ends, k


def uniform_price_deviations(bids: Sequence[BidVector], agent: int,
                             batch: BidBatch, m: int,
                             reserve: Optional[float] = None,
                             members: Sequence[int] = ()):
    """Units won by `agent`, the clearing price and the counts of `members`
    for every row of `batch`, the other bids fixed, as uniform_price()
    clears them.

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
    run_bids, run_starts, run_ends, k = _deviation_units(entries, agent, batch, m,
                                                         reserve)
    surviving = opp_ends[-1] + run_ends[:, -1]
    sold = np.minimum(m, surviving)
    # the (m+1)-th marginal: the agent's unit k or the opponents' unit m - k
    in_run = (run_starts <= k[:, None]) & (k[:, None] < run_ends)
    own_next = np.max(np.where(in_run, run_bids, -math.inf), axis=1)
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


def discriminatory_units_won(bids: Sequence[BidVector], agent: int,
                             batch: BidBatch, m: int):
    """Units won and payments of `agent` for every row of `batch`, the other
    bids fixed, as discriminatory() clears them. The discriminatory
    allocation is uniform_price()'s without a reserve, so the units won are
    the k of uniform_price_deviations; won units form a prefix, and the
    payment is the value of the first k units of the row's bids, added run
    by run as _allocate does.
    Returns two arrays: unit counts and payments."""
    entries = [e for e in _sorted_entries(bids, None) if e[1] != agent]
    *_, counts = _deviation_units(entries, agent, batch, m, None)
    return counts, ValuationBatch(batch.run_bids, batch.run_counts).value(counts)


def _first_price_winner(bids: Sequence[float], bidders: Sequence[int]) -> int:
    """The highest bid among `bidders` wins; ties go to the lowest index."""
    return min(bidders, key=lambda i: (-bids[i], i))


def first_price_deviation_wins(bids: Sequence[float], agent: int, deviations):
    """Whether `agent` wins the single item with each bid in the array
    `deviations`, the other bids fixed, under the rule of first_price_single:
    a deviation d wins iff d > B, or d == B and the agent's index is below
    the rival's, where the rival is the best other bidder (bid B). Returns
    (mask, rival); the rival wins whenever the agent loses, and is None when
    no one else bids."""
    d = np.asarray(deviations, dtype=float)
    others = [i for i in range(len(bids)) if i != agent]
    if not others:
        return np.ones(d.shape, dtype=bool), None
    rival = _first_price_winner(bids, others)
    b = bids[rival]
    return (d > b) | ((d == b) & (agent < rival)), rival


def first_price_single(bids: Sequence[float]) -> AuctionOutcome:
    """Single item: the highest bid wins, ties going to the lowest agent
    index (the one tie rule of every clearing here); the winner pays her
    bid."""
    if not all(0 <= b < math.inf for b in bids):
        raise ValueError("bids must be finite and nonnegative")
    winner = _first_price_winner(bids, range(len(bids)))
    counts = tuple(1 if i == winner else 0 for i in range(len(bids)))
    payments = tuple(bids[winner] if i == winner else 0.0 for i in range(len(bids)))
    return AuctionOutcome(Allocation(counts), payments)


def all_pay_single(bids: Sequence[float]) -> AuctionOutcome:
    """Single item: the winner of first_price_single wins; every agent pays
    her own bid."""
    return AuctionOutcome(first_price_single(bids).alloc, tuple(float(b) for b in bids))
