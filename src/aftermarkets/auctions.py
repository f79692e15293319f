"""Primary mechanisms: uniform-price (optional reserve), discriminatory,
single-item first-price and all-pay, and the sequential posted-price sale."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .allocation import Allocation
from .valuations import MarginalValuation


class BidVector:
    """Non-increasing marginal bids for m units, run-length encoded; units
    beyond the explicit runs are implicit zero bids."""

    __slots__ = ("runs", "m")

    def __init__(self, marginals: Sequence[float], m: Optional[int] = None):
        runs = []
        prev = None
        for b in marginals:
            if not 0.0 <= b < math.inf:
                raise ValueError("bids must be finite and nonnegative")
            if prev is not None and b > prev:
                raise ValueError("marginal bids must be non-increasing")
            if runs and runs[-1][0] == b:
                runs[-1][1] += 1
            else:
                runs.append([b, 1])
            prev = b
        total = sum(c for _, c in runs)
        self.m = total if m is None else m
        if total > self.m:
            raise ValueError("more bids than units")
        self.runs = tuple((b, c) for b, c in runs if b > 0)

    @classmethod
    def flat(cls, level: float, count: int, m: int) -> "BidVector":
        return cls.from_runs([(level, count)], m)

    @classmethod
    def from_runs(cls, runs: Sequence[tuple[float, int]], m: int) -> "BidVector":
        obj = cls.__new__(cls)
        merged = []
        prev = None
        total = 0
        for b, c in runs:
            if c < 0 or not 0.0 <= b < math.inf:
                raise ValueError("invalid bid run")
            if c == 0:
                continue
            if prev is not None and b > prev:
                raise ValueError("marginal bids must be non-increasing")
            prev = b
            total += c
            if b > 0:
                if merged and merged[-1][0] == b:
                    merged[-1] = (b, merged[-1][1] + c)
                else:
                    merged.append((b, c))
        if total > m:
            raise ValueError("more bids than units")
        obj.runs = tuple(merged)
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
    winning_bid_totals: tuple[float, ...] = ()

    @property
    def revenue(self) -> float:
        return sum(self.payments)


def _tiebreak_priorities(tiebreak: Sequence[int], n: int) -> list[int]:
    """Per-agent tie priorities (lower wins); `tiebreak` must be a permutation
    of range(n)."""
    prio = list(tiebreak)
    if sorted(prio) != list(range(n)):
        raise ValueError("tiebreak must be a permutation of range(n)")
    return prio


def _sorted_entries(bids: Sequence[BidVector], m: int, reserve: Optional[float],
                    tiebreak: Optional[Sequence[int]]):
    """All marginal bid entries surviving the reserve, sorted by
    (bid desc, agent priority asc, unit asc). Implicit zeros included when no
    reserve filters them."""
    prio = (list(range(len(bids))) if tiebreak is None
            else _tiebreak_priorities(tiebreak, len(bids)))
    entries = []
    for i, bv in enumerate(bids):
        start = 0
        for b, c in bv.runs:
            if reserve is None or b >= reserve:
                entries.append((b, prio[i], i, start, c))
            start += c
        zeros = bv.m - start
        if zeros > 0 and (reserve is None or reserve <= 0):
            entries.append((0.0, prio[i], i, start, zeros))
    entries.sort(key=lambda e: (-e[0], e[1], e[3]))
    return entries


def _allocate(entries, m: int, n: int):
    """Greedy allocation of m units down the sorted entries; returns per-agent
    counts, per-agent sum of winning bids, and the (m+1)-th highest surviving
    marginal (0 when fewer than m+1 survive)."""
    counts = [0] * n
    bid_totals = [0.0] * n
    left = m
    next_losing = 0.0
    for b, _, i, _, c in entries:
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


def uniform_price(bids: Sequence[BidVector], m: int,
                  reserve: Optional[float] = None,
                  tiebreak: Optional[Sequence[int]] = None) -> AuctionOutcome:
    """Marginal bids strictly below the reserve are removed; the m highest
    surviving marginals win; every winner pays
    max(reserve, highest surviving losing marginal) per unit."""
    entries = _sorted_entries(bids, m, reserve, tiebreak)
    counts, bid_totals, next_losing = _allocate(entries, m, len(bids))
    sold = sum(counts)
    price = next_losing
    if reserve is not None and sold > 0:
        price = max(price, reserve)
    payments = tuple(price * c for c in counts)
    return AuctionOutcome(Allocation(tuple(counts)), payments, clearing_price=price,
                          winning_bid_totals=tuple(bid_totals))


def discriminatory(bids: Sequence[BidVector], m: int,
                   tiebreak: Optional[Sequence[int]] = None) -> AuctionOutcome:
    """Same allocation as uniform_price without reserve; each winner pays the
    sum of her own winning marginal bids."""
    entries = _sorted_entries(bids, m, None, tiebreak)
    counts, bid_totals, _ = _allocate(entries, m, len(bids))
    return AuctionOutcome(Allocation(tuple(counts)), tuple(bid_totals),
                          clearing_price=None,
                          winning_bid_totals=tuple(bid_totals))


def first_price_single(bids: Sequence[float],
                       tiebreak: Optional[Sequence[int]] = None) -> AuctionOutcome:
    """Single item: highest bid wins (ties to lowest priority index), winner
    pays her bid."""
    prio = (list(range(len(bids))) if tiebreak is None
            else _tiebreak_priorities(tiebreak, len(bids)))
    winner = min(range(len(bids)), key=lambda i: (-bids[i], prio[i]))
    counts = tuple(1 if i == winner else 0 for i in range(len(bids)))
    payments = tuple(bids[winner] if i == winner else 0.0 for i in range(len(bids)))
    return AuctionOutcome(Allocation(counts), payments)


def all_pay_single(bids: Sequence[float],
                   tiebreak: Optional[Sequence[int]] = None) -> AuctionOutcome:
    """Single item: highest bid wins; every agent pays her own bid."""
    prio = (list(range(len(bids))) if tiebreak is None
            else _tiebreak_priorities(tiebreak, len(bids)))
    winner = min(range(len(bids)), key=lambda i: (-bids[i], prio[i]))
    counts = tuple(1 if i == winner else 0 for i in range(len(bids)))
    return AuctionOutcome(Allocation(counts), tuple(float(b) for b in bids))


def posted_price_sell(unit_price: float, order: Sequence[int],
                      valuations: Sequence[MarginalValuation], m: int,
                      quantities: Optional[Sequence[Optional[int]]] = None) -> AuctionOutcome:
    """Sequential posted-price sale: buyers visit in `order`; each buys units
    while the marginal value is >= the price (indifference buys), capped by
    remaining supply. `quantities` optionally overrides a buyer's demand
    (strategic purchases, e.g. speculation)."""
    if unit_price < 0:
        raise ValueError("price must be nonnegative")
    n = len(valuations)
    counts = [0] * n
    payments = [0.0] * n
    left = m
    for i in order:
        if left == 0:
            break
        want = valuations[i].count_ge(unit_price)
        if quantities is not None and quantities[i] is not None:
            want = quantities[i]
        q = min(want, left)
        counts[i] = q
        payments[i] = q * unit_price
        left -= q
    return AuctionOutcome(Allocation(tuple(counts)), tuple(payments),
                          clearing_price=unit_price)
