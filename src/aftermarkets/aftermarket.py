"""Post-auction trade: signaling, take-it-or-leave-it posted resale (global,
per-group, or winner-led) through `_sell`, the game's one posted sale (the
posted primary mechanism runs it too), and the trade-mechanism axioms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .allocation import Allocation
from .auctions import AuctionOutcome, BidVector
from .valuations import MarginalValuation, ValuationBatch


class SignalProtocol(Enum):
    PUBLIC_ALLOCATION_OWN_PAYMENT = "public_allocation_own_payment"
    PUBLIC_BIDS = "public_bids"


@dataclass(frozen=True)
class Observation:
    alloc: Allocation
    own_payment: float
    bids: Optional[tuple[BidVector, ...]] = None


def apply_signal(protocol: SignalProtocol, outcome: AuctionOutcome,
                 bids: Optional[Sequence[BidVector]] = None) -> list[Observation]:
    """Per-agent observation: the full allocation and own payment; PublicBids
    additionally reveals every bid vector."""
    extra = tuple(bids) if protocol is SignalProtocol.PUBLIC_BIDS else None
    return [Observation(outcome.alloc, outcome.payments[i], extra)
            for i in range(len(outcome.alloc))]


@dataclass(frozen=True, eq=False)
class TradeOutcome:
    """The resale of a batch of K value profiles among n agents: the final
    holdings (K x n integers) and the transfers (K x n, positive = pays)."""

    final_alloc: np.ndarray
    transfers: np.ndarray


NO_OFFER = math.inf


@dataclass(frozen=True)
class ThresholdBuyer:
    """Dominant resale policy: buy another unit while its marginal value is >=
    the posted price and the optional extra threshold (never NaN; NO_OFFER
    never buys). In a batch the threshold may be an array of one per row."""

    threshold: Optional[float] = None

    def __post_init__(self):
        t = self.threshold
        if t is not None and (np.isnan(t).any() if isinstance(t, np.ndarray)
                              else math.isnan(t)):
            raise ValueError("buyer threshold must not be NaN")

    def quantity(self, valuation: MarginalValuation, holding: int, price: float,
                 stock: int) -> int:
        return int(self.quantities(ValuationBatch.of([valuation]), np.array([holding]),
                                   price, np.array([stock]))[0])

    def quantities(self, valuations: ValuationBatch, holding, price,
                   stock) -> np.ndarray:
        """`quantity` for every row of `valuations`: the price is a float or
        an array of one per row, and the holding and stock have one entry per
        row."""
        cut = price if self.threshold is None else np.maximum(price, self.threshold)
        want = np.where(cut < math.inf, valuations.count_ge(cut) - holding, 0)
        return np.maximum(0, np.minimum(want, stock))


_TRUTHFUL_BUYER = ThresholdBuyer()


@dataclass(frozen=True)
class ResaleSpec:
    """Sellers and buyer visiting orders. `groups` partition the agents into
    (seller, ordered buyers) blocks; `winner_led=True` instead makes the agent
    holding the largest allocation the seller and everyone else a buyer in
    index order (single-item resale)."""

    groups: tuple[tuple[int, tuple[int, ...]], ...] = ()
    winner_led: bool = False

    @classmethod
    def single(cls, seller: int, buyers: Sequence[int]) -> "ResaleSpec":
        return cls(groups=((seller, tuple(buyers)),))

    @classmethod
    def winner_resale(cls) -> "ResaleSpec":
        return cls(winner_led=True)

    def resolved_groups(self, initial: Allocation):
        if not self.winner_led:
            return self.groups
        n = len(initial)
        holder = max(range(n), key=lambda i: (initial[i], -i))
        if initial[holder] == 0:
            return ()
        buyers = tuple(i for i in range(n) if i != holder)
        return ((holder, buyers),)


def _distinct_rows(columns: Sequence[np.ndarray]):
    """The rows of equal-length columns, grouped: the index of the first
    occurrence of each distinct row, and per row the position of its group
    in that list. Ordered by one stable sort, not by hashing."""
    order = np.lexsort(columns[::-1])
    same = np.ones(max(len(order) - 1, 0), dtype=bool)  # as the row before
    for col in columns:
        ranked = col[order]
        same &= ranked[1:] == ranked[:-1]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ~same
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def run_posted_resale(initial: np.ndarray, spec: ResaleSpec,
                      seller_prices: Mapping[int, object],
                      buyer_policies: Mapping[int, object],
                      valuations: Sequence[ValuationBatch], m: int) -> TradeOutcome:
    """Posted resale over a batch of K value profiles: `initial` holds the
    K x n auction allocations (rows may differ) and `valuations` one batch
    of K rows per agent; a single profile is a batch of one.

    In each group the seller offers her whole holding at her posted
    per-unit price, a float or one per row (inf: no offer), in one `_sell`.
    Winner-led groups are resolved per distinct initial row; the prices and
    the ThresholdBuyer thresholds given per row follow their rows. Transfers sum
    to zero by construction. Raises ValueError for a negative or NaN price
    of a seller, or for a row that holds a negative count or sells more
    than m units."""
    initial = np.asarray(initial, dtype=np.int64)
    if initial.size and (np.minimum.reduce(initial, axis=None) < 0
                         or np.maximum.reduce(initial.sum(axis=1)) > m):
        raise ValueError("initial holdings must be nonnegative and sell at most m units")
    counts = initial.copy()
    transfers = np.zeros(counts.shape)
    if not spec.winner_led:
        _resell(spec.groups, counts, transfers, seller_prices, buyer_policies,
                valuations)
        return TradeOutcome(counts, transfers)
    first, inverse = _distinct_rows(list(initial.T))
    for g, j in enumerate(first.tolist()):
        groups = spec.resolved_groups(Allocation(tuple(initial[j].tolist())))
        rows = np.flatnonzero(inverse == g)
        sub_counts, sub_transfers = counts[rows], transfers[rows]
        _resell(groups, sub_counts, sub_transfers,
                {i: p[rows] if np.ndim(p) else p for i, p in seller_prices.items()},
                {i: ThresholdBuyer(p.threshold[rows]) if isinstance(p, ThresholdBuyer)
                 and np.ndim(p.threshold) else p for i, p in buyer_policies.items()},
                [v.take(rows) for v in valuations])
        counts[rows], transfers[rows] = sub_counts, sub_transfers
    return TradeOutcome(counts, transfers)


def _resell(groups, counts: np.ndarray, transfers: np.ndarray,
            seller_prices: Mapping[int, object], buyer_policies: Mapping[int, object],
            valuations: Sequence[ValuationBatch]) -> None:
    """The trades of `groups` on every row, in place."""
    for seller, buyers in groups:
        price = np.broadcast_to(np.asarray(seller_prices.get(seller, NO_OFFER),
                                           dtype=float), len(counts))
        if not (price >= 0).all():  # also NaN
            raise ValueError("seller price must be nonnegative")
        offered = price < math.inf  # inf: no offer, nothing to sell or pay
        _sell(counts, transfers, np.where(offered, counts[:, seller], 0),
              np.where(offered, price, 0.0), buyers, buyer_policies,
              valuations, seller)


def _sell(counts: np.ndarray, transfers: np.ndarray, stock: np.ndarray, price,
          buyers: Sequence[int], policies: Mapping[int, object],
          valuations: Sequence[ValuationBatch], seller: Optional[int] = None) -> None:
    """One posted sale on every row, in place: `stock` units (one count per
    row) at the per-unit `price` (a float or one per row). Buyers visit in
    order, each buying its policy's demand capped by the units left; the
    seller column, if any, gives up the units and receives the payments.
    ThresholdBuyer buys as an array operation; any other policy's
    `quantity(valuation, holding, price, stock)` runs on each row with
    units left."""
    for b in buyers:
        policy = policies.get(b, _TRUTHFUL_BUYER)
        if isinstance(policy, ThresholdBuyer):
            q = policy.quantities(valuations[b], counts[:, b], price, stock)
        else:
            q = np.array([
                policy.quantity(valuations[b].valuation(j), h, p, s) if s > 0 else 0
                for j, (h, p, s) in enumerate(zip(
                    counts[:, b].tolist(),
                    np.broadcast_to(price, stock.shape).tolist(),
                    stock.tolist()))], dtype=np.int64)
            q = np.maximum(0, np.minimum(q, stock))
        paying = q * price
        counts[:, b] += q
        transfers[:, b] += paying
        if seller is not None:
            counts[:, seller] -= q
            transfers[:, seller] -= paying
        stock = stock - q


def opt_out_outcome(initial: np.ndarray) -> TradeOutcome:
    """The appended voluntary-participation action: keep holdings, pay nothing."""
    initial = np.asarray(initial, dtype=np.int64)
    return TradeOutcome(initial, np.zeros(initial.shape))


def check_weak_budget_balance(outcome: TradeOutcome, scale: float = 1.0) -> bool:
    """Every row's sum of transfers >= -tol with tol = 1e-12 * scale."""
    return bool(np.all(outcome.transfers.sum(axis=1) >= -1e-12 * max(scale, 1.0)))
