"""Post-auction trade: signaling, take-it-or-leave-it posted resale (global,
per-group, or winner-led) through `_sell`, the game's one posted sale (the
posted primary mechanism runs it too), and the trade-mechanism axioms.
Resale reads who sells as a column of one seller per row
(`ResaleSpec.sales`): constant for fixed groups, the largest holder for
winner-led resale, so both run one sale loop over every row of a batch."""

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
    """Sellers and buyer visiting orders. `groups` are disjoint (seller,
    ordered buyers) blocks of distinct agents; `winner_led=True` instead
    makes the agent holding the largest allocation the seller and everyone
    else a buyer in index order (single-item resale). Raises ValueError for
    groups that repeat an agent or name a negative index."""

    groups: tuple[tuple[int, tuple[int, ...]], ...] = ()
    winner_led: bool = False

    def __post_init__(self):
        agents = [i for seller, buyers in self.groups for i in (seller, *buyers)]
        if len(set(agents)) < len(agents) or any(i < 0 for i in agents):
            raise ValueError("resale groups must be disjoint blocks of distinct "
                             "nonnegative agent indices")

    @classmethod
    def single(cls, seller: int, buyers: Sequence[int]) -> "ResaleSpec":
        return cls(groups=((seller, tuple(buyers)),))

    @classmethod
    def winner_resale(cls) -> "ResaleSpec":
        return cls(winner_led=True)

    def sales(self, initial: np.ndarray) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        """The sales on the K x n holdings `initial`: per group, the seller
        of each row (-1: no sale in that row) and the buyers in visiting
        order. A fixed group's seller is the same in every row. Winner-led,
        a row's largest holder sells, ties going to the lowest index, to
        every other agent in index order; a row where nobody holds a unit
        has no sale. Raises ValueError for a group naming an agent >= n."""
        n = initial.shape[1]
        if not self.winner_led:
            if any(i >= n for seller, buyers in self.groups for i in (seller, *buyers)):
                raise ValueError(f"resale groups name an agent outside the {n} agents")
            return [(np.full(len(initial), seller), buyers)
                    for seller, buyers in self.groups]
        holder = np.argmax(initial, axis=1)
        return [(np.where(initial.max(axis=1) > 0, holder, -1),
                 tuple(range(n)))]


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

    Each sale of `spec.sales` is one `_sell` over every row: the row's
    seller offers her whole holding at her posted per-unit price, a float or
    one per row (inf: no offer); fixed groups and winner-led resale differ
    only in their seller column. ThresholdBuyer thresholds may be given per
    row. Transfers sum to zero by construction. Raises ValueError for a
    negative or NaN price in a row where its agent sells, for a row that
    holds a negative count or sells more than m units, or for a group that
    names an agent outside the n."""
    initial = np.asarray(initial, dtype=np.int64)
    if initial.size and (np.minimum.reduce(initial, axis=None) < 0
                         or np.maximum.reduce(initial.sum(axis=1)) > m):
        raise ValueError("initial holdings must be nonnegative and sell at most m units")
    counts = initial.copy()
    transfers = np.zeros(counts.shape)
    rows = np.arange(len(counts))
    for seller, buyers in spec.sales(initial):
        price = np.full(len(counts), NO_OFFER)  # no seller: no offer
        for s in np.unique(seller[seller >= 0]).tolist():
            price = np.where(seller == s, seller_prices.get(s, NO_OFFER), price)
        if not (price >= 0).all():  # also NaN
            raise ValueError("seller price must be nonnegative")
        offered = price < math.inf  # inf: no offer, nothing to sell or pay
        stock = np.where(offered, counts[rows, seller], 0)
        sold, paid = _sell(counts, transfers, stock, np.where(offered, price, 0.0),
                           buyers, buyer_policies, valuations, seller)
        # debited once: the seller's transfer is still 0.0 (groups are
        # disjoint), and 0.0 - (p1 + p2) is (0.0 - p1) - p2 bit for bit
        counts[rows, seller] -= sold
        transfers[rows, seller] -= paid
    return TradeOutcome(counts, transfers)


def _sell(counts: np.ndarray, transfers: np.ndarray, stock: np.ndarray, price,
          buyers: Sequence[int], policies: Mapping[int, object],
          valuations: Sequence[ValuationBatch], seller: Optional[np.ndarray] = None):
    """One posted sale on every row, in place for the buyers: `stock` units
    (one count per row) at the per-unit `price` (a float or one per row).
    Buyers visit in order, each buying its policy's demand capped by the
    units left; no buyer buys in a row where it is the `seller` (a column of
    one agent per row, if given). Returns the units sold and the payments
    received per row, the payments added up in buyer order. ThresholdBuyer
    buys as an array operation; any other policy's `quantity(valuation,
    holding, price, stock)` runs on each row with units left."""
    sold = paid = 0
    for b in buyers:
        left = stock if seller is None else np.where(seller == b, 0, stock)
        policy = policies.get(b, _TRUTHFUL_BUYER)
        if isinstance(policy, ThresholdBuyer):
            q = policy.quantities(valuations[b], counts[:, b], price, left)
        else:
            q = np.array([
                policy.quantity(valuations[b].valuation(j), h, p, s) if s > 0 else 0
                for j, (h, p, s) in enumerate(zip(
                    counts[:, b].tolist(),
                    np.broadcast_to(price, left.shape).tolist(),
                    left.tolist()))], dtype=np.int64)
            q = np.maximum(0, np.minimum(q, left))
        paying = q * price
        counts[:, b] += q
        transfers[:, b] += paying
        sold, paid, stock = sold + q, paid + paying, stock - q
    return sold, paid


def opt_out_outcome(initial: np.ndarray) -> TradeOutcome:
    """The appended voluntary-participation action: keep holdings, pay nothing."""
    initial = np.asarray(initial, dtype=np.int64)
    return TradeOutcome(initial, np.zeros(initial.shape))


def check_weak_budget_balance(outcome: TradeOutcome, scale: float = 1.0) -> bool:
    """Every row's sum of transfers >= -tol with tol = 1e-12 * scale."""
    return bool(np.all(outcome.transfers.sum(axis=1) >= -1e-12 * max(scale, 1.0)))
