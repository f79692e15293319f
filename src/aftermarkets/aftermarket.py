"""Post-auction trade: signaling, take-it-or-leave-it posted resale (global,
per-group, or winner-led), and the trade-mechanism axioms as checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .allocation import Allocation
from .auctions import AuctionOutcome, BidVector
from .valuations import MarginalValuation


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


@dataclass(frozen=True)
class TradeOutcome:
    final_alloc: Allocation
    transfers: tuple[float, ...]  # positive = pays


NO_OFFER = math.inf


@dataclass(frozen=True)
class ThresholdBuyer:
    """Dominant resale policy: buy another unit while its marginal value is >=
    the posted price (and >= the optional extra threshold, never NaN)."""

    threshold: Optional[float] = None

    def __post_init__(self):
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("buyer threshold must not be NaN")

    def quantity(self, valuation: MarginalValuation, holding: int, price: float,
                 stock: int) -> int:
        cut = price if self.threshold is None else max(price, self.threshold)
        if math.isinf(cut):
            return 0
        want = valuation.count_ge(cut) - holding
        return max(0, min(want, stock))


_TRUTHFUL_BUYER = ThresholdBuyer()


@dataclass(frozen=True)
class NeverBuy:
    def quantity(self, valuation, holding, price, stock) -> int:
        return 0


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


def run_posted_resale(initial: Allocation, spec: ResaleSpec,
                      seller_prices: Mapping[int, float],
                      buyer_policies: Mapping[int, object],
                      valuations: Sequence[MarginalValuation]) -> TradeOutcome:
    """Each seller offers her whole holding at her posted per-unit price;
    buyers visit in order and purchase while marginal value covers the price.
    Transfers sum to zero by construction."""
    counts = list(initial.counts)
    transfers = [0.0] * len(counts)
    for seller, buyers in spec.resolved_groups(initial):
        price = seller_prices.get(seller, NO_OFFER)
        if not price >= 0:  # also rejects NaN; inf means no offer
            raise ValueError("seller price must be nonnegative")
        if math.isinf(price):
            continue
        stock = counts[seller]
        for b in buyers:
            if stock == 0:
                break
            policy = buyer_policies.get(b, _TRUTHFUL_BUYER)
            q = policy.quantity(valuations[b], counts[b], price, stock)
            q = max(0, min(q, stock))
            counts[b] += q
            counts[seller] -= q
            transfers[b] += q * price
            transfers[seller] -= q * price
            stock -= q
    return TradeOutcome(Allocation(tuple(counts)), tuple(transfers))


def opt_out_outcome(initial: Allocation) -> TradeOutcome:
    """The appended voluntary-participation action: keep holdings, pay nothing."""
    return TradeOutcome(initial, tuple(0.0 for _ in initial.counts))


def check_weak_budget_balance(outcome: TradeOutcome, scale: float = 1.0) -> bool:
    """Sum of transfers >= -tol with tol = 1e-12 * scale."""
    return sum(outcome.transfers) >= -1e-12 * max(scale, 1.0)
