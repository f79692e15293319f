"""The two-stage game engine: auction, signaling, aftermarket, and utility
accounting; tensor quadrature or Monte Carlo expectations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .aftermarket import (NO_OFFER, Observation, ResaleSpec, SignalProtocol,
                          ThresholdBuyer, apply_signal, opt_out_outcome,
                          run_posted_resale)
from .allocation import Allocation, opt_allocation, welfare
from .auctions import (AuctionOutcome, BidVector, _check_reserve,
                       all_pay_single, discriminatory, first_price_single,
                       posted_price_sell, uniform_price)
from .valuations import (MarginalValuation, MarketModel, _realizer,
                         cell_profiles, draw_values)

MECHANISM_KINDS = ("uniform", "discriminatory", "first_price", "all_pay", "posted")


@dataclass(frozen=True)
class Mechanism:
    kind: str
    reserve: Optional[float] = None
    posted_price: Optional[float] = None
    posted_order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "posted" and self.posted_price is None:
            raise ValueError("posted mechanism needs a price")
        _check_reserve(self.reserve)
        if self.posted_price is not None and not 0 <= self.posted_price < math.inf:
            raise ValueError("posted price must be finite and nonnegative")


@dataclass(frozen=True)
class Strategy:
    """Per-agent policy pair: an auction bid (a constant BidVector or a
    function of the own valuation) and an aftermarket policy (a posted resale
    price when acting as seller, a purchase threshold rule when buying).
    `posted_buy` overrides the truthful demand under a posted primary
    mechanism (quantity as a function of valuation, price, remaining stock)."""

    bid: Union[BidVector, Callable[[MarginalValuation], BidVector], None] = None
    seller_price: Union[float, Callable[[MarginalValuation, Observation], float]] = NO_OFFER
    buyer: object = ThresholdBuyer()
    posted_buy: Optional[Callable[[MarginalValuation, float, int], int]] = None

    def bid_for(self, valuation: MarginalValuation, m: int) -> BidVector:
        if self.bid is None:
            return BidVector.from_runs((), m)
        if callable(self.bid):
            return self.bid(valuation)
        return self.bid


@dataclass(frozen=True)
class CombinedOutcome:
    final_alloc: Allocation
    auction_payments: tuple[float, ...]
    transfers: tuple[float, ...]
    utilities: tuple[float, ...]
    welfare: float
    revenue: float
    auction_alloc: Allocation
    clearing_price: Optional[float] = None


def _run_auction(mechanism: Mechanism, bids: Sequence[BidVector], m: int,
                 profile: Sequence[MarginalValuation],
                 strategies: Sequence[Strategy]) -> AuctionOutcome:
    if mechanism.kind == "uniform":
        return uniform_price(bids, m, mechanism.reserve)
    if mechanism.kind == "discriminatory":
        return discriminatory(bids, m)
    if mechanism.kind == "first_price":
        flat = [b.runs[0][0] if b.runs else 0.0 for b in bids]
        return first_price_single(flat)
    if mechanism.kind == "all_pay":
        flat = [b.runs[0][0] if b.runs else 0.0 for b in bids]
        return all_pay_single(flat)
    order = mechanism.posted_order or tuple(range(len(profile)))
    quantities = [None] * len(profile)
    for i, s in enumerate(strategies):
        if s.posted_buy is not None:
            left = m  # the engine caps by true remaining stock below
            quantities[i] = s.posted_buy(profile[i], mechanism.posted_price, left)
    return posted_price_sell(mechanism.posted_price, order, profile, m, quantities)


def play(market: MarketModel, mechanism: Mechanism, protocol: SignalProtocol,
         resale: Optional[ResaleSpec], strategies: Sequence[Strategy],
         profile: Sequence[MarginalValuation]) -> CombinedOutcome:
    """One pass of the combined market: bids, auction, signals, aftermarket,
    utilities u_i = v_i(final x_i) - auction payment - transfer."""
    if len(strategies) != len(profile):
        raise ValueError("strategy arity does not match profile")
    m = market.m
    bids = [s.bid_for(v, m) for s, v in zip(strategies, profile)]
    outcome = _run_auction(mechanism, bids, m, profile, strategies)
    if resale is None:
        trade = opt_out_outcome(outcome.alloc)
    else:
        prices, signals = {}, None
        for seller, _ in resale.resolved_groups(outcome.alloc):
            price = strategies[seller].seller_price
            if callable(price):  # signals are built only for a price that reads them
                if signals is None:
                    signals = apply_signal(protocol, outcome, bids)
                price = price(profile[seller], signals[seller])
            prices[seller] = price
        policies = {i: s.buyer for i, s in enumerate(strategies)}
        trade = run_posted_resale(outcome.alloc, resale, prices, policies, profile)
    utilities = tuple(
        v.value(trade.final_alloc[i]) - outcome.payments[i] - trade.transfers[i]
        for i, v in enumerate(profile))
    wel = welfare(profile, trade.final_alloc)
    return CombinedOutcome(trade.final_alloc, outcome.payments, trade.transfers,
                           utilities, wel, outcome.revenue, outcome.alloc,
                           outcome.clearing_price)


# -- expectations ----------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    n: int
    seed: int


@dataclass(frozen=True)
class Quadrature:
    """Tensor interval-moment rule over the market's scalar random
    dimensions (`cell_profiles`); `breakpoints` are extra cut points
    (decision thresholds), `subdivide` refines each cell.

    The rule is exact only for integrands that are multilinear on each cell.
    E[OPT] of the speculation market is not: its max(a2, z) term kinks on
    the diagonal a2 = z inside the cell z in [1, 1 + w], a2 in [1, 1.5],
    w = 1/(2m), so the rule misses E[(z - a2)^+] = w^3/3."""

    subdivide: int = 4
    breakpoints: tuple[float, ...] = ()


Integration = Union[MonteCarlo, Quadrature]


@dataclass(frozen=True)
class ExpectedOutcome:
    welfare: float
    utilities: tuple[float, ...]
    revenue: float
    welfare_stderr: Optional[float] = None


def profile_nodes(market: MarketModel, integration: Integration):
    """Yield (profile, weight) pairs covering the market's randomness: the
    rows of `draw_values` or the cells of `cell_profiles`."""
    if isinstance(integration, MonteCarlo):
        realize, w = _realizer(market.agents), 1.0 / integration.n
        for row in draw_values(market, integration.n, integration.seed).tolist():
            yield realize(row), w
        return
    dims = market.random_dims()
    if len(dims) > 2:
        raise ValueError("quadrature limited to <= 2 scalar random dimensions")
    yield from cell_profiles(market.agents, [
        market.agents[i].dist.cells(integration.breakpoints, integration.subdivide)
        for i in dims])


def expected_outcome(market: MarketModel, mechanism: Mechanism,
                     protocol: SignalProtocol, resale: Optional[ResaleSpec],
                     strategies: Sequence[Strategy],
                     integration: Integration) -> ExpectedOutcome:
    """Expected welfare, utilities and revenue of play() over valuation draws."""
    n = market.n
    wel = rev = wel2 = 0.0
    utils = np.zeros(n)
    for profile, w in profile_nodes(market, integration):
        out = play(market, mechanism, protocol, resale, strategies, profile)
        wel += w * out.welfare
        wel2 += w * out.welfare ** 2
        rev += w * out.revenue
        utils += w * np.asarray(out.utilities)
    stderr = None
    if isinstance(integration, MonteCarlo):
        var = max(wel2 - wel * wel, 0.0)
        stderr = math.sqrt(var / integration.n)
    return ExpectedOutcome(wel, tuple(utils), rev, stderr)


def expected_optimal_welfare(market: MarketModel,
                             integration: Integration) -> float:
    """E[OPT(v; m)] over the market's randomness."""
    total = 0.0
    for profile, w in profile_nodes(market, integration):
        _, opt = opt_allocation(profile, market.m)
        total += w * opt
    return total
