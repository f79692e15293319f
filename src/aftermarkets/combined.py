"""The two-stage game engine: auction, signaling, aftermarket, and utility
accounting; tensor quadrature or Monte Carlo expectations. The posted primary
sale and the resale sell by one rule, `aftermarket._sell`. A batch of value
profiles clears its auction outcomes only where it must, then resells every
row in one `run_posted_resale` call."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .aftermarket import (NO_OFFER, Observation, ResaleSpec, SignalProtocol,
                          ThresholdBuyer, _distinct_rows, _sell, apply_signal,
                          opt_out_outcome, run_posted_resale)
from .allocation import Allocation, opt_welfare_rows
from .auctions import (AuctionOutcome, BidVector, _check_reserve,
                       all_pay_single, discriminatory, first_price_single,
                       uniform_price)
from .valuations import (MarginalValuation, MarketModel, ValuationBatch,
                         cell_nodes, draw_values, realize_batch)

MECHANISM_KINDS = ("uniform", "discriminatory", "first_price", "all_pay", "posted")


@dataclass(frozen=True)
class Mechanism:
    kind: str
    reserve: Optional[float] = None
    posted_price: Optional[float] = None
    posted_order: Optional[tuple[int, ...]] = None  # None: index order; () sells to none

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
    mechanism: a nonnegative integer of (valuation, price, units left)."""

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


def _run_auction(mechanism: Mechanism, bids: Sequence[BidVector],
                 m: int) -> AuctionOutcome:
    """Clear sealed bids (every kind but posted); single-item kinds read first bids."""
    if mechanism.kind == "uniform":
        return uniform_price(bids, m, mechanism.reserve)
    if mechanism.kind == "discriminatory":
        return discriminatory(bids, m)
    flat = [b.runs[0][0] if b.runs else 0.0 for b in bids]
    if mechanism.kind == "first_price":
        return first_price_single(flat)
    return all_pay_single(flat)


def _check_single_item(mechanism: Mechanism, m: int) -> None:
    if mechanism.kind in ("first_price", "all_pay") and m != 1:
        raise ValueError(f"{mechanism.kind} sells a single item, not m = {m}")


@dataclass(frozen=True)
class _PostedDemand:
    """A `posted_buy` rule as a buyer policy of `_sell`: it sees the units left."""

    rule: Callable[[MarginalValuation, float, int], int]

    def quantity(self, valuation, holding, price, stock) -> int:
        q = self.rule(valuation, price, stock)
        if q < 0 or q != int(q):  # the sale would truncate 1.5 to 1
            raise ValueError("posted demand must be a nonnegative integer")
        return q


def play(market: MarketModel, mechanism: Mechanism, protocol: SignalProtocol,
         resale: Optional[ResaleSpec], strategies: Sequence[Strategy],
         profile: Sequence[MarginalValuation]) -> CombinedOutcome:
    """One pass of the combined market: bids, auction, signals, aftermarket,
    utilities u_i = v_i(final x_i) - auction payment - transfer. The
    profile plays as a batch of one."""
    if len(strategies) != len(profile):
        raise ValueError("strategy arity does not match profile")
    (outcome,), _, trade, utilities, wel = _play_rows(
        market, mechanism, protocol, resale, strategies,
        [ValuationBatch.of([v]) for v in profile])
    return CombinedOutcome(Allocation(tuple(trade.final_alloc[0].tolist())),
                           outcome.payments, tuple(trade.transfers[0].tolist()),
                           tuple(utilities[0].tolist()), wel[0],
                           outcome.revenue, outcome.alloc, outcome.clearing_price)


def _play_rows(market: MarketModel, mechanism: Mechanism, protocol: SignalProtocol,
               resale: Optional[ResaleSpec], strategies: Sequence[Strategy],
               values: Sequence[ValuationBatch]):
    """Play every row of `values` (one batch per agent). Constant bids clear
    once, callable bids row by row, and the posted mechanism sells to all
    rows in one `_sell`; a callable bid or seller price reads row j's
    valuation as `values[i].valuation(j)`. Every row resells in one
    `run_posted_resale` call. Returns the distinct AuctionOutcomes, each
    row's index into them, the TradeOutcome of the rows, their utilities
    (rows x agents) and their welfare: each row's values added up by the
    built-in `sum`, as `allocation.welfare` adds them (it compensates from
    Python 3.12 on; adding the agents' arrays would not). Raises ValueError
    for a single-item kind on m != 1, or a posted order that repeats an
    agent or names one outside the market."""
    m, n, n_rows = market.m, len(strategies), len(values[0])
    _check_single_item(mechanism, m)
    # the posted sale reads no bid: there, bids are made (and, per row, kept)
    # only for a signal that shows them to a resale price
    reads_bids = protocol is SignalProtocol.PUBLIC_BIDS and any(
        callable(s.seller_price) for s in strategies)
    per_row = mechanism.kind != "posted" and any(callable(s.bid) for s in strategies)
    row_bids = [None] * n_rows
    if per_row or reads_bids:
        row_bids = [[s.bid_for(v.valuation(j) if callable(s.bid) else None, m)
                     for s, v in zip(strategies, values)] for j in range(n_rows)]
    if mechanism.kind == "posted":
        order = range(n) if mechanism.posted_order is None else mechanism.posted_order
        if len(set(order)) < len(order) or not set(order) <= set(range(n)):
            raise ValueError("posted order must name distinct agents of the market")
        counts, payments = np.zeros((n_rows, n), dtype=np.int64), np.zeros((n_rows, n))
        _sell(counts, payments, np.full(n_rows, m), mechanism.posted_price, order,
              {i: _PostedDemand(s.posted_buy) for i, s in enumerate(strategies)
               if s.posted_buy is not None}, values)
        first, which = _distinct_rows([*counts.T, *payments.T])
        outcomes = [AuctionOutcome(Allocation(tuple(counts[j].tolist())),
                                   tuple(payments[j].tolist()),
                                   clearing_price=mechanism.posted_price)
                    for j in first.tolist()]
    elif per_row:
        outcomes = [_run_auction(mechanism, bids, m) for bids in row_bids]
        which = np.arange(n_rows)
    else:
        bids = [s.bid_for(None, m) for s in strategies]
        outcomes, which = [_run_auction(mechanism, bids, m)], np.zeros(n_rows, dtype=int)
        row_bids = [bids] * n_rows
    initial = np.array([o.alloc.counts for o in outcomes], dtype=np.int64)[which]
    if resale is None:
        trade = opt_out_outcome(initial)
    else:
        prices = {}
        for seller, _ in resale.sales(initial):
            for i in np.unique(seller[seller >= 0]).tolist():
                price = strategies[i].seller_price
                if callable(price):  # called only in the rows where agent i sells
                    rows = np.flatnonzero(seller == i).tolist()
                    asked = [price(values[i].valuation(j), apply_signal(
                        protocol, outcomes[which[j]], row_bids[j])[i]) for j in rows]
                    price = np.full(n_rows, NO_OFFER)
                    price[rows] = asked
                prices[i] = price
        policies = {i: s.buyer for i, s in enumerate(strategies)}
        trade = run_posted_resale(initial, resale, prices, policies, values, m)
    held = [v.value(trade.final_alloc[:, i]) for i, v in enumerate(values)]
    payments = np.array([o.payments for o in outcomes], dtype=float)[which]
    utilities = np.column_stack([x - payments[:, i] - trade.transfers[:, i]
                                 for i, x in enumerate(held)])
    return (outcomes, which, trade, utilities,
            [sum(row) for row in np.column_stack(held).tolist()])


# -- expectations ----------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"Monte Carlo needs at least one draw, not n = {self.n}")


@dataclass(frozen=True)
class Quadrature:
    """Tensor interval-moment rule over the market's scalar random
    dimensions (`cell_nodes`); `breakpoints` are extra cut points
    (decision thresholds), `subdivide` refines each cell.

    The rule is exact only for integrands that are multilinear on each cell.
    E[OPT] of the speculation market is not: its max(a2, z) term kinks on
    the diagonal a2 = z inside the cell z in [1, 1 + w], a2 in [1, 1.5],
    w = 1/(2m), so the rule misses E[(z - a2)^+] = w^3/3."""

    subdivide: int = 4
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if self.subdivide < 1:
            raise ValueError(f"subdivide must be at least 1, not {self.subdivide}")


Integration = Union[MonteCarlo, Quadrature]


@dataclass(frozen=True)
class ExpectedOutcome:
    welfare: float
    utilities: tuple[float, ...]
    revenue: float
    welfare_stderr: Optional[float] = None


# rows per batch of `expected_outcome` and `expected_optimal_welfare`: a
# chunk's arrays stay under 0.5 MB
CHUNK_ROWS = 1024


def _node_rows(market: MarketModel, integration: Integration):
    """Yield (scalars, weights) chunks of at most CHUNK_ROWS rows covering the
    market's randomness, with one scalar column per random agent: the rows
    of `draw_values` or the cells of `cell_nodes`."""
    if isinstance(integration, MonteCarlo):
        scalars = draw_values(market, integration.n, integration.seed)
        weights = np.full(len(scalars), 1.0 / integration.n)
    else:
        dims = market.random_dims()
        if len(dims) > 2:
            raise ValueError("quadrature limited to <= 2 scalar random dimensions")
        scalars, weights = cell_nodes([
            market.agents[i].dist.cells(integration.breakpoints, integration.subdivide)
            for i in dims])
    for start in range(0, len(scalars), CHUNK_ROWS):
        yield scalars[start:start + CHUNK_ROWS], weights[start:start + CHUNK_ROWS]


def _running_total(total, terms: np.ndarray):
    """total + terms[0] + terms[1] + ..., added one at a time along axis 0."""
    return np.cumsum(np.concatenate((np.asarray(total)[None], terms)), axis=0)[-1]


def expected_outcome(market: MarketModel, mechanism: Mechanism,
                     protocol: SignalProtocol, resale: Optional[ResaleSpec],
                     strategies: Sequence[Strategy],
                     integration: Integration) -> ExpectedOutcome:
    """Expected welfare, utilities and revenue of play() over valuation
    draws. The rows of `draw_values` (or the quadrature cells) play in
    chunks of at most CHUNK_ROWS as batches (`_play_rows`), and the running
    totals add the rows one at a time in row order, so they equal a play()
    loop over the same rows, one realized profile at a time, bit for bit."""
    if len(strategies) != market.n:
        raise ValueError("strategy arity does not match profile")
    wel = rev = wel2 = 0.0
    utils = np.zeros(market.n)
    for scalars, weights in _node_rows(market, integration):
        outcomes, which, _, row_utils, welfare = _play_rows(
            market, mechanism, protocol, resale, strategies,
            realize_batch(market.agents, scalars))
        row_wel = np.array(welfare, dtype=float)
        row_rev = np.array([o.revenue for o in outcomes], dtype=float)[which]
        # Python's x ** 2 (libm pow), as the play() loop squared; numpy
        # squares by x * x, which may round differently
        squares = np.array([x ** 2 for x in row_wel.tolist()])
        wel = float(_running_total(wel, weights * row_wel))
        wel2 = float(_running_total(wel2, weights * squares))
        rev = float(_running_total(rev, weights * row_rev))
        utils = _running_total(utils, weights[:, None] * row_utils)
    stderr = None
    if isinstance(integration, MonteCarlo):
        var = max(wel2 - wel * wel, 0.0)
        stderr = math.sqrt(var / integration.n)
    return ExpectedOutcome(wel, tuple(utils), rev, stderr)


def expected_optimal_welfare(market: MarketModel,
                             integration: Integration) -> float:
    """E[OPT(v; m)] over the market's randomness: the rows of `draw_values`
    (or the quadrature cells) realized in chunks of at most CHUNK_ROWS as
    run batches and scored by `opt_welfare_rows`, the weighted optima added
    one row at a time in row order, so the total equals a loop of
    `total += w * opt_allocation(profile, m)[1]` over the same rows bit for
    bit."""
    total = 0.0
    for scalars, weights in _node_rows(market, integration):
        opts = opt_welfare_rows(realize_batch(market.agents, scalars), market.m)
        total = float(_running_total(total, weights * opts))
    return total
