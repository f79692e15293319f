"""Equilibrium tooling: epsilon-BNE verification over deviation grids, the
scripted speculation equilibria, weak-dominance witness checks, interim
curves and the Myerson payment identity, the symmetric first-price efficiency
check, and best-response dynamics.

Verification uses a constant-action fast path: when every strategy is a fixed
(bid, aftermarket action) pair, a best-response gap takes its grid's bid
deviations as one run-encoded `BidBatch`, which `DeviationGrid.bid_batch`
enumerates with numpy, and under every sealed-bid kind clears them all in
one `uniform_price_deviations` call against opponents ranked once; an
`Action` is built only for the reported witness. Every agent belongs to
exactly one block: its resale group, or itself alone when it is in none. A
block's aftermarket is integrated exactly over its <= 2 scalar random
dimensions with the interval-moment cells of `cell_nodes`, kept per (block,
buyers' cuts), once per distinct block allocation and aftermarket action
rather than once per deviation. The
stages a call needs resell together: one array-valued `run_posted_resale`
call, the rule `play()` and `expected_outcome` use too, takes every
(allocation, seller price, buyer thresholds, cell) row. Every other check
scores rows (`ConstantActionEvaluator.utilities`): one agent's actions
against one opponents' profile, each distinct bid clearing once. A gap's
on-path, price and threshold deviations are one row, each dominance case
one, and best-response dynamics read one per agent step. The first-price check
draws its value pairs with `draw_values`, the Monte Carlo rule of
`expected_outcome`, and evaluates the exact bid once per check, on a table
it then interpolates. Its interim curves take the package's one integral
rule and one monotone inverse from `distributions`: the cumulative Kronrod
pass `_cumulative_integral` and the bisection `_monotone_inverse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .aftermarket import (NO_OFFER, ResaleSpec, SignalProtocol, ThresholdBuyer,
                          _distinct_rows, run_posted_resale)
from .auctions import BidBatch, BidVector, uniform_price_deviations
from .combined import Mechanism, Strategy, _check_single_item, _run_auction
from .distributions import (UnitDistribution, _cumulative_integral,
                            _monotone_inverse)
from .valuations import (MarketModel, ValuationBatch, cell_nodes, draw_values,
                         grouped_market, lower_bound_market, realize_batch,
                         symmetric_fpa_market)


# -- actions and games -----------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One agent's constant action in the combined market. `None` fields mean
    "keep the scripted value" when used as a deviation."""

    bid: Optional[BidVector] = None
    seller_price: Optional[float] = None
    buyer_threshold: Optional[float] = None
    label: str = ""

    def merged_into(self, base: "Action") -> "Action":
        return Action(
            bid=base.bid if self.bid is None else self.bid,
            seller_price=(base.seller_price if self.seller_price is None
                          else self.seller_price),
            buyer_threshold=(base.buyer_threshold if self.buyer_threshold is None
                             else self.buyer_threshold),
            label=self.label or base.label)


@dataclass(frozen=True)
class CombinedGame:
    """A market plus mechanism, signaling, resale structure and a scripted
    constant-action strategy profile."""

    market: MarketModel
    mechanism: Mechanism
    resale: Optional[ResaleSpec]
    base_actions: tuple[Action, ...]
    protocol: SignalProtocol = SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT

    def strategies(self) -> tuple[Strategy, ...]:
        return tuple(Strategy(
            bid=a.bid, seller_price=NO_OFFER if a.seller_price is None else a.seller_price,
            buyer=ThresholdBuyer(a.buyer_threshold)) for a in self.base_actions)

    def evaluator(self) -> "ConstantActionEvaluator":
        return ConstantActionEvaluator(self)


@dataclass(frozen=True)
class _ResaleStage:
    """One block's aftermarket over the tensor of its random dimensions: the
    cell weights and, per member (seller first), its value of its post-resale
    holdings and its resale transfer in each cell. The arrays are views of
    the rows of one batched `run_posted_resale` call. Every later call with
    the same key reads them, so none is written in place."""

    weights: np.ndarray
    vals: dict
    transfers: dict


class ConstantActionEvaluator:
    """Exact expected utilities/welfare for constant-action profiles.

    The auction outcome is deterministic, so randomness only enters through
    the scalar draws of each block: a resale group, or an agent outside
    every group, alone. Utilities are piecewise multilinear in a block's
    scalars with breakpoints at the effective purchase cutoffs, which the
    interval-moment cells integrate exactly.

    `utilities(agent, actions, others)` scores a row: the agent's actions
    against one opponents' profile, each distinct bid clearing once and all
    the stages reselling together; `expected_utility` is a row of one.
    `bid_utilities` makes one batched clearing for a whole `BidBatch` of an
    agent's bids under every sealed-bid kind. A block's stage depends only
    on its members' auction allocation, the seller's price and the buyers'
    thresholds. It is integrated once per distinct such key and kept for the
    evaluator's lifetime, as are the block's cells, once per (block, cuts):
    a buyer's cells depend on the price and its threshold only through its
    cut max(price, threshold). Auction payments are subtracted afterwards.
    """

    def __init__(self, game: CombinedGame):
        self.game = game
        self.market = game.market
        self.m = game.market.m
        if game.mechanism.kind == "posted":
            raise ValueError("fast path requires an auction, not a posted mechanism")
        _check_single_item(game.mechanism, self.m)
        groups = ()
        if game.resale is not None:
            if game.resale.winner_led:
                raise ValueError("fast path requires fixed resale groups")
            game.resale.check_agents(self.market.n)
            groups = game.resale.groups
        # (seller, ordered buyers): the resale groups in spec order, then
        # (i, ()) for each agent outside them, in agent order
        self._blocks = [(seller, tuple(buyers)) for seller, buyers in groups]
        grouped = [i for seller, buyers in self._blocks for i in (seller,) + buyers]
        self._blocks += [(i, ()) for i in range(self.market.n) if i not in grouped]
        self._block_of = {i: block for block in self._blocks
                          for i in (block[0],) + block[1]}
        self._cell_batches: dict = {}
        self._stage_cache: dict = {}

    def _actions(self, overrides: Optional[Mapping[int, Action]]):
        acts = list(self.game.base_actions)
        if overrides:
            for i, dev in overrides.items():
                acts[i] = dev.merged_into(acts[i])
        return acts

    def _bids(self, acts) -> list[BidVector]:
        return [a.bid if a.bid is not None else BidVector.from_runs((), self.m)
                for a in acts]

    def _cell_batch(self, block, price, thresholds):
        """The members' valuations in every cell of `block` at (price,
        thresholds) and the cell weights. Each buyer's cells are cut at its
        purchase cutoff max(price, threshold) and the seller's are uncut, so
        they are made once per (block, cuts)."""
        cuts = tuple(price if t is None else max(price, t) for t in thresholds)
        key = (block, cuts)
        if key not in self._cell_batches:
            members = (block[0],) + block[1]
            models = [self.market.agents[i] for i in members]
            scalars, weights = cell_nodes([
                model.dist.cells(() if cut is None else (cut,))
                for cut, model in zip((None,) + cuts, models) if model.random])
            self._cell_batches[key] = (realize_batch(models, scalars), weights)
        return self._cell_batches[key]

    @staticmethod
    def _terms(block, acts) -> tuple:
        """The seller's price and the buyers' thresholds in `block`; a block
        without buyers never makes an offer."""
        seller, buyers = block
        price = acts[seller].seller_price
        if price is None or not buyers:
            price = NO_OFFER
        return price, tuple(acts[b].buyer_threshold for b in buyers)

    def _stages(self, block, keys: Sequence[tuple]) -> list[_ResaleStage]:
        """The resale stages of `block` for each key (alloc, price,
        thresholds): the auction gives the members (seller first) the units
        `alloc`, and `_terms` are (price, thresholds). Each distinct key is
        integrated once: the keys not yet cached resell together, in one
        `run_posted_resale` call whose rows are their (key, cell) pairs, with
        a price and the buyers' thresholds per row. A NaN threshold raises
        ValueError."""
        todo = [key for key in dict.fromkeys(keys)
                if (block,) + key not in self._stage_cache]
        if todo:
            members = (block[0],) + block[1]
            allocs, prices, thresholds = zip(*todo)
            cell_values, cell_weights = zip(*[self._cell_batch(block, *key[1:])
                                              for key in todo])
            sizes = [len(w) for w in cell_weights]
            values = [ValuationBatch.concat([v[j] for v in cell_values])
                      for j in range(len(members))]
            # members are indexed 0 (seller), 1.. (buyers) within the group; a
            # buyer whose threshold differs between keys gets one per row,
            # -inf for none (max(price, -inf) is the price)
            policies = {j: ThresholdBuyer(column[0] if len(set(column)) == 1 else
                                          np.repeat([-math.inf if t is None else t
                                                     for t in column], sizes))
                        for j, column in enumerate(zip(*thresholds), 1)}
            trade = run_posted_resale(
                np.repeat(np.array(allocs, dtype=np.int64), sizes, axis=0),
                ResaleSpec.single(0, range(1, len(members))),
                {0: prices[0] if len(set(prices)) == 1 else np.repeat(prices, sizes)},
                policies, values, self.m)
            held = [v.value(trade.final_alloc[:, j]) for j, v in enumerate(values)]
            ends = np.cumsum(sizes).tolist()
            for key, weights, end in zip(todo, cell_weights, ends):
                rows = slice(end - len(weights), end)
                self._stage_cache[(block,) + key] = _ResaleStage(
                    weights, {i: held[j][rows] for j, i in enumerate(members)},
                    {i: trade.transfers[rows, j] for j, i in enumerate(members)})
        return [self._stage_cache[(block,) + key] for key in keys]

    def _key(self, block, acts, outcome) -> tuple:
        alloc = tuple(outcome.alloc[i] for i in (block[0],) + block[1])
        return (alloc,) + self._terms(block, acts)

    @staticmethod
    def _utility(stage: _ResaleStage, agent: int, payment: float) -> float:
        u = stage.vals[agent] - payment - stage.transfers[agent]
        return float(u @ stage.weights)

    def expected_utility(self, agent: int,
                         overrides: Optional[Mapping[int, Action]] = None) -> float:
        overrides = overrides or {}
        return float(self.utilities(agent, [overrides.get(agent, Action())],
                                    overrides)[0])

    def utilities(self, agent: int, actions: Sequence[Action],
                  others: Optional[Mapping[int, Action]] = None) -> np.ndarray:
        """The agent's row: its expected utility for each of `actions`
        (`None` fields keep its base action) against the base actions with
        `others` merged in; the agent's own entry in `others` is ignored.
        The opponents merge once, each distinct bid of the row clears the
        auction once, and the row's stages resell in one `_stages` call."""
        acts = self._actions(others)
        bids, block = self._bids(acts), self._block_of[agent]
        outcomes, keys, payments = {}, [], []
        for action in actions:
            acts[agent] = action.merged_into(self.game.base_actions[agent])
            bid = self._bids([acts[agent]])[0]
            if bid not in outcomes:
                outcomes[bid] = _run_auction(
                    self.game.mechanism, bids[:agent] + [bid] + bids[agent + 1:], self.m)
            keys.append(self._key(block, acts, outcomes[bid]))
            payments.append(outcomes[bid].payments[agent])
        return np.array([self._utility(stage, agent, payment) for stage, payment
                         in zip(self._stages(block, keys), payments)], dtype=float)

    def bid_utilities(self, agent: int, batch: BidBatch) -> np.ndarray:
        """expected_utility(agent, {agent: Action(bid=batch.vector(j))}) for
        every row j, everything else on the base actions. Under every
        sealed-bid kind the rows clear in one `uniform_price_deviations`
        call, whose allocation without a reserve is every kind's; the kind
        sets only the payment. The distinct block allocations not yet
        integrated resell in one `_stages` call, and each distinct (block
        allocation, payment) row computes its utility once."""
        acts = self._actions(None)
        block = self._block_of[agent]
        kind, reserve = self.game.mechanism.kind, self.game.mechanism.reserve
        k, price, counts = uniform_price_deviations(
            self._bids(acts), agent, batch, self.m, reserve, (block[0],) + block[1])
        payments = (price * k if kind == "uniform" else
                    batch.value(np.full_like(k, self.m) if kind == "all_pay" else k))
        first, inverse = _distinct_rows([*counts.T, payments])
        terms = self._terms(block, acts)
        stages = self._stages(block, [(tuple(counts[j].tolist()),) + terms
                                      for j in first.tolist()])
        utils = np.array([self._utility(stage, agent, float(payments[j]))
                          for stage, j in zip(stages, first.tolist())])
        return utils[inverse]

    def expected_welfare(self, overrides: Optional[Mapping[int, Action]] = None) -> float:
        acts = self._actions(overrides)
        outcome = _run_auction(self.game.mechanism, self._bids(acts), self.m)
        total = 0.0
        for block in self._blocks:
            stage = self._stages(block, [self._key(block, acts, outcome)])[0]
            for i in stage.vals:  # seller first, then buyers in order
                total += float(stage.vals[i] @ stage.weights)
        return total


# -- deviation grids and BNE reports ---------------------------------------


@dataclass(frozen=True)
class DeviationGrid:
    """Finite deviation set: flat (level x count) bid grids, optionally also
    prefixed by fixed head runs, plus aftermarket grids (seller prices, buyer
    thresholds). Always includes the on-path no-op. NaN thresholds and NaN
    or negative prices are rejected."""

    bid_levels: tuple[float, ...] = ()
    bid_counts: tuple[int, ...] = ()
    head: tuple[tuple[float, int], ...] = ()
    seller_prices: tuple[float, ...] = ()
    buyer_thresholds: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(p >= 0 for p in self.seller_prices):  # negative or NaN
            raise ValueError("seller prices must be nonnegative")
        if any(math.isnan(t) for t in self.buyer_thresholds):
            raise ValueError("buyer thresholds must not be NaN")

    def _bid_rows(self, m: int) -> tuple[BidBatch, np.ndarray]:
        """The distinct bid deviations for m units, in grid order, and per
        row the (level index, count index, head flag) it first came from.
        Each level crosses each count (level-major) as a flat bid of at most
        m units, then, after the head runs, if the level is at most every
        head value and the head leaves the units. Each level, count and the
        head is validated once, by `BidVector.from_runs`."""
        head_units = sum(c for _, c in self.head)
        head = BidVector.from_runs(self.head, head_units)
        for level in self.bid_levels:
            BidVector.flat(level, 1, 1)  # NaN, negative or infinite
        for count in self.bid_counts:
            BidVector.flat(0.0, count, count)  # negative
        head_min = min((v for v, _ in self.head), default=math.inf)
        origin = np.indices((len(self.bid_levels), len(self.bid_counts),
                             2 if self.head else 1)).reshape(3, -1).T
        level = np.array(self.bid_levels, dtype=float)[origin[:, 0]]
        count = np.array(self.bid_counts, dtype=np.int64)[origin[:, 1]]
        use_head = origin[:, 2] == 1
        keep = np.where(use_head, ~(level > head_min) & (count <= m - head_units),
                        count <= m)
        origin, level, count, use_head = (origin[keep], level[keep], count[keep],
                                          use_head[keep])
        # each row's runs as BidVector.from_runs merges them: the head's
        # positive runs, then the level unless it is empty, merged into the
        # head's last run when equal to it
        n_head = len(head.runs)
        run_values = np.zeros((len(level), n_head + 1))
        run_counts = np.zeros((len(level), n_head + 1), dtype=np.int64)
        col = np.where(use_head, n_head, 0)
        if n_head:
            run_values[use_head, :n_head] = [b for b, _ in head.runs]
            run_counts[use_head, :n_head] = [c for _, c in head.runs]
            col[use_head & (level == head.runs[-1][0])] = n_head - 1
        live = np.flatnonzero((level > 0) & (count > 0))
        run_values[live, col[live]] = level[live]
        run_counts[live, col[live]] += count[live]
        rows = np.sort(_distinct_rows([*run_values.T, *run_counts.T])[0])
        run_values, run_counts = run_values[rows], run_counts[rows]
        return (BidBatch(run_values, run_counts, m - run_counts.sum(axis=1)),
                origin[rows])

    def bid_batch(self, m: int) -> BidBatch:
        """The grid's distinct bid deviations for m units, in grid order."""
        return self._bid_rows(m)[0]

    def _bid_action(self, batch: BidBatch, origin: np.ndarray, j: int) -> Action:
        level, count, use_head = origin[j].tolist()
        return Action(bid=batch.vector(j),
                      label=f"bid{'+head' if use_head else ''} "
                            f"{self.bid_levels[level]}x{self.bid_counts[count]}")

    def _aftermarket_deviations(self) -> list[Action]:
        return ([Action(seller_price=p, label=f"price {p}") for p in self.seller_prices]
                + [Action(buyer_threshold=t, label=f"threshold {t}")
                   for t in self.buyer_thresholds])

    def deviations(self, m: int) -> list[Action]:
        """The on-path no-op, the bid deviations of `bid_batch(m)`, then the
        seller prices and buyer thresholds."""
        batch, origin = self._bid_rows(m)
        return ([Action(label="on-path")]
                + [self._bid_action(batch, origin, j) for j in range(len(batch))]
                + self._aftermarket_deviations())

    def describe(self) -> str:
        return (f"levels={len(self.bid_levels)} counts={len(self.bid_counts)} "
                f"head={self.head} prices={len(self.seller_prices)} "
                f"thresholds={len(self.buyer_thresholds)}")


def default_deviation_grid(m: int, role: str) -> DeviationGrid:
    """Deviation grid for the scripted speculation profiles: >= 1000 bid
    deviations per agent plus the aftermarket grid of `role`, one of
    "regular", "bulk" and "speculator"."""
    if role not in ("regular", "bulk", "speculator"):
        raise ValueError(f"role must be regular, bulk or speculator, not {role!r}")
    counts = sorted({int(c) for c in np.unique(np.geomspace(1, m, 32).round())}
                    | {c for c in (m - 3, m - 2, m - 1, m) if c >= 1} | {1, 2, 3})
    # enough bid levels that every role sees >= 1000 deviations
    n_levels = max(26, -(-1100 // len(counts)))
    levels = sorted(set(np.round(np.linspace(0.0, 2.4, n_levels), 6))
                    | {0.5 / m, 1.0 / (2 * m), 0.999, 1.0, 1.001, 2.0})
    prices = sorted(set(np.round(np.linspace(0.1, 1.4, 27), 6))
                    | {0.999, 1.0, 1.001, 1.0 + 1.0 / (2 * m)})
    thresholds = (0.5, 0.9, 1.0, 1.1, 1.3, 2.0)
    if role == "speculator":
        return DeviationGrid(tuple(levels), tuple(counts),
                             seller_prices=tuple(prices))
    return DeviationGrid(tuple(levels), tuple(counts), head=((2.0, 1),),
                         buyer_thresholds=thresholds)


@dataclass(frozen=True)
class GapResult:
    """Best deviation gain of one agent over a deviation grid.

    The interval-moment rule integrates the piecewise-multilinear
    constant-action integrand exactly, so the only error is floating-point
    rounding."""

    gap: float
    witness: Action
    equilibrium_utility: float
    n_deviations: int


@dataclass(frozen=True)
class BneReport:
    gaps: tuple[GapResult, ...]
    eps: float
    grid_description: str

    @property
    def verdict(self) -> bool:
        return all(g.gap <= self.eps for g in self.gaps)

    @property
    def max_gap(self) -> float:
        return max(g.gap for g in self.gaps)


def best_response_gap(game: CombinedGame, agent: int,
                      grid: DeviationGrid) -> GapResult:
    """Max over grid deviations of (deviation expected utility - equilibrium
    expected utility), with the first best deviation in grid order as
    witness. The on-path no-op, the grid's prices and its thresholds score
    in one `utilities` row, and its bid rows in one `bid_utilities` call."""
    ev = game.evaluator()
    witness, aftermarket = Action(label="on-path"), grid._aftermarket_deviations()
    base, *utils = ev.utilities(agent, [witness, *aftermarket]).tolist()
    best = base
    batch, origin = grid._bid_rows(game.market.m)
    if len(batch):
        bid_utils = ev.bid_utilities(agent, batch)
        j = int(np.argmax(bid_utils))
        if bid_utils[j] > best:
            best, witness = float(bid_utils[j]), grid._bid_action(batch, origin, j)
    for dev, u in zip(aftermarket, utils):
        if u > best:
            best, witness = u, dev
    return GapResult(best - base, witness, base, 1 + len(batch) + len(aftermarket))


def verify_bne(game: CombinedGame,
               grids: Union[DeviationGrid, Mapping[int, DeviationGrid]],
               eps: float) -> BneReport:
    """best_response_gap for every agent; verdict = all gaps <= eps."""
    results = []
    descs = []
    for i in range(game.market.n):
        grid = grids[i] if isinstance(grids, Mapping) else grids
        results.append(best_response_gap(game, i, grid))
        descs.append(f"agent{i}:{grid.describe()}")
    return BneReport(tuple(results), eps, "; ".join(descs))


# -- scripted equilibria ---------------------------------------------------


def _scripted_speculation(market: MarketModel,
                          reserve: Optional[float] = None) -> CombinedGame:
    """The scripted profile in every (A, B, C) group of a market of m units
    and k groups: A and B bid 2 on one unit, the speculator C bids 1 on
    m/k - 2 units and posts resale price 1 to A and B of its group, who buy
    while marginal value covers the price. Labels carry the group number
    when k > 1."""
    m, k = market.m, len(market.groups)
    actions, groups = [], []
    for g, (a, b, c) in enumerate(market.groups):
        tag = str(g) if k > 1 else ""
        actions += [Action(bid=BidVector.flat(2.0, 1, m), label="A" + tag),
                    Action(bid=BidVector.flat(2.0, 1, m), label="B" + tag),
                    Action(bid=BidVector.flat(1.0, m // k - 2, m), seller_price=1.0,
                           label="C" + tag)]
        groups.append((c, (a, b)))
    return CombinedGame(market, Mechanism("uniform", reserve=reserve),
                        ResaleSpec(tuple(groups)), tuple(actions))


def scripted_lower_bound_equilibrium(m: int,
                                     reserve: Optional[float] = None) -> CombinedGame:
    """The scripted profile on `lower_bound_market(m)`: the speculator wins
    m - 2 units and resells them to A and B at price 1."""
    return _scripted_speculation(lower_bound_market(m), reserve)


def scripted_grouped_equilibrium(m: int, gamma: float) -> CombinedGame:
    """The scripted profile on `grouped_market(m, gamma)`: each of the k
    speculators wins m/k - 2 <= gamma*m units and resells only within its
    group."""
    return _scripted_speculation(grouped_market(m, gamma))


# -- weak-dominance witnesses ----------------------------------------------


# how far apart two witness utilities must be for one to count as better
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class DominanceReport:
    agent: int
    label: str
    scripted_utility: float
    alternative_utility: float

    @property
    def not_weakly_dominated(self) -> bool:
        return self.scripted_utility > self.alternative_utility + STRICT_MARGIN


def weak_dominance_witness(evaluator: ConstantActionEvaluator, agent: int,
                           alternative: Action, witness: Mapping[int, Action],
                           label: str = "") -> DominanceReport:
    """Score the scripted action and `alternative` against the `witness`
    opponents in one `evaluator.utilities` row: the alternative does not
    weakly dominate the scripted action if the scripted one is strictly
    better there."""
    scripted, alt = evaluator.utilities(agent, [Action(), alternative], witness).tolist()
    return DominanceReport(agent, label, scripted, alt)


def dominance_witness_suite(game: CombinedGame):
    """The three witness families for the speculator and the two families for
    each of A and B, each as (label, agent, alternative, witness opponents).
    The witnesses are the one-group game's (agents 0, 1, 2 and the whole
    market's m units), so any other grouping raises ValueError."""
    if game.market.groups != ((0, 1, 2),):
        raise ValueError("the dominance witnesses need a market of one (A, B, C) "
                         f"group, agents (0, 1, 2), not groups {game.market.groups}")
    m = game.market.m
    eps = 0.01 / m
    inf = NO_OFFER
    cases = []
    # speculator: bidding on fewer units forfeits the sale to A
    cases.append((
        "C fewer units", 2, Action(bid=BidVector.flat(1.0, m - 3, m)),
        {0: Action(bid=BidVector.flat(eps, 2, m)),
         1: Action(bid=BidVector.flat(1.0, 1, m))}))
    # speculator: bidding b < 1 loses one unit to A at essentially the same price
    b = 0.5
    cases.append((
        "C lower bid", 2, Action(bid=BidVector.flat(b, m - 2, m)),
        {0: Action(bid=BidVector.flat(b + eps, 2, m)),
         1: Action(bid=BidVector.flat(1.0, 1, m))}))
    # speculator: positive bids on the remaining units only raise the price
    cases.append((
        "C extra units", 2, Action(bid=BidVector.flat(1.0, m - 1, m)),
        {}))  # on-path opponents already make demand exactly m
    # A: underbidding the first unit loses it to a competitor bidding in between
    cases.append((
        "A underbid", 0, Action(bid=BidVector.flat(1.5, 1, m)),
        {1: Action(bid=BidVector.from_runs((), m)),
         2: Action(bid=BidVector.flat(1.75, m, m), seller_price=inf)}))
    # A: a nonzero bid on a second unit only raises the price paid
    cases.append((
        "A extra unit", 0, Action(bid=BidVector.from_runs(((2.0, 1), (0.5, 1)), m)),
        {1: Action(bid=BidVector.from_runs((), m)),
         2: Action(bid=BidVector.flat(2.0, m - 1, m), seller_price=inf)}))
    # B: same two families
    cases.append((
        "B underbid", 1, Action(bid=BidVector.flat(1.5, 1, m)),
        {0: Action(bid=BidVector.from_runs((), m)),
         2: Action(bid=BidVector.flat(1.75, m, m), seller_price=inf)}))
    cases.append((
        "B extra unit", 1, Action(bid=BidVector.from_runs(((2.0, 1), (0.5, 1)), m)),
        {0: Action(bid=BidVector.from_runs((), m)),
         2: Action(bid=BidVector.flat(2.0, m - 1, m), seller_price=inf)}))
    return cases


def run_dominance_suite(game: CombinedGame) -> list[tuple[str, DominanceReport]]:
    """Every case of `dominance_witness_suite`, all scored on one evaluator,
    so a block's cells are cut once per distinct cut."""
    ev = game.evaluator()
    return [(label, weak_dominance_witness(ev, agent, alt, witness, label))
            for label, agent, alt, witness in dominance_witness_suite(game)]


# -- single-item interim curves and the symmetric first-price check --------


def interim_curves(dists: Sequence[UnitDistribution],
                   bid_fns: Sequence[Callable[[np.ndarray], np.ndarray]], agent: int,
                   value_grid: Sequence[float]):
    """Interim allocation and payment curves of a single-item first-price
    auction under monotone bid functions, plus the Myerson payment-identity
    residual
    p(v) - p(lo) = v x(v) - lo x(lo) - int_lo^v x(z) dz.

    Bid functions are called with numpy arrays of values and must return
    arrays of bids of the same shape. The integral is the cumulative Kronrod
    rule of `distributions` (`_cumulative_integral`), cut at the kinks of the
    agent's distribution, which also evaluates x at lo and on the grid."""
    if len(dists) != 2 or len(bid_fns) != 2:
        raise ValueError("single-item market with two agents required")
    other = 1 - agent
    lo_o, hi_o = dists[other].support
    lo, _ = dists[agent].support
    grid = np.asarray(value_grid, dtype=float)

    def wins(z):
        bids = bid_fns[agent](z)
        # the agent wins on ties only when its index is lower
        target = np.nextafter(bids, np.inf) if agent == 0 else bids
        return dists[other].cdf(_monotone_inverse(bid_fns[other], target, lo_o, hi_o))

    points = np.concatenate(([lo], grid))
    if not np.all(np.isfinite(points)):
        raise ValueError("interim curves need a finite support start and value grid")
    x, integral = _cumulative_integral(wins, lo, grid, dists[agent].kinks, points)
    p = bid_fns[agent](points) * x
    xs, ps = x[1:], p[1:]
    residuals = (ps - p[0]) - (grid * xs - lo * x[0] - integral)
    return xs, ps, residuals


def symmetric_fpa_bid(dist: UnitDistribution, v):
    """b(v) = E[V' | V' < v] for atomless F (the symmetric equilibrium bid),
    elementwise over arrays of v."""
    lo, _ = dist.support
    mass = np.asarray(dist.cdf(v))
    out = np.full(mass.shape, lo, dtype=float)
    return np.divide(dist.partial_mean(lo, v), mass, out=out, where=mass > 0.0)[()]


# nodes per kink piece of the tabulated symmetric first-price bid, evenly
# spaced in value and again in probability
BID_TABLE_POINTS = 1024


def _bid_table_nodes(dist: UnitDistribution) -> np.ndarray:
    """Per kink piece [a, c] of `dist`: N + 1 values evenly spaced on [a, c]
    and the quantiles of N + 1 probabilities evenly spaced over [F(a), F(c)],
    N = BID_TABLE_POINTS; sorted and unique."""
    parts = []
    for a, c in zip(dist.kinks, dist.kinks[1:]):
        parts.append(np.linspace(a, c, BID_TABLE_POINTS + 1))
        u = np.linspace(*dist.cdf(np.array([a, c])), BID_TABLE_POINTS + 1)
        parts.append(np.clip(dist.quantile(u[u < 1.0]), a, c))
    return np.unique(np.concatenate(parts))


def _tabulated_fpa_bid(dist: UnitDistribution):
    """The interpolant b-hat of `symmetric_fpa_bid` on `_bid_table_nodes`, and
    its measured error: the largest |b-hat - b| over the cell midpoints."""
    nodes = _bid_table_nodes(dist)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    exact = symmetric_fpa_bid(dist, np.concatenate((nodes, mids)))

    def b_hat(v):
        return np.interp(v, nodes, exact[:nodes.size])

    return b_hat, float(np.max(np.abs(b_hat(mids) - exact[nodes.size:])))


@dataclass(frozen=True)
class SymmetricFpaReport:
    gap: float
    efficiency: float
    max_payment_residual: float
    n_samples: int
    bid_table_error: float

    def passes(self, eps: float) -> bool:
        return (self.gap <= eps and self.efficiency >= 0.999
                and self.max_payment_residual <= 1e-6)


def symmetric_fpa_check(dist: UnitDistribution, value_points: int = 21,
                        bid_points: int = 401, samples: int = 20000,
                        seed: int = 0) -> SymmetricFpaReport:
    """Check that (b, b) with b(v) = E[V'|V'<v] is an (approximate) BNE of the
    first-price combined market whose ex-post-IR resale never trades on path,
    and that the final allocation is efficient on sampled profiles.

    b is evaluated exactly once per check, on a table: per kink piece of
    `dist`, N + 1 values evenly spaced in value plus the quantiles of N + 1
    probabilities evenly spaced over the piece (N = BID_TABLE_POINTS). Every
    use of b in the check (on-path bids, b(hi), the deviation win
    probabilities, the efficiency sample and the interim curves) plays the
    piecewise-linear interpolant b-hat, which is exact where b is linear
    (Uniform). `bid_table_error` is the largest |b-hat - b| over the table's
    cell midpoints, with b exact; the payment residual carries it too."""
    if dist.atoms():
        raise ValueError("requires an atomless distribution")
    if min(value_points, bid_points, samples) < 1:
        raise ValueError("value_points, bid_points and samples must be >= 1")
    lo, hi = dist.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("requires bounded support")
    b, table_error = _tabulated_fpa_bid(dist)

    values = np.linspace(lo, hi, value_points)
    bids = np.linspace(lo, b(hi), bid_points)
    on_bids = b(values)
    # deviator is agent 0: wins ties against the identical opponent
    targets = np.nextafter(np.concatenate((on_bids, bids)), np.inf)
    win = dist.cdf(_monotone_inverse(b, targets, lo, hi))
    on_path = (values - on_bids) * win[:value_points]
    best = np.max((values[:, None] - bids[None, :]) * win[None, value_points:], axis=1)
    gap = float(np.max(best - on_path))

    v0, v1 = draw_values(symmetric_fpa_market(dist), samples, seed).T
    scale = np.maximum(1.0, np.maximum(np.abs(v0), np.abs(v1)))
    ties = np.abs(v0 - v1) < 1e-12 * scale
    # agent 0 wins ties
    winner0 = b(v0) >= b(v1)
    eff = int(np.sum(~ties & (winner0 == (v0 > v1))))
    counted = samples - int(np.sum(ties))

    grid = np.linspace(lo + 1e-9 * (hi - lo) if lo == 0 else lo, hi, value_points)
    _, _, residuals = interim_curves((dist, dist), (b, b), 0, grid)
    return SymmetricFpaReport(gap, eff / counted if counted else 1.0,
                              float(np.max(np.abs(residuals))), samples,
                              table_error)


# -- best-response dynamics ------------------------------------------------


class TabularGame:
    """Finite game interface for best-response dynamics. `utilities(agent,
    profile)` is the agent's row: its utility for every action of
    `action_set(agent)`, in set order, against the others' actions in
    `profile` (the agent's own entry is ignored)."""

    @property
    def n_agents(self) -> int:
        raise NotImplementedError

    def action_set(self, agent: int) -> Sequence:
        raise NotImplementedError

    def utilities(self, agent: int, profile: tuple) -> Sequence[float]:
        raise NotImplementedError


class CombinedTabularGame(TabularGame):
    """Constant-action combined market restricted to finite action sets."""

    def __init__(self, game: CombinedGame, action_sets: Sequence[Sequence[Action]]):
        self.game = game
        self._sets = [list(s) for s in action_sets]
        self._ev = game.evaluator()
        self._rows: dict = {}

    @property
    def n_agents(self) -> int:
        return self.game.market.n

    def action_set(self, agent: int):
        return self._sets[agent]

    def utilities(self, agent: int, profile: tuple) -> tuple[float, ...]:
        """The agent's row, kept per (agent, others' actions); a new row is
        one `ConstantActionEvaluator.utilities` row over the action set."""
        key = (agent, profile[:agent] + profile[agent + 1:])
        if key not in self._rows:
            self._rows[key] = tuple(self._ev.utilities(
                agent, self._sets[agent], dict(enumerate(profile))).tolist())
        return self._rows[key]

    def expected_welfare(self, actions: tuple) -> float:
        return self._ev.expected_welfare({i: a for i, a in enumerate(actions)})


@dataclass(frozen=True)
class BrdResult:
    """`n_converged` counts the distinct fixed points, `n_cycles` the starts
    that revisit a profile without converging; a start that reaches
    `BRD_MAX_ITERS` rounds without revisiting a profile is in neither."""

    fixed_points: tuple[tuple, ...]
    n_converged: int
    n_cycles: int
    iterations: tuple[int, ...]


# best-response rounds per start before a run is given up as unconverged
BRD_MAX_ITERS = 200


def best_response_dynamics(game: TabularGame, inits: Sequence[tuple]) -> BrdResult:
    """Iterated best responses; returns the distinct fixed points and a
    cycle diagnostic for runs that revisit a profile without converging.
    Each agent step reads the agent's row once and switches only to an
    action that beats the running best, starting at the current action, by
    more than 1e-12 * max(1, |u|): the first such action in set order. An
    init action outside its agent's set raises ValueError."""
    fixed, iters, cycles = [], [], 0
    for init in inits:
        profile = tuple(init)
        seen = {profile}
        for it in range(1, BRD_MAX_ITERS + 1):
            changed = False
            for i in range(game.n_agents):
                actions = game.action_set(i)
                row = game.utilities(i, profile)
                current = best = actions.index(profile[i])
                for j, u in enumerate(row):
                    if u > row[best] + 1e-12 * max(1.0, abs(row[best])):
                        best = j
                if best != current:
                    profile = profile[:i] + (actions[best],) + profile[i + 1:]
                    changed = True
            if not changed:
                if profile not in fixed:
                    fixed.append(profile)
                break
            if profile in seen:
                cycles += 1
                break
            seen.add(profile)
        iters.append(it)
    return BrdResult(tuple(fixed), len(fixed), cycles, tuple(iters))
