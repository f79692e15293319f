"""(lambda, mu)-smoothness certificates: randomized deviation generators,
finite-domain certificate checking, the auction games (each states only its
clearing and its deviation kernel; the single-item games are the only code
with number bids, which they clear as one-unit bid schedules), their lift
`LiftedGame` to the auction followed by winner-led resale rounds (Syrgkanis
& Tardos, STOC 2013) with the certificate lift, the explicit
first-price/discriminatory deviations, price-of-anarchy bounds, and the
uniform-price overbidding counterexample.

A game is (lambda, mu)-smooth if for every valuation profile v there are
(possibly randomized) deviations a*_i(v) with
    sum_i E[u_i(a*_i(v), a_{-i}; v)] >= lambda * OPT(v) - mu * Rev(a)
for every action profile a. Semi-smoothness restricts a*_i to depend on v_i
only. Certificates are checked on finite domains: the reported slack is the
minimum of LHS - lambda*OPT + mu*Rev over the domain. A deviation is two
arrays, a support (bids or a BidBatch) and probabilities. Per value profile
and agent, `deviation_utilities` clears all its atoms against every profile
of the opponents' distinct actions at once (in bounded blocks), taking the
support as the deviation built it, and `revenues` reads every action
profile's revenue off the same kernel. The certificate lift leaves
deviations as they are: a bare bid opts out of resale.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable, Optional, Sequence

import numpy as np

from .aftermarket import (NO_OFFER, ResaleSpec, ThresholdBuyer,
                          _distinct_rows, run_posted_resale)
from .allocation import opt_allocation
from .auctions import (BidBatch, BidVector, _product_columns, all_pay,
                       discriminatory, discriminatory_units_won, uniform_price)
from .distributions import _expectations, _left_sum, _running_total
from .valuations import MarginalValuation, ValuationBatch

ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """Finite-support distribution: atom j plays support[j] (a tuple of
    actions, a float array of bids or a BidBatch) with probability probs[j]."""

    support: object
    probs: np.ndarray

    def __post_init__(self):
        total = float(_running_total(0.0, self.probs))
        if not (abs(total - 1.0) <= 1e-9 and (self.probs >= -1e-15).all()  # NaN fails
                and len(self.probs) == len(self.support)):
            raise ValueError(f"need one probability >= 0 per atom, sum 1, not {total}")

    @classmethod
    def point(cls, action) -> "FiniteDist":
        return cls((action,), np.ones(1))


@dataclass(frozen=True)
class SmoothnessCertificate:
    """(lam, mu) plus a deviation generator. A generator of arity
    (agent, value_profile) certifies smoothness; arity (agent, own_value)
    certifies semi-smoothness (the deviation cannot see opponents' values).
    The arity is checked once, at construction."""

    lam: float
    mu: float
    generator: Callable[..., FiniteDist]
    name: str = ""
    semi: bool = field(init=False, repr=False)

    def __post_init__(self):
        params = [p for p in inspect.signature(self.generator).parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if len(params) != 2:
            raise ValueError("generator must take (agent, value_profile) or "
                             "(agent, own_value)")
        object.__setattr__(self, "semi", params[1].name in (
            "own_value", "own_valuation", "value", "valuation"))

    def deviation(self, agent: int, values: tuple) -> FiniteDist:
        if self.semi:
            return self.generator(agent, values[agent])
        return self.generator(agent, values)


# -- game wrappers ---------------------------------------------------------


class SmoothableGame:
    """Complete-information normal form: utilities and designer revenue for a
    (value profile, action profile) pair, plus the optimal welfare.

    `check_smooth` asks a game for `deviation_utilities` and `revenues`
    over products of action sets. The base class calls
    `utilities_and_revenue` once per atom and profile, so a game defined
    elsewhere needs only the two methods above. The auction games and their
    lifts clear whole products at once and must return exactly what the
    base class would."""

    n_agents: int

    def utilities_and_revenue(self, values: tuple, actions: tuple):
        raise NotImplementedError

    def opt_welfare(self, values: tuple) -> float:
        raise NotImplementedError

    def deviation_utilities(self, values: tuple, sets: Sequence, agent: int,
                            atoms) -> np.ndarray:
        """Utility of `agent` playing each atom of the support `atoms` (a
        tuple of actions, a float array of bids or a BidBatch) against every
        profile of the others' sets in `sets` (one action set per agent, its
        own not read): an (opponents' profiles x atoms) array, in product
        order."""
        return np.array(
            [[self.utilities_and_revenue(values, row[:agent] + (d,) + row[agent:])[0][agent]
              for d in atoms] for row in product(*sets[:agent], *sets[agent + 1:])],
            dtype=float)

    def revenues(self, values: tuple, sets: Sequence) -> np.ndarray:
        """The designer revenue of every profile of product(*sets), in order."""
        return np.array([self.utilities_and_revenue(values, actions)[1]
                         for actions in product(*sets)], dtype=float)


class AuctionGame(SmoothableGame):
    """A sealed-bid auction of m units, stated by two rules: `clear(bids)`
    and `units_and_payments(sets, agent, atoms)`, the units and payment of
    `agent` for each atom against each opponents' profile, as `clear` gives
    them, shaped as `deviation_utilities`. Utility is the worth of the units
    won less the payment. Values are MarginalValuations and bids BidVectors
    unless a subclass says otherwise."""

    def __init__(self, n_agents: int, m: int):
        self.n_agents = n_agents
        self.m = m

    def valuation(self, value) -> MarginalValuation:
        return value

    def worth(self, value, units):
        """What holding `units` units, an int or an int array, is worth."""
        if isinstance(units, np.ndarray):
            return np.array([value.value(k) for k in range(self.m + 1)],
                            dtype=float)[units]
        return value.value(units)

    def opt_welfare(self, values):
        return opt_allocation([self.valuation(v) for v in values], self.m)[1]

    def utilities_and_revenue(self, values, actions):
        out = self.clear(list(actions))
        utils = tuple(self.worth(values[i], out.alloc[i]) - out.payments[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def deviation_utilities(self, values, sets, agent, atoms):
        units, payments = self.units_and_payments(sets, agent, atoms)
        return self.worth(values[agent], units) - payments

    def revenues(self, values, sets):
        """Each agent's payments, its own actions as the atoms, added in agent
        order by `_left_sum`, as AuctionOutcome.revenue adds them."""
        return _left_sum(self.units_and_payments(sets, i, own)[1][_split(sets, i)]
                         for i, own in enumerate(sets))


def _one_unit_bids(bids) -> list[BidVector]:
    """Number bids as the one-unit schedules the auctions clear."""
    if not all(0 <= b < math.inf for b in bids):
        raise ValueError("bids must be finite and nonnegative")
    return [BidVector.flat(b, 1, 1) for b in bids]


class SingleItemFirstPrice(AuctionGame):
    """One item; values and bids are numbers. It clears as the
    discriminatory auction of one unit."""

    def __init__(self, n_agents: int):
        super().__init__(n_agents, 1)

    def clear(self, bids):
        return discriminatory(_one_unit_bids(bids), 1)

    def units_and_payments(self, sets, agent, atoms):
        """The tie rule on numbers: a deviation d wins iff it beats every
        lower index's bid and at least meets every higher index's; it pays
        d when it wins. Other agents' bids and the atoms are checked as
        `clear` checks them; the agent's own set is not read."""
        atoms = np.asarray(atoms, dtype=float)
        others = [np.asarray(s, dtype=float) for j, s in enumerate(sets) if j != agent]
        checked = np.concatenate((atoms.ravel(), *others))
        if not np.all((0 <= checked) & (checked < math.inf)):
            raise ValueError("bids must be finite and nonnegative")
        ahead = behind = np.full(math.prod(len(s) for s in others), -math.inf)
        for j, (bids, column) in enumerate(zip(others, _product_columns(others))):
            if j < agent:
                ahead = np.maximum(ahead, bids[column])
            else:
                behind = np.maximum(behind, bids[column])
        wins = (atoms > ahead[:, None]) & (atoms >= behind[:, None])
        return wins.astype(np.int64), np.where(wins, atoms, 0.0)

    def valuation(self, value):
        return MarginalValuation([value])

    def worth(self, value, units):
        return value * units


class SingleItemAllPay(SingleItemFirstPrice):
    """First price, except that every bidder pays its bid."""

    def clear(self, bids):
        return all_pay(_one_unit_bids(bids), 1)

    def units_and_payments(self, sets, agent, atoms):
        units = super().units_and_payments(sets, agent, atoms)[0]
        return units, np.broadcast_to(np.asarray(atoms, dtype=float), units.shape)


class MultiUnitDiscriminatory(AuctionGame):
    """m units; each winner pays its winning marginal bids."""

    def clear(self, bids):
        return discriminatory(bids, self.m)

    def units_and_payments(self, sets, agent, atoms):
        if not isinstance(atoms, BidBatch):  # a tuple of BidVectors
            atoms = BidBatch.of(atoms)
        return discriminatory_units_won(sets, agent, atoms, self.m)


# -- the lift to auction + aftermarket rounds ------------------------------


OPT_OUT = "opt-out"


@dataclass(frozen=True)
class RoundAction:
    """Active participation in one aftermarket round: the price posted when
    holding the item, and the purchase threshold otherwise (None = buy
    whenever value >= price)."""

    seller_price: float = math.inf
    buyer_threshold: Optional[float] = None


@dataclass(frozen=True)
class LiftedAction:
    """Auction action plus one aftermarket action per resale round; OPT_OUT
    keeps holdings and makes no trades in that round."""

    auction: object
    rounds: tuple = ()


def _bid(action):
    return action.auction if isinstance(action, LiftedAction) else action


def _offers(action, rounds: int) -> tuple:
    """The (seller price, buyer threshold) of `action` in each of `rounds`
    rounds. OPT_OUT, a bare bid, or a round past the action's own neither
    offers nor buys; a threshold of None is -inf."""
    own = action.rounds[:rounds] if isinstance(action, LiftedAction) else ()
    return tuple((NO_OFFER, NO_OFFER) if a is OPT_OUT else (
        a.seller_price, -math.inf if a.buyer_threshold is None else a.buyer_threshold)
        for a in own) + ((NO_OFFER, NO_OFFER),) * (rounds - len(own))


class LiftedGame(SmoothableGame):
    """An auction game followed by `rounds` winner-led posted resale rounds,
    the composition of Syrgkanis & Tardos (STOC 2013). Actions are auction
    bids or LiftedActions. Utility is the worth of the final holding less
    the auction payment and the resale transfers; designer revenue is the
    auction revenue, since resale transfers move between agents only."""

    def __init__(self, auction: AuctionGame, rounds: int = 1):
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 0:
            raise ValueError(f"rounds must be a nonnegative int, not {rounds!r}")
        self.auction = auction
        self.rounds = rounds
        self.n_agents = auction.n_agents

    def opt_welfare(self, values):
        return self.auction.opt_welfare(values)

    def utilities_and_revenue(self, values, actions):
        out = self.auction.clear([_bid(a) for a in actions])
        held, transfers = self._resell(values, np.array([out.alloc.counts]), [actions])
        held, transfers = held[0].tolist(), transfers[0].tolist()
        utils = tuple(self.auction.worth(values[i], held[i]) - out.payments[i]
                      - transfers[i] for i in range(self.n_agents))
        return utils, out.revenue

    def revenues(self, values, sets):
        """The auction's revenues; no profile is resold, so every seller
        price is checked here as `run_posted_resale` checks a sale's."""
        if not all(p >= 0 for s in sets for a in s for p, _ in _offers(a, self.rounds)):
            raise ValueError("seller price must be nonnegative")
        return self.auction.revenues(values, [[_bid(a) for a in s] for s in sets])

    def _resell(self, values, alloc: np.ndarray, rows: Sequence[tuple]):
        """The resale rounds on the K x n auction allocations `alloc`, row k
        played by the action profile rows[k], each round one batch: the
        final holdings and the summed transfers, K x n each."""
        profile = [ValuationBatch.of([self.auction.valuation(v)] * len(rows))
                   for v in values]
        offers = np.array([[_offers(a, self.rounds) for a in row] for row in rows],
                          dtype=float).reshape(len(rows), self.n_agents, self.rounds, 2)
        transfers = np.zeros(alloc.shape)
        for r in range(self.rounds):
            trade = run_posted_resale(
                alloc, ResaleSpec.winner_resale(), dict(enumerate(offers[:, :, r, 0].T)),
                {i: ThresholdBuyer(t) for i, t in enumerate(offers[:, :, r, 1].T)},
                profile, self.auction.m)
            alloc, transfers = trade.final_alloc, transfers + trade.transfers
        return alloc, transfers

    def deviation_utilities(self, values, sets, agent, atoms):
        """The auction's kernel gives each (opponents' profile, atom) pair's
        units and payment. Under the one tie rule the opponents' holdings
        depend only on the units the deviator wins, so the pairs group by
        (profile, units, round plan): one clearing per group gives its
        allocation, and all groups resell in one `_resell` batch. A bid array
        or a BidBatch holds bare bids, so it has one plan: no offers."""
        if isinstance(atoms, (np.ndarray, BidBatch)):
            bids, plan = atoms, np.zeros(len(atoms), dtype=np.int64)
        else:  # a tuple of actions
            plans: dict = {}
            plan = np.array([plans.setdefault(_offers(a, self.rounds), len(plans))
                             for a in atoms], dtype=np.int64)
            bids = tuple(_bid(a) for a in atoms)
        units, payments = self.auction.units_and_payments(
            [[_bid(a) for a in s] for s in sets], agent, bids)
        others = list(product(*sets[:agent], *sets[agent + 1:]))
        row, atom = np.divmod(np.arange(units.size), len(plan))
        first, inverse = _distinct_rows([row, units.ravel(), plan[atom]])
        rows = [others[r][:agent] + (atoms[j],) + others[r][agent:]
                for r, j in zip(row[first].tolist(), atom[first].tolist())]
        alloc = np.array([self.auction.clear([_bid(a) for a in row]).alloc.counts
                          for row in rows])
        held, transfers = self._resell(values, alloc, rows)
        worth = self.auction.worth(values[agent], held[:, agent])
        return ((worth[inverse] - payments.ravel())
                - transfers[inverse, agent]).reshape(units.shape)


def CombinedSingleItemGame(n_agents: int, rounds: int = 1) -> LiftedGame:
    """The single-item first-price auction followed by `rounds` resale rounds."""
    return LiftedGame(SingleItemFirstPrice(n_agents), rounds)


def lift_certificate_to_combined(cert: SmoothnessCertificate) -> SmoothnessCertificate:
    """Same (lam, mu) and the same deviations for the combined game: a bare
    bid makes no offer and no purchase in any resale round, so the deviator's
    combined utility is her auction utility and designer revenue is unchanged."""
    return SmoothnessCertificate(cert.lam, cert.mu, cert.generator,
                                 name=(cert.name + "+lift").strip("+"))


# -- explicit deviations ---------------------------------------------------


def fpa_deviation(own_value: float, resolution: int = 200) -> FiniteDist:
    """Discretized single-item first-price deviation certifying
    (1 - 1/e, 1): support y_k = (1-1/e) v k/res with the telescoping masses
    ln((v - y_k)/(v - y_{k+1})); in the continuum E[(v - y) 1{y > B}] =
    (1-1/e) v - B for any opponent bid B below the support top.

    Discretization bound: each cell's mass sits at its lower end, which
    earns more when it wins and loses only in the one cell that holds B (or
    starts at B and loses the tie). So for every opponent bid the deviation
    loses at most (1-1/e) v / resolution against the continuum, and a
    (1-1/e, 1) check has slack >= -(1-1/e) max(v) / resolution: -3.16e-4 for
    max(v) = 1 at resolution 2000. The support is a float array; each mass
    is a `math.log`, which np.log differs from by an ulp on some atoms."""
    v = float(own_value)
    top = ONE_MINUS_INV_E * v
    if resolution < 1 or not math.isfinite(v) or top == v > 0.0:
        raise ValueError(f"need a finite value above 5e-324 and a resolution "
                         f">= 1, not {v} and {resolution}")
    if v <= 0.0:
        return FiniteDist.point(0.0)
    ys = top * np.arange(resolution + 1) / resolution
    masses = np.array([math.log(x) for x in ((v - ys[:-1]) / (v - ys[1:])).tolist()])
    return FiniteDist(ys[:-1], masses / _running_total(0.0, masses))


def fpa_deviation_generator(resolution: int = 200):
    def gen(agent, own_value):
        return fpa_deviation(own_value, resolution)
    return gen


def discriminatory_deviation(own_valuation: MarginalValuation, m: int,
                             resolution: int = 200) -> FiniteDist:
    """Multi-unit discriminatory deviation certifying (1 - 1/e, 1)-semi-
    smoothness: one shared draw u ~ U[0,1] sets the bid v_j (1 - e^{-u}) on
    every unit j, keeping marginal bids non-increasing. The support is one
    BidBatch, row k the valuation's runs scaled by 1 - e^{-k/res}, merged as
    BidVector merges them: zero bids are padding, and runs whose bids round
    to one value are one run."""
    values = np.array([v for v, _ in own_valuation.runs], dtype=float)
    counts = np.array([c for _, c in own_valuation.runs], dtype=np.int64)
    if resolution < 1 or not np.isfinite(values).all() or counts.sum() > m:
        raise ValueError(f"need at most m = {m} finite marginals and a resolution >= 1")
    bids = np.array([1.0 - math.exp(-(k / resolution))
                     for k in range(resolution)])[:, None] * values
    rows, cols = np.nonzero(bids > 0)
    # bids are non-increasing: a run starts wherever the bid drops
    run = np.cumsum(np.diff(bids, prepend=math.inf) < 0, axis=1)[rows, cols] - 1
    run_values = np.zeros((resolution, run.max(initial=-1) + 1))
    run_counts = np.zeros(run_values.shape, dtype=np.int64)
    run_values[rows, run] = bids[rows, cols]
    np.add.at(run_counts, (rows, run), counts[cols])
    return FiniteDist(BidBatch(run_values, run_counts, m - run_counts.sum(axis=1)),
                      np.full(resolution, 1.0 / resolution))


def discriminatory_deviation_generator(m: int, resolution: int = 200):
    def gen(agent, own_valuation):
        return discriminatory_deviation(own_valuation, m, resolution)
    return gen


# -- checking --------------------------------------------------------------


# the most action profiles a check domain may enumerate
MAX_ACTION_PROFILES = 200_000
# the most (opponents' profiles x atoms) entries a deviation kernel call clears
BLOCK_ENTRIES = 1 << 16


def _distinct(sets):
    """Each action set with its repeats dropped (first occurrences kept),
    and for every profile of product(*sets), in order, the position of its
    distinct profile in product(*distinct)."""
    index = [{a: p for p, a in enumerate(dict.fromkeys(s))} for s in sets]
    profile_of = 0
    for ix, actions, column in zip(index, sets, _product_columns(sets)):
        position = np.array([ix[a] for a in actions], dtype=np.int64)
        profile_of = profile_of * len(ix) + position[column]
    return [tuple(ix) for ix in index], profile_of


def _split(sets, agent: int):
    """For every profile of product(*sets), in order: the row of its
    opponents' actions in the product of the others' sets, and the
    position of the agent's own action in sets[agent]."""
    rows, own = 0, 0
    for j, column in enumerate(_product_columns(sets)):
        if j == agent:
            own = column
        else:
            rows = rows * len(sets[j]) + column
    return rows, own


def _blocks(sets, agent: int, width: int):
    """The product of the sets other than sets[agent] as sub-products (lists
    of sets, sets[agent] kept), consecutive in product order, each of at
    most BLOCK_ENTRIES // width profiles or of one: a product too large is
    halved at its first set of more than one action."""
    split = [j for j, s in enumerate(sets) if j != agent and len(s) > 1]
    if not split or math.prod(len(sets[j]) for j in split) * width <= BLOCK_ENTRIES:
        yield sets
        return
    j, half = split[0], len(sets[split[0]]) // 2
    for part in (sets[j][:half], sets[j][half:]):
        yield from _blocks([*sets[:j], part, *sets[j + 1:]], agent, width)


@dataclass(frozen=True)
class CheckDomain:
    """Finite check domain: valuation profiles crossed with the product of the
    per-agent action sets, at most MAX_ACTION_PROFILES of them."""

    value_profiles: tuple
    action_sets: tuple

    def action_profiles(self):
        total = math.prod(len(s) for s in self.action_sets)
        if total > MAX_ACTION_PROFILES:
            raise ValueError(f"{total} action profiles exceed the cap")
        return product(*self.action_sets)


@dataclass(frozen=True)
class SmoothnessReport:
    """The minimum slack and where it occurs. `n_deviation_keys` counts the
    expected deviation utilities computed (one per agent, value profile and
    distinct opponents' profile) and `n_deviation_atoms` the atoms summed."""

    min_slack: float
    worst_values: tuple
    worst_actions: tuple
    n_profiles_checked: int
    lam: float
    mu: float
    n_deviation_keys: int
    n_deviation_atoms: int

    def passes(self, tol: float = 0.0) -> bool:
        return self.min_slack >= -tol


def check_smooth(game: SmoothableGame, cert: SmoothnessCertificate,
                 domain: CheckDomain) -> SmoothnessReport:
    """Minimum certificate slack over the domain: one array entry per profile
    of the distinct actions (repeats in a set dropped), added up as the
    per-profile formula adds it on Python floats, each agent's expectations
    from `deviation_utilities` over blocks of the opponents' profiles. A
    domain with other than one action set and one value per agent, or with
    no pair to check (no value profile or an empty action set), or a NaN
    slack (the first in product order is named), raises ValueError."""
    min_slack = math.inf
    worst = ((), ())
    checked = n_keys = n_atoms = 0
    if len(domain.action_sets) != game.n_agents:
        raise ValueError(f"{len(domain.action_sets)} action sets for a game of "
                         f"{game.n_agents} agents")
    domain.action_profiles()  # checks the cap
    distinct, profile_of = _distinct(domain.action_sets)
    rows = [_split(distinct, i)[0] for i in range(game.n_agents)]
    for values in domain.value_profiles:
        if len(values) != game.n_agents:
            raise ValueError(f"value profile {values} of length {len(values)} "
                             f"for a game of {game.n_agents} agents")
        dists = [cert.deviation(i, values) for i in range(game.n_agents)]
        opt = game.opt_welfare(values)
        if not len(profile_of):
            continue
        rev = game.revenues(values, distinct)
        terms = []
        for i, dist in enumerate(dists):
            blocks = _blocks(distinct, i, len(dist.probs))
            expected = np.concatenate([_expectations(dist.probs, game.deviation_utilities(
                values, block, i, dist.support)) for block in blocks])
            n_keys += len(expected)
            n_atoms += len(expected) * len(dist.probs)
            terms.append(expected[rows[i]])
        with np.errstate(all="ignore"):  # as on Python floats; NaN raises below
            slack = (_left_sum(terms) - cert.lam * opt + cert.mu * rev)[profile_of]
        j = int(slack.argmin())  # the first NaN, if there is one
        actions = next(islice(product(*domain.action_sets), j, None))
        if math.isnan(slack[j]):
            raise ValueError(f"NaN slack at values {values}, actions {actions}")
        checked += len(slack)
        if slack[j] < min_slack:
            min_slack, worst = float(slack[j]), (values, actions)
    if not checked:
        raise ValueError("the domain has no (value profile, action profile) "
                         "pair to check")
    return SmoothnessReport(min_slack, worst[0], worst[1], checked,
                            cert.lam, cert.mu, n_keys, n_atoms)


def check_semi_smooth(game: SmoothableGame, cert: SmoothnessCertificate,
                      domain: CheckDomain) -> SmoothnessReport:
    """check_smooth restricted to semi-certificates (deviations that depend
    only on the agent's own valuation)."""
    if not cert.semi:
        raise ValueError("certificate generator must take (agent, own_value)")
    return check_smooth(game, cert, domain)


def poa_bound(lam: float, mu: float) -> float:
    """Robust price-of-anarchy bound max(1, mu) / lam implied by a
    (lam, mu)-smoothness certificate: 0 < lam < inf and 0 <= mu < inf."""
    if not (0 < lam < math.inf and 0 <= mu < math.inf):  # NaN too
        raise ValueError(f"requires 0 < lambda < inf and 0 <= mu < inf, not {lam} and {mu}")
    return max(1.0, mu) / lam


def uniform_price_overbidding_probe(lam: float, mu: float,
                                    ms: Sequence[int]) -> list[tuple[int, float]]:
    """Why no fixed (lam, mu) certificate exists for the uniform-price
    auction: against an opponent overbidding 10 on all m units with zero
    revenue, no deviation of the 1-per-unit bidder earns a positive utility,
    so the slack is at most -lam * m. Returns (m, slack upper bound) pairs
    computed from the best deviation over a bid grid."""
    rows = []
    for m in ms:
        values = (MarginalValuation.from_runs(((1.0, m),)), MarginalValuation([]))
        overbid = BidVector.flat(10.0, m, m)
        best = 0.0
        for level in (0.5, 1.0, 5.0, 10.0, 10.5, 20.0):
            for count in {1, m // 2 or 1, m}:
                out = uniform_price([BidVector.flat(level, count, m), overbid], m)
                best = max(best, values[0].value(out.alloc[0]) - out.payments[0])
        opt = opt_allocation(values, m)[1]
        rev = uniform_price([BidVector.from_runs((), m), overbid], m).revenue
        rows.append((m, best - lam * opt + mu * rev))
    return rows
