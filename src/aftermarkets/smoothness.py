"""(lambda, mu)-smoothness certificates: randomized deviation generators,
finite-domain certificate checking, the auction games (each states only its
clearing and its deviation kernel), their lift `LiftedGame` to the auction
followed by winner-led resale rounds (Syrgkanis & Tardos, STOC 2013) with
the certificate lift, the explicit first-price/discriminatory deviations,
price-of-anarchy bounds, and the uniform-price overbidding counterexample.

A game is (lambda, mu)-smooth if for every valuation profile v there are
(possibly randomized) deviations a*_i(v) with
    sum_i E[u_i(a*_i(v), a_{-i}; v)] >= lambda * OPT(v) - mu * Rev(a)
for every action profile a. Semi-smoothness restricts a*_i to depend on v_i
only. Certificates are checked on finite domains: the reported slack is the
minimum of LHS - lambda*OPT + mu*Rev over the domain. A deviation is two
arrays, a support (bids or a BidBatch) and probabilities; each expected
deviation utility is one `deviation_utilities` call over all its atoms, once
per (agent, value profile, opponents' actions) key. The certificate lift
leaves deviations as they are: a bare bid opts out of resale.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .aftermarket import (NO_OFFER, ResaleSpec, ThresholdBuyer,
                          _distinct_rows, run_posted_resale)
from .allocation import opt_allocation
from .auctions import (BidBatch, BidVector, all_pay_single, discriminatory,
                       discriminatory_units_won, first_price_deviation_wins,
                       first_price_single, uniform_price)
from .valuations import MarginalValuation, ValuationBatch

ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)


def _expectation(probs: np.ndarray, utils: np.ndarray) -> float:
    """The expectation sum(p * u), added in atom order by the built-in sum
    of Python floats (compensated from Python 3.12 on). np.sum and np.dot
    add pairwise and would change the last bits."""
    return sum((probs * utils).tolist())


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """Finite-support distribution: atom j plays support[j] (a tuple of
    actions, a float array of bids or a BidBatch) with probability probs[j]."""

    support: object
    probs: np.ndarray

    def __post_init__(self):
        total = sum(self.probs.tolist())
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

    `deviation_utilities` gives one agent's utility for each atom of a
    deviation while the others' actions stay fixed. The base class calls
    `utilities_and_revenue` once per atom, so a game defined elsewhere needs
    only the two methods above. The auction games and their lifts clear all
    atoms at once and must return exactly what the base class would."""

    n_agents: int

    def utilities_and_revenue(self, values: tuple, actions: tuple):
        raise NotImplementedError

    def opt_welfare(self, values: tuple) -> float:
        raise NotImplementedError

    def deviation_atoms(self, support: Sequence):
        """The deviation actions `support` in the form deviation_utilities
        takes; check_smooth converts each deviation once per value profile."""
        return tuple(support)

    def deviation_utilities(self, values: tuple, actions: tuple, agent: int,
                            atoms) -> np.ndarray:
        """Utility of `agent` playing each atom (as made by deviation_atoms)
        against the others' entries of `actions`."""
        head, tail = actions[:agent], actions[agent + 1:]
        return np.array([self.utilities_and_revenue(values, head + (d,) + tail)[0][agent]
                         for d in atoms], dtype=float)


class AuctionGame(SmoothableGame):
    """A sealed-bid auction of m units, stated by two rules: `clear(bids)`
    and `units_and_payments(bids, agent, atoms)`, the units and payment of
    `agent` for each deviation atom as `clear` gives them. Utility is the
    worth of the units won less the payment. Values are MarginalValuations
    and bids BidVectors unless a subclass says otherwise."""

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

    def deviation_atoms(self, support):
        return support if isinstance(support, BidBatch) else BidBatch.of(support)

    def utilities_and_revenue(self, values, actions):
        out = self.clear(list(actions))
        utils = tuple(self.worth(values[i], out.alloc[i]) - out.payments[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def deviation_utilities(self, values, actions, agent, atoms):
        units, payments = self.units_and_payments(actions, agent, atoms)
        return self.worth(values[agent], units) - payments


class SingleItemFirstPrice(AuctionGame):
    """One item; values and bids are numbers."""

    def __init__(self, n_agents: int):
        super().__init__(n_agents, 1)

    def clear(self, bids):
        return first_price_single(bids)

    def units_and_payments(self, bids, agent, atoms):
        wins = first_price_deviation_wins(bids, agent, atoms)
        return wins.astype(np.int64), np.where(wins, atoms, 0.0)

    def valuation(self, value):
        return MarginalValuation([value])

    def worth(self, value, units):
        return value * units

    def deviation_atoms(self, support):
        return np.array(support, dtype=float)


class SingleItemAllPay(SingleItemFirstPrice):
    """First price, except that every bidder pays its bid."""

    def clear(self, bids):
        return all_pay_single(bids)

    def units_and_payments(self, bids, agent, atoms):
        return super().units_and_payments(bids, agent, atoms)[0], atoms


class MultiUnitDiscriminatory(AuctionGame):
    """m units; each winner pays its winning marginal bids."""

    def clear(self, bids):
        return discriminatory(bids, self.m)

    def units_and_payments(self, bids, agent, atoms):
        return discriminatory_units_won(bids, agent, atoms, self.m)


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

    def deviation_atoms(self, support):
        # a bid array or a BidBatch holds bare bids: one plan, no offers
        if isinstance(support, (np.ndarray, BidBatch)):
            return (self.auction.deviation_atoms(support),
                    np.zeros(len(support), dtype=np.int64), support)
        plans: dict = {}
        plan = [plans.setdefault(_offers(a, self.rounds), len(plans)) for a in support]
        return (self.auction.deviation_atoms([_bid(a) for a in support]),
                np.array(plan, dtype=np.int64), support)

    def deviation_utilities(self, values, actions, agent, atoms):
        """The auction's kernel gives each atom's units and payment. Under
        the one tie rule the opponents' holdings depend only on the units
        the deviator wins, so the atoms group by (units, plan): one clearing
        of a representative atom gives a group's allocation, and every
        group resells in one batch per round."""
        bids, plan, support = atoms
        units, payments = self.auction.units_and_payments(
            [_bid(a) for a in actions], agent, bids)
        first, inverse = _distinct_rows([units, plan])
        rows = [actions[:agent] + (support[j],) + actions[agent + 1:]
                for j in first.tolist()]
        alloc = np.array([self.auction.clear([_bid(a) for a in row]).alloc.counts
                          for row in rows])
        held, transfers = self._resell(values, alloc, rows)
        worth = self.auction.worth(values[agent], held[:, agent])
        return (worth[inverse] - payments) - transfers[inverse, agent]


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
    masses = [math.log(x) for x in ((v - ys[:-1]) / (v - ys[1:])).tolist()]
    return FiniteDist(ys[:-1], np.array(masses) / sum(masses))


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
    run_bids = np.zeros((resolution, run.max(initial=-1) + 1))
    run_counts = np.zeros(run_bids.shape, dtype=np.int64)
    run_bids[rows, run] = bids[rows, cols]
    np.add.at(run_counts, (rows, run), counts[cols])
    return FiniteDist(BidBatch(run_bids, run_counts, m - run_counts.sum(axis=1)),
                      np.full(resolution, 1.0 / resolution))


def discriminatory_deviation_generator(m: int, resolution: int = 200):
    def gen(agent, own_valuation):
        return discriminatory_deviation(own_valuation, m, resolution)
    return gen


# -- checking --------------------------------------------------------------


# the most action profiles a check domain may enumerate
MAX_ACTION_PROFILES = 200_000


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
    opponents' actions) and `n_deviation_atoms` the atoms they summed."""

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
    """Minimum certificate slack over the domain. Expected deviation
    utilities are cached per (agent, value profile, opponents' actions); each
    is one deviation_utilities call over all atoms, summed in atom order by
    `_expectation`. A NaN slack raises ValueError."""
    min_slack = math.inf
    worst = ((), ())
    checked = n_keys = n_atoms = 0
    for values in domain.value_profiles:
        dists = [cert.deviation(i, values) for i in range(game.n_agents)]
        devs = [(game.deviation_atoms(d.support), d.probs) for d in dists]
        opt = game.opt_welfare(values)
        cache: dict = {}
        for actions in domain.action_profiles():
            _, rev = game.utilities_and_revenue(values, actions)
            lhs = 0.0
            for i in range(game.n_agents):
                key = (i, actions[:i] + actions[i + 1:])
                if key not in cache:
                    atoms, probs = devs[i]
                    utils = game.deviation_utilities(values, actions, i, atoms)
                    cache[key] = _expectation(probs, utils)
                    n_keys += 1
                    n_atoms += len(probs)
                lhs += cache[key]
            slack = lhs - cert.lam * opt + cert.mu * rev
            if math.isnan(slack):
                raise ValueError(f"NaN slack at values {values}, actions {actions}")
            checked += 1
            if slack < min_slack:
                min_slack = slack
                worst = (values, actions)
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
    (lam, mu)-smoothness certificate."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
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
