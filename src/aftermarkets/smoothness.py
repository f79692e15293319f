"""(lambda, mu)-smoothness certificates: randomized deviation generators,
finite-domain certificate checking, the explicit first-price/discriminatory
deviations, lifting certificates from an auction to the combined market with
aftermarket rounds, price-of-anarchy bounds, and the uniform-price
overbidding counterexample.

A game is (lambda, mu)-smooth if for every valuation profile v there are
(possibly randomized) deviations a*_i(v) with
    sum_i E[u_i(a*_i(v), a_{-i}; v)] >= lambda * OPT(v) - mu * Rev(a)
for every action profile a. Semi-smoothness restricts a*_i to depend on v_i
only. Certificates are checked on finite domains: the reported slack is the
minimum of LHS - lambda*OPT + mu*Rev over the domain. Each expected
deviation utility is computed once per (agent, value profile, opponents'
actions) key, by one array-valued `deviation_utilities` call over every atom
of the deviation.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .aftermarket import (NO_OFFER, ResaleSpec, ThresholdBuyer,
                          run_posted_resale)
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


@dataclass(frozen=True)
class FiniteDist:
    """Finite-support distribution over actions: ((action, prob), ...)."""

    atoms: tuple

    def __post_init__(self):
        total = sum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < -1e-15 for _, p in self.atoms):
            raise ValueError("negative probability")

    @classmethod
    def point(cls, action) -> "FiniteDist":
        return cls(((action, 1.0),))

    def expect(self, fn: Callable[[object], float]) -> float:
        return _expectation(np.array([p for _, p in self.atoms], dtype=float),
                            np.array([fn(a) for a, _ in self.atoms], dtype=float))

    def map(self, fn: Callable[[object], object]) -> "FiniteDist":
        return FiniteDist(tuple((fn(a), p) for a, p in self.atoms))


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
    only the two methods above. The first-price, discriminatory and combined
    games clear all atoms at once and must return exactly what the base class
    would."""

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


class SingleItemFirstPrice(SmoothableGame):
    def __init__(self, n_agents: int):
        self.n_agents = n_agents

    def utilities_and_revenue(self, values, actions):
        out = first_price_single(list(actions))
        utils = tuple(values[i] * out.alloc[i] - out.payments[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def opt_welfare(self, values):
        return max(values)

    def deviation_atoms(self, support):
        return np.array(support, dtype=float)

    def deviation_utilities(self, values, actions, agent, atoms):
        wins, _ = first_price_deviation_wins(actions, agent, atoms)
        v = values[agent]
        return np.where(wins, v * 1 - atoms, v * 0 - 0.0)


class SingleItemAllPay(SmoothableGame):
    def __init__(self, n_agents: int):
        self.n_agents = n_agents

    def utilities_and_revenue(self, values, actions):
        out = all_pay_single(list(actions))
        utils = tuple(values[i] * out.alloc[i] - out.payments[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def opt_welfare(self, values):
        return max(values)


class MultiUnitDiscriminatory(SmoothableGame):
    """Values are MarginalValuations, actions are BidVectors."""

    def __init__(self, n_agents: int, m: int):
        self.n_agents = n_agents
        self.m = m

    def utilities_and_revenue(self, values, actions):
        out = discriminatory(list(actions), self.m)
        utils = tuple(values[i].value(out.alloc[i]) - out.payments[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def opt_welfare(self, values):
        return opt_allocation(values, self.m)[1]

    def deviation_atoms(self, support):
        return BidBatch.of(support)

    def deviation_utilities(self, values, actions, agent, atoms):
        counts, payments = discriminatory_units_won(actions, agent, atoms, self.m)
        own = values[agent]
        worth = np.array([own.value(k) for k in range(self.m + 1)], dtype=float)
        return worth[counts] - payments


# -- the combined (auction + aftermarket) lift -----------------------------


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


class _CombinedAtoms(NamedTuple):
    """Deviation atoms of the combined game: auction bids, and the index of
    each atom's aftermarket plan (its round actions) into `plans`, one
    representative atom per distinct plan."""

    bids: np.ndarray
    plan: np.ndarray
    plans: tuple


def _auction_bid(action):
    return action.auction if isinstance(action, LiftedAction) else action


class CombinedSingleItemGame(SmoothableGame):
    """Single-item first-price auction followed by `rounds` winner-led posted
    resale rounds. Designer revenue is the auction revenue; resale transfers
    move between agents only."""

    def __init__(self, n_agents: int, rounds: int = 1):
        self.n_agents = n_agents
        self.rounds = rounds

    def _round_action(self, action, r: int):
        if not isinstance(action, LiftedAction) or r >= len(action.rounds):
            return OPT_OUT
        return action.rounds[r]

    def utilities_and_revenue(self, values, actions):
        out = first_price_single([_auction_bid(a) for a in actions])
        holder, transfers = self._resale(values, actions, out.alloc.counts.index(1))
        utils = tuple(values[i] * (1 if i == holder else 0)
                      - out.payments[i] - transfers[i]
                      for i in range(self.n_agents))
        return utils, out.revenue

    def _resale(self, values, actions, holder: int):
        """The resale rounds from the auction winner `holder`, each one
        `run_posted_resale`: the final holder and each agent's net transfer."""
        profile = [ValuationBatch.of([MarginalValuation([v])]) for v in values]
        alloc = np.array([[int(i == holder) for i in range(self.n_agents)]])
        transfers = [0.0] * self.n_agents
        for r in range(self.rounds):
            plan = [self._round_action(a, r) for a in actions]
            prices = {i: a.seller_price for i, a in enumerate(plan)
                      if a is not OPT_OUT}
            policies = {i: ThresholdBuyer(NO_OFFER) if a is OPT_OUT
                        else ThresholdBuyer(a.buyer_threshold)
                        for i, a in enumerate(plan)}
            trade = run_posted_resale(alloc, ResaleSpec.winner_resale(), prices,
                                      policies, profile, 1)
            alloc = trade.final_alloc
            transfers = [t + d for t, d in zip(transfers, trade.transfers[0].tolist())]
        return alloc[0].tolist().index(1), transfers

    def opt_welfare(self, values):
        return max(values)

    def deviation_atoms(self, support):
        index: dict = {}
        plans = []
        plan = []
        for a in support:
            key = tuple(self._round_action(a, r) for r in range(self.rounds))
            if key not in index:
                index[key] = len(plans)
                plans.append(a)
            plan.append(index[key])
        return _CombinedAtoms(np.array([_auction_bid(a) for a in support], dtype=float),
                              np.array(plan, dtype=np.int64), tuple(plans))

    def deviation_utilities(self, values, actions, agent, atoms):
        """The auction sees a deviation only through win or lose, so the
        resale rounds run once per (auction winner, distinct plan)."""
        wins, rival = first_price_deviation_wins(
            [_auction_bid(a) for a in actions], agent, atoms.bids)
        v = values[agent]
        out = np.empty(len(atoms.bids))
        for k, rep in enumerate(atoms.plans):
            trial = actions[:agent] + (rep,) + actions[agent + 1:]
            for won in (True, False):
                sel = (atoms.plan == k) & (wins == won)
                if not sel.any():
                    continue
                holder, transfers = self._resale(values, trial,
                                                 agent if won else rival)
                paid = atoms.bids[sel] if won else 0.0
                out[sel] = (v * (1 if holder == agent else 0) - paid) - transfers[agent]
        return out


def lift_certificate_to_combined(cert: SmoothnessCertificate) -> SmoothnessCertificate:
    """Same (lam, mu) for the combined game: each auction deviation is paired
    with opting out of the next aftermarket round, so the deviator's combined
    utility equals her auction utility while the designer revenue is
    unchanged. Applying the lift twice appends a second opt-out round."""

    def wrap(action):
        if isinstance(action, LiftedAction):
            return LiftedAction(action.auction, action.rounds + (OPT_OUT,))
        return LiftedAction(action, (OPT_OUT,))

    if cert.semi:
        def gen(agent, own_value):
            return cert.generator(agent, own_value).map(wrap)
    else:
        def gen(agent, value_profile):
            return cert.generator(agent, value_profile).map(wrap)
    return SmoothnessCertificate(cert.lam, cert.mu, gen,
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
    max(v) = 1 at resolution 2000."""
    v = float(own_value)
    if v <= 0.0:
        return FiniteDist.point(0.0)
    top = ONE_MINUS_INV_E * v
    ys = [top * k / resolution for k in range(resolution + 1)]
    atoms = []
    for k in range(resolution):
        p = math.log((v - ys[k]) / (v - ys[k + 1]))
        atoms.append((ys[k], p))
    total = sum(p for _, p in atoms)
    atoms = tuple((y, p / total) for y, p in atoms)
    return FiniteDist(atoms)


def fpa_deviation_generator(resolution: int = 200):
    def gen(agent, own_value):
        return fpa_deviation(own_value, resolution)
    return gen


def discriminatory_deviation(own_valuation: MarginalValuation, m: int,
                             resolution: int = 200) -> FiniteDist:
    """Multi-unit discriminatory deviation certifying (1 - 1/e, 1)-semi-
    smoothness: one shared draw u ~ U[0,1] sets the bid v_j (1 - e^{-u}) on
    every unit j, keeping marginal bids non-increasing."""
    marginals = own_valuation.marginals_list(m)
    atoms = []
    for k in range(resolution):
        u = k / resolution
        scale = 1.0 - math.exp(-u)
        bv = BidVector([vj * scale for vj in marginals], m)
        atoms.append((bv, 1.0 / resolution))
    return FiniteDist(tuple(atoms))


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
        total = 1
        for s in self.action_sets:
            total *= len(s)
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
    is one deviation_utilities call over all atoms, summed as
    FiniteDist.expect sums."""
    min_slack = math.inf
    worst = ((), ())
    checked = n_keys = n_atoms = 0
    for values in domain.value_profiles:
        devs = []
        for i in range(game.n_agents):
            dist = cert.deviation(i, values)
            devs.append((game.deviation_atoms([a for a, _ in dist.atoms]),
                         np.array([p for _, p in dist.atoms], dtype=float)))
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
                u = values[0].value(out.alloc[0]) - out.payments[0]
                best = max(best, u)
        opt = opt_allocation(values, m)[1]
        rev = uniform_price([BidVector.from_runs((), m), overbid], m).revenue
        rows.append((m, best - lam * opt + mu * rev))
    return rows
