"""The benchmark's four audit workloads.

Each workload has a `build(seed)` that makes every market, game, deviation
grid, certificate and reference the audits need, and an `audits(state)` that
lists the workload's fixed audits, as (name, call) pairs that go through the
public library API; `run_pass` runs such a list once.
Every audit returns a verdict checked against a reference held in `state.ref`,
so a corrupted reference (or a wrong library result) fails the audit.

A pass does the same work every time it runs with the same state: objects
that cache results across calls (evaluators, tabular games) are made inside
the pass, and every Monte Carlo stream is seeded from the workload seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import aftermarkets as am
from aftermarkets.distributions import SegmentSpec

QUAD = am.Quadrature(subdivide=1, breakpoints=(1.0,))
ROLES = ((0, "regular"), (1, "bulk"), (2, "speculator"))


@dataclass
class Audit:
    name: str
    ok: bool
    seconds: float
    detail: dict = field(default_factory=dict)


@dataclass
class State:
    seed: int
    params: dict
    ref: dict
    inputs: dict


def closed_eq_welfare(m: int) -> float:
    """Equilibrium welfare of the scripted speculation profile."""
    return 5.25 + (m - 3) * (1.0 / (2 * m) + 1.0 / (8.0 * m * m))


def closed_opt_welfare(m: int) -> float:
    """E[OPT] of the speculation example, E[z] = ln(2m)/(2m-1) + 1/(8m^2)."""
    return 5.25 + (m - 3) * (math.log(2 * m) / (2 * m - 1) + 1.0 / (8.0 * m * m))


def run_audit(name: str, fn) -> Audit:
    t0 = time.perf_counter()
    ok, detail = fn()
    return Audit(name, bool(ok), time.perf_counter() - t0, detail)


def run_pass(audits) -> list[Audit]:
    return [run_audit(name, fn) for name, fn in audits]


# -- bne-verify ------------------------------------------------------------


BNE_MS = (10, 100, 10_000)
BRD_M = 100
BRD_STARTS = 20


def build_bne_verify(seed: int) -> State:
    games = {m: am.scripted_lower_bound_equilibrium(m) for m in BNE_MS}
    grids = {m: {agent: am.default_deviation_grid(m, role)
                 for agent, role in ROLES} for m in BNE_MS + (1000,)}
    ref = {
        # deviations per agent (regular, bulk, speculator) of the full grids
        "deviations": {10: (1994, 1994, 1171), 100: (2227, 2227, 1264),
                       10_000: (2280, 2280, 1286)},
        "eps": 1e-6,
        "dominance_witnesses": 7,
        "reserve": closed_opt_welfare(BRD_M) / (2.0 * BRD_M),
        "reserve_tol": 1e-5,
        "brd_welfare_floor": 0.5 * closed_opt_welfare(BRD_M) - 1e-3,
    }
    return State(seed, {"ms": BNE_MS, "grouped": (1000, 0.1), "brd_m": BRD_M,
                        "brd_starts": BRD_STARTS}, ref,
                 {"games": games, "grids": grids,
                  "grouped": am.scripted_grouped_equilibrium(1000, 0.1),
                  "brd_base": am.scripted_lower_bound_equilibrium(BRD_M)})


def _verify(state: State, m: int):
    ref = state.ref
    report = am.verify_bne(state.inputs["games"][m], state.inputs["grids"][m],
                           eps=ref["eps"])
    devs = tuple(g.n_deviations for g in report.gaps)
    ok = (report.verdict and report.max_gap <= ref["eps"]
          and devs == tuple(ref["deviations"][m]))
    return ok, {"max_gap": report.max_gap, "deviations": devs}


def _dominance(state: State, m: int):
    rows = am.run_dominance_suite(state.inputs["games"][m])
    held = sum(1 for _, rep in rows if rep.not_weakly_dominated)
    return (len(rows) == state.ref["dominance_witnesses"] == held,
            {"witnesses_held": held})


def _grouped_gap(state: State, agent: int):
    res = am.best_response_gap(state.inputs["grouped"], agent,
                               state.inputs["grids"][1000][agent])
    return res.gap <= state.ref["eps"], {"gap": res.gap,
                                         "deviations": res.n_deviations}


def _reserve(state: State):
    reserve = am.balanced_reserve(state.inputs["brd_base"].market, QUAD)
    state.inputs["reserve"] = reserve
    return (abs(reserve - state.ref["reserve"]) <= state.ref["reserve_tol"],
            {"reserve": reserve})


def _brd(state: State):
    m, reserve = BRD_M, state.inputs["reserve"]
    game = am.scripted_lower_bound_equilibrium(m, reserve=reserve)
    acts_ab = [am.Action(bid=am.BidVector.flat(level, count, m))
               for level in (0.0, round(reserve, 6), 0.5, 1.0, 1.5, 2.0)
               for count in (1, 2, 5)]
    acts_c = [am.Action(bid=am.BidVector.from_runs((), m), seller_price=math.inf)]
    acts_c += [am.Action(bid=am.BidVector.flat(level, count, m), seller_price=p)
               for level in (0.5, 1.0) for count in (49, 98)
               for p in (0.5, 1.0, 1.5)]
    tab = am.CombinedTabularGame(game, [acts_ab, acts_ab, acts_c])
    rng = random.Random(state.seed)
    inits = [tuple(rng.choice(s) for s in (acts_ab, acts_ab, acts_c))
             for _ in range(BRD_STARTS)]
    res = am.best_response_dynamics(tab, inits)
    welfares = [tab.expected_welfare(fp) for fp in res.fixed_points]
    ok = (res.n_converged >= 1 and res.n_cycles == 0
          and all(w >= state.ref["brd_welfare_floor"] for w in welfares))
    return ok, {"fixed_points": res.n_converged, "cycles": res.n_cycles,
                "min_welfare": min(welfares, default=math.nan)}


def audits_bne_verify(state: State) -> list:
    audits = []
    for m in BNE_MS:
        audits.append((f"verify_bne m={m}", lambda m=m: _verify(state, m)))
        audits.append((f"dominance m={m}", lambda m=m: _dominance(state, m)))
    for agent, role in ROLES:
        audits.append((f"grouped gap {role}",
                       lambda agent=agent: _grouped_gap(state, agent)))
    audits.append(("balanced reserve m=100", lambda: _reserve(state)))
    audits.append(("best-response dynamics m=100", lambda: _brd(state)))
    return audits


# -- mc-play ---------------------------------------------------------------


MC_M = 100
MC_DRAWS = 10_000
POSTED_EPS, POSTED_H = 0.01, 1000.0
POSTED_DRAWS = 10_000
MC_SIGMAS = 5.0


def _uniforms(seed: int, n: int, dims: int) -> np.ndarray:
    """The uniforms `profile_nodes` draws for MonteCarlo(n, seed): one per
    random agent per draw, agents in index order."""
    return np.random.default_rng(seed).random((n, dims))


def build_mc_play(seed: int) -> State:
    game = am.scripted_lower_bound_equilibrium(MC_M)
    top = POSTED_H / POSTED_EPS
    posted = {
        "market": am.posted_fails_market(POSTED_EPS, POSTED_H),
        # the scripted posted-price play of the posted-fails example: buyer 1
        # always takes the item and resells at the top of buyer 2's support
        "strategies": (am.Strategy(posted_buy=lambda val, price, left: 1,
                                   seller_price=top),
                       am.Strategy(buyer=am.ThresholdBuyer())),
        "mechanism": am.Mechanism("posted", posted_price=0.5 / (1.0 - POSTED_EPS),
                                  posted_order=(0, 1)),
        "resale": am.ResaleSpec.single(0, (1,)),
    }
    mc_seed, posted_seed = seed, seed + 1
    # independent replays of the same draws: OPT(v; m) = 4 + (m-3) z +
    # max(a2, z) in the speculation example; in the posted-fails example the
    # item ends with buyer 2 only when her value reaches the resale price
    u = _uniforms(mc_seed, MC_DRAWS, 2)
    a2 = 1.0 + 0.5 * u[:, 0]
    c, u1 = 2 * MC_M - 1, 1.0 - 1.0 / (2 * MC_M)
    z = np.where(u[:, 1] < u1, u[:, 1] / (c * (1.0 - u[:, 1])),
                 u[:, 1] + 1.0 / (2 * MC_M))
    opt_replay = float(np.mean(4.0 + (MC_M - 3) * z + np.maximum(a2, z)))
    u = _uniforms(posted_seed, POSTED_DRAWS, 2)
    v1 = u[:, 0]
    lo_u, hi_u = 1.0 - POSTED_EPS, 1.0 - POSTED_EPS / POSTED_H
    v2 = np.where(u[:, 1] < lo_u, 0.0,
                  np.where(u[:, 1] < hi_u, 1.0 / (1.0 - u[:, 1]), top))
    posted_replay = float(np.mean(np.where(v2 >= top, v2, v1)))
    ref = {
        "welfare_exact": game.evaluator().expected_welfare(),
        "welfare_closed": closed_eq_welfare(MC_M),
        "sigmas": MC_SIGMAS,
        "opt_replay": opt_replay,
        "posted_welfare_replay": posted_replay,
        "replay_rel_tol": 1e-9,
    }
    return State(seed, {"m": MC_M, "draws": MC_DRAWS,
                        "posted": (POSTED_EPS, POSTED_H),
                        "posted_draws": POSTED_DRAWS}, ref,
                 {"game": game, "strategies": game.strategies(),
                  "posted": posted, "mc": am.MonteCarlo(MC_DRAWS, mc_seed),
                  "posted_mc": am.MonteCarlo(POSTED_DRAWS, posted_seed)})


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _mc_welfare(state: State):
    game, ref = state.inputs["game"], state.ref
    out = am.expected_outcome(game.market, game.mechanism, game.protocol,
                              game.resale, state.inputs["strategies"],
                              state.inputs["mc"])
    state.inputs["mc_welfare"] = out.welfare
    tol = ref["sigmas"] * out.welfare_stderr
    ok = (abs(out.welfare - ref["welfare_exact"]) <= tol
          and abs(out.welfare - ref["welfare_closed"]) <= tol)
    return ok, {"welfare": out.welfare, "stderr": out.welfare_stderr}


def _mc_opt(state: State):
    opt = am.expected_optimal_welfare(state.inputs["game"].market,
                                      state.inputs["mc"])
    # same draws as the welfare audit, and OPT(v) >= welfare(v) per draw
    ok = (_rel_close(opt, state.ref["opt_replay"], state.ref["replay_rel_tol"])
          and opt >= state.inputs["mc_welfare"])
    return ok, {"opt": opt}


def _mc_posted(state: State):
    p = state.inputs["posted"]
    out = am.expected_outcome(p["market"], p["mechanism"],
                              am.SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT,
                              p["resale"], p["strategies"],
                              state.inputs["posted_mc"])
    ok = _rel_close(out.welfare, state.ref["posted_welfare_replay"],
                    state.ref["replay_rel_tol"])
    return ok, {"welfare": out.welfare}


def audits_mc_play(state: State) -> list:
    return [
        (f"monte carlo welfare m={MC_M}", lambda: _mc_welfare(state)),
        (f"monte carlo optimum m={MC_M}", lambda: _mc_opt(state)),
        ("monte carlo posted-fails", lambda: _mc_posted(state)),
    ]


# -- fpa-check -------------------------------------------------------------


# (value points, bid points, samples). The CLI defaults (21, 401, 20000) take
# 11-18 s per check on 2 CPUs, one noisy sample per run; these grids keep every
# code path and make a pass about 1 s, so a run holds ten or more pairs of
# passes with the frozen copy. The quadrature-backed x^2 CDF gets the smaller
# grid.
FPA_UNIFORM = (5, 41, 2_000)
FPA_SQUARE = (5, 21, 500)


def square_cdf() -> am.PiecewiseCdf:
    """F(x) = x^2 on [0, 1]; the base-class partial_mean integrates x f(x)
    with scipy.integrate.quad."""
    return am.PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=lambda x: x * x,
                                        pdf=lambda x: 2.0 * x,
                                        ppf=math.sqrt),))


def build_fpa_check(seed: int) -> State:
    ref = {"gap": 1e-6, "residual": 1e-6, "efficiency": 0.999}
    return State(seed, {"uniform": FPA_UNIFORM, "square": FPA_SQUARE}, ref,
                 {"uniform": am.Uniform(0.0, 1.0), "square": square_cdf()})


def _fpa(state: State, key: str, sizes: tuple):
    values, bids, samples = sizes
    rep = am.symmetric_fpa_check(state.inputs[key], values, bids, samples,
                                 seed=state.seed)
    ref = state.ref
    ok = (rep.gap <= ref["gap"] and rep.max_payment_residual <= ref["residual"]
          and rep.efficiency >= ref["efficiency"] and rep.n_samples == samples)
    return ok, {"gap": float(rep.gap), "residual": rep.max_payment_residual,
                "efficiency": rep.efficiency}


def audits_fpa_check(state: State) -> list:
    return [
        ("symmetric fpa uniform", lambda: _fpa(state, "uniform", FPA_UNIFORM)),
        ("symmetric fpa x^2", lambda: _fpa(state, "square", FPA_SQUARE)),
    ]


# -- certify ---------------------------------------------------------------


FPA_RESOLUTION = 2000
DISC_RESOLUTION = 300
RANDOM_PROFILES = 400


def _fraction_profile(rng: random.Random, n_max: int, runs_max: int):
    profile = []
    for _ in range(rng.randint(1, n_max)):
        vals = sorted((Fraction(rng.randint(0, 24), rng.randint(1, 9))
                       for _ in range(rng.randint(0, runs_max))), reverse=True)
        profile.append(am.MarginalValuation(vals))
    return profile


def build_certify(seed: int) -> State:
    lam = am.ONE_MINUS_INV_E
    bid_grid = tuple(round(0.1 * j, 3) for j in range(11))
    cert = am.SmoothnessCertificate(lam, 1.0,
                                    am.fpa_deviation_generator(FPA_RESOLUTION))
    lifted = am.lift_certificate_to_combined(cert)
    m = 3
    vprofiles = (
        (am.MarginalValuation([1.0, 0.5, 0.2]), am.MarginalValuation([0.8, 0.8]),
         am.MarginalValuation([0.3])),
        (am.MarginalValuation([1.0]), am.MarginalValuation([1.0, 1.0, 1.0]),
         am.MarginalValuation([])),
        (am.MarginalValuation([2.0, 2.0]), am.MarginalValuation([1.5]),
         am.MarginalValuation([1.0, 1.0])),
    )
    bids = tuple(am.BidVector.from_runs(rr, m) for rr in
                 ((), ((0.5, 1),), ((1.0, 2),), ((0.9, 1), (0.3, 2)), ((0.2, 3),)))
    rng = random.Random(seed)
    balanced = [(_fraction_profile(rng, 5, 4), rng.randint(1, 12))
                for _ in range(RANDOM_PROFILES)]
    brute = [(_fraction_profile(rng, 4, 3), rng.randint(1, 10))
             for _ in range(RANDOM_PROFILES)]
    inputs = {
        "fpa": am.SingleItemFirstPrice(2),
        "cert": cert,
        "bad": am.SmoothnessCertificate(0.99, 1.0,
                                        am.fpa_deviation_generator(FPA_RESOLUTION)),
        "domain": am.CheckDomain(((1.0, 0.5), (1.0, 0.1), (0.7, 0.7)),
                                 (bid_grid, bid_grid)),
        "near": am.CheckDomain(((1.0, 0.1),), ((0.6,), (0.6,))),
        "lifted": lifted,
        "double": am.lift_certificate_to_combined(lifted),
        "g1": am.CombinedSingleItemGame(2, rounds=1),
        "g2": am.CombinedSingleItemGame(2, rounds=2),
        "a1": ((am.LiftedAction(0.6, (am.RoundAction(0.9),)),),
               (am.LiftedAction(0.6, (am.RoundAction(0.2, 0.5),)),)),
        "a2": ((am.LiftedAction(0.6, (am.RoundAction(0.9), am.RoundAction(0.05))),),
               (am.LiftedAction(0.6, (am.RoundAction(0.2, 0.5), am.OPT_OUT)),)),
        "disc": am.MultiUnitDiscriminatory(3, m),
        "dcert": am.SmoothnessCertificate(
            lam, 1.0, am.discriminatory_deviation_generator(m, DISC_RESOLUTION)),
        "disc_domain": am.CheckDomain(vprofiles, (bids,) * 3),
        "balanced": balanced,
        "brute": brute,
    }
    ref = {"min_slack": -1e-3, "lift_tol": 1e-12, "fpa_profiles": 3 * 11 * 11,
           "disc_profiles": 3 * 5 ** 3, "bad_tol": 1e-3}
    return State(seed, {"fpa_resolution": FPA_RESOLUTION,
                        "disc_resolution": DISC_RESOLUTION,
                        "random_profiles": RANDOM_PROFILES}, ref, inputs)


def _fpa_smooth(state: State):
    i, ref = state.inputs, state.ref
    rep = am.check_smooth(i["fpa"], i["cert"], i["domain"])
    # min_slack is reported as measured: about -1.85e-4 at resolution 2000
    return (rep.min_slack >= ref["min_slack"]
            and rep.n_profiles_checked == ref["fpa_profiles"],
            {"min_slack": rep.min_slack, "profiles": rep.n_profiles_checked})


def _lifts(state: State):
    i, ref = state.inputs, state.ref
    base = am.check_smooth(i["fpa"], i["cert"], i["near"]).min_slack
    single = am.check_smooth(i["g1"], i["lifted"],
                             am.CheckDomain(((1.0, 0.1),), i["a1"])).min_slack
    double = am.check_smooth(i["g2"], i["double"],
                             am.CheckDomain(((1.0, 0.1),), i["a2"])).min_slack
    ok = (abs(single - base) <= ref["lift_tol"]
          and abs(double - base) <= ref["lift_tol"]
          and single >= ref["min_slack"])
    return ok, {"base": base, "single": single, "double": double}


def _bad_certificate(state: State):
    i = state.inputs
    rep = am.check_smooth(i["fpa"], i["bad"], i["near"])
    return not rep.passes(state.ref["bad_tol"]), {"min_slack": rep.min_slack}


def _discriminatory(state: State):
    i, ref = state.inputs, state.ref
    rep = am.check_semi_smooth(i["disc"], i["dcert"], i["disc_domain"])
    return (rep.min_slack >= ref["min_slack"]
            and rep.n_profiles_checked == ref["disc_profiles"],
            {"min_slack": rep.min_slack, "profiles": rep.n_profiles_checked})


def _balancedness(state: State):
    held = 0
    for profile, m in state.inputs["balanced"]:
        rep = am.check_balanced_conditions(profile, m)
        held += (rep.ok and rep.min_margin_cover >= 0
                 and rep.min_margin_leftover >= 0)
    return held == len(state.inputs["balanced"]), {"held": held}


def _greedy_vs_brute(state: State):
    held = sum(am.opt_allocation(profile, m)[1] == am.brute_force_opt(profile, m)
               for profile, m in state.inputs["brute"])
    return held == len(state.inputs["brute"]), {"held": held}


def audits_certify(state: State) -> list:
    return [
        ("first-price smoothness", lambda: _fpa_smooth(state)),
        ("certificate lifts", lambda: _lifts(state)),
        ("(0.99, 1) certificate fails", lambda: _bad_certificate(state)),
        ("discriminatory semi-smoothness", lambda: _discriminatory(state)),
        ("exact balancedness", lambda: _balancedness(state)),
        ("greedy vs brute force", lambda: _greedy_vs_brute(state)),
    ]


WORKLOADS = {
    "bne-verify": (build_bne_verify, audits_bne_verify),
    "mc-play": (build_mc_play, audits_mc_play),
    "fpa-check": (build_fpa_check, audits_fpa_check),
    "certify": (build_certify, audits_certify),
}
