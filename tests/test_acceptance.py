"""Acceptance gate: the eight end-to-end guarantees of the package, each with
a printed pass/fail line (see the "acceptance criteria" section of the pytest
terminal summary) and a wall-clock budget."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from aftermarkets.allocation import brute_force_opt, opt_allocation
from aftermarkets.auctions import BidVector
from aftermarkets.balanced import (balanced_reserve, check_balanced_conditions,
                                   perturbed_guarantee)
from aftermarkets.combined import Quadrature, expected_optimal_welfare
from aftermarkets.distributions import Uniform, lower_bound_z_distribution
from aftermarkets.equilibrium import (Action, CombinedTabularGame,
                                      best_response_dynamics,
                                      best_response_gap,
                                      default_deviation_grid,
                                      run_dominance_suite,
                                      scripted_grouped_equilibrium,
                                      scripted_lower_bound_equilibrium,
                                      symmetric_fpa_check, verify_bne)
from aftermarkets.smoothness import (ONE_MINUS_INV_E, OPT_OUT, CheckDomain,
                                     CombinedSingleItemGame, LiftedAction,
                                     LiftedGame, MultiUnitDiscriminatory,
                                     RoundAction,
                                     SingleItemFirstPrice,
                                     SmoothnessCertificate, check_semi_smooth,
                                     check_smooth,
                                     discriminatory_deviation_generator,
                                     fpa_deviation_generator, poa_bound)
from aftermarkets.valuations import MarginalValuation

from conftest import record_criterion
from test_allocation import random_profile
from test_balanced import random_fraction_profile

QUAD = Quadrature(subdivide=1, breakpoints=(1.0,))


def closed_eq_welfare(m: int) -> float:
    return 5.25 + (m - 3) * (1.0 / (2 * m) + 1.0 / (8.0 * m * m))


def closed_opt_welfare(m: int) -> float:
    Ez = math.log(2 * m) / (2 * m - 1) + 1.0 / (8.0 * m * m)
    return 5.25 + (m - 3) * Ez


def test_criterion_1_lower_bound_closed_forms():
    t0 = time.time()
    checks = []
    ratio = None
    for m in (10, 100, 10_000):
        ev = scripted_lower_bound_equilibrium(m).evaluator()
        wel = ev.expected_welfare()
        opt = expected_optimal_welfare(scripted_lower_bound_equilibrium(m).market,
                                       QUAD)
        spec_u = ev.expected_utility(2)
        checks.append(abs(wel / closed_eq_welfare(m) - 1.0) <= 1e-3)
        checks.append(abs(opt / closed_opt_welfare(m) - 1.0) <= 1e-3)
        checks.append(abs(spec_u / (1.0 + (m - 3) / (2.0 * m)) - 1.0) <= 1e-3)
        if m == 10_000:
            ratio = opt / wel
    elapsed = time.time() - t0
    ok = all(checks) and abs(ratio - 1.774) <= 5e-3 and elapsed < 60
    record_criterion(1, ok, f"speculation example closed forms (rel 1e-3), "
                            f"welfare ratio at m=10^4 = {ratio:.5f} "
                            f"(target 1.774 +/- 0.005), {elapsed:.1f}s")
    assert ok


def test_criterion_2_equilibrium_verification_and_witnesses():
    t0 = time.time()
    ok = True
    max_gap = 0.0
    min_devs = math.inf
    for m in (10, 100, 10_000):
        game = scripted_lower_bound_equilibrium(m)
        grids = {0: default_deviation_grid(m, "regular"),
                 1: default_deviation_grid(m, "bulk"),
                 2: default_deviation_grid(m, "speculator")}
        report = verify_bne(game, grids, eps=1e-6)
        ok = ok and report.verdict
        max_gap = max(max_gap, report.max_gap)
        min_devs = min(min_devs, min(g.n_deviations for g in report.gaps))
        for label, dom in run_dominance_suite(game):
            ok = ok and dom.not_weakly_dominated
    elapsed = time.time() - t0
    ok = ok and min_devs >= 1000 and elapsed < 120
    record_criterion(2, ok, f"scripted profile is a 1e-6 best-response-gap "
                            f"equilibrium at m in {{10, 100, 10^4}} "
                            f"(max gap {max_gap:.2e}, >= {min_devs} deviations "
                            f"per agent) and all 7 dominance witnesses hold, "
                            f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_grouped_market():
    t0 = time.time()
    m, gamma = 1000, 0.1
    game = scripted_grouped_equilibrium(m, gamma)
    k = len(game.market.groups)
    r = m // k
    ev = game.evaluator()
    wel = ev.expected_welfare()
    opt = k * closed_opt_welfare(r)
    ratio = opt / wel
    closed_ratio = closed_opt_welfare(r) / closed_eq_welfare(r)
    ratio_ok = abs(ratio / closed_ratio - 1.0) <= 1e-3
    gaps_ok = True
    for agent, role in ((0, "regular"), (1, "bulk"), (2, "speculator")):
        gap = best_response_gap(game, agent, default_deviation_grid(m, role))
        gaps_ok = gaps_ok and gap.gap <= 1e-6
    elapsed = time.time() - t0
    ok = ratio_ok and gaps_ok and elapsed < 120
    record_criterion(3, ok, f"grouped market (m=1000, gamma=0.1): per-role "
                            f"gaps <= 1e-6 and welfare ratio {ratio:.5f} "
                            f"matches closed form {closed_ratio:.5f} "
                            f"(rel 1e-3), {elapsed:.1f}s")
    assert ok


def test_criterion_4_smoothness_certificates():
    t0 = time.time()
    bid_grid = tuple(round(0.1 * j, 3) for j in range(11))
    fpa = SingleItemFirstPrice(2)
    cert = SmoothnessCertificate(ONE_MINUS_INV_E, 1.0,
                                 fpa_deviation_generator(2000))
    dom = CheckDomain(((1.0, 0.5), (1.0, 0.1), (0.7, 0.7)),
                      (bid_grid, bid_grid))
    fpa_ok = check_smooth(fpa, cert, dom).passes(1e-3)

    from aftermarkets.smoothness import lift_certificate_to_combined
    lifted = lift_certificate_to_combined(cert)
    near = CheckDomain(((1.0, 0.1),), ((0.6,), (0.6,)))
    base_slack = check_smooth(fpa, cert, near).min_slack
    g1 = CombinedSingleItemGame(2, rounds=1)
    a1 = ((LiftedAction(0.6, (RoundAction(0.9),)),),
          (LiftedAction(0.6, (RoundAction(0.2, 0.5),)),))
    lift_slack = check_smooth(g1, lifted, CheckDomain(((1.0, 0.1),), a1)).min_slack
    double = lift_certificate_to_combined(lifted)
    g2 = CombinedSingleItemGame(2, rounds=2)
    a2 = ((LiftedAction(0.6, (RoundAction(0.9), RoundAction(0.05))),),
          (LiftedAction(0.6, (RoundAction(0.2, 0.5), OPT_OUT)),))
    dbl_slack = check_smooth(g2, double, CheckDomain(((1.0, 0.1),), a2)).min_slack
    lift_ok = (abs(lift_slack - base_slack) <= 1e-12
               and abs(dbl_slack - base_slack) <= 1e-12
               and lift_slack >= -1e-3)

    m = 3
    disc = MultiUnitDiscriminatory(3, m)
    dcert = SmoothnessCertificate(ONE_MINUS_INV_E, 1.0,
                                  discriminatory_deviation_generator(m, 300))
    vprofiles = (
        (MarginalValuation([1.0, 0.5, 0.2]), MarginalValuation([0.8, 0.8]),
         MarginalValuation([0.3])),
        (MarginalValuation([1.0]), MarginalValuation([1.0, 1.0, 1.0]),
         MarginalValuation([])),
        (MarginalValuation([2.0, 2.0]), MarginalValuation([1.5]),
         MarginalValuation([1.0, 1.0])),
    )
    bids = tuple(BidVector.from_runs(rr, m) for rr in
                 ((), ((0.5, 1),), ((1.0, 2),), ((0.9, 1), (0.3, 2)), ((0.2, 3),)))
    disc_rep = check_semi_smooth(disc, dcert, CheckDomain(vprofiles, (bids,) * 3))
    disc_ok = disc_rep.passes(5e-3)

    # the multi-unit lift: every bid resells at 0.4, the deviator opts out
    t_lift = time.time()
    resold = tuple(LiftedAction(b, (RoundAction(0.4),)) for b in bids)
    multi_lift = check_smooth(LiftedGame(disc, 1), lift_certificate_to_combined(dcert),
                              CheckDomain(vprofiles, (resold,) * 3))
    t_lift = time.time() - t_lift
    multi_lift_ok = (multi_lift.min_slack == disc_rep.min_slack
                     and multi_lift.n_profiles_checked == 3 * 5 ** 3)

    bad = SmoothnessCertificate(0.99, 1.0, fpa_deviation_generator(2000))
    bad_fails = not check_smooth(fpa, bad, near).passes(1e-3)

    poa_ok = (abs(poa_bound(ONE_MINUS_INV_E, 1.0) - math.e / (math.e - 1)) < 1e-12
              and abs(poa_bound(0.5, 1.0) - 2.0) < 1e-12)
    elapsed = time.time() - t0
    ok = (fpa_ok and lift_ok and disc_ok and multi_lift_ok and bad_fails
          and poa_ok and elapsed < 300)
    record_criterion(4, ok, f"first-price (1-1/e, 1) certificate passes, "
                            f"single/double lift to the combined market "
                            f"preserves the slack exactly, discriminatory is "
                            f"(1-1/e, 1)-semi-smooth on n=m=3 domains, its "
                            f"lift to one resale round keeps the slack "
                            f"{multi_lift.min_slack:.6g} exactly ({t_lift:.2f}s), "
                            f"(0.99, 1) fails, PoA bounds e/(e-1) and 2, "
                            f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_exact_balancedness():
    t0 = time.time()
    rng = random.Random(555)
    bal_ok = True
    for _ in range(1000):
        prof = random_fraction_profile(rng, n_max=5, runs_max=4)
        m = rng.randint(1, 12)
        rep = check_balanced_conditions(prof, m)
        bal_ok = bal_ok and rep.ok
    greedy_ok = True
    rng2 = random.Random(556)
    for _ in range(1000):
        prof = random_profile(rng2)
        m = rng2.randint(1, 10)
        _, greedy = opt_allocation(prof, m)
        greedy_ok = greedy_ok and abs(greedy - brute_force_opt(prof, m)) <= 1e-12
    elapsed = time.time() - t0
    ok = bal_ok and greedy_ok and elapsed < 60
    record_criterion(5, ok, f"realization price is exactly (1,1)-balanced on "
                            f"1000 Fraction instances (n<=5, m<=12) and the "
                            f"greedy optimum matches brute force on 1000 "
                            f"instances, {elapsed:.1f}s")
    assert ok


def test_criterion_6_balanced_reserve_and_dynamics():
    t0 = time.time()
    m = 100
    base = scripted_lower_bound_equilibrium(m)
    reserve = balanced_reserve(base.market, QUAD)
    opt = expected_optimal_welfare(base.market, QUAD)
    # frozen oracle: E[OPT]/(2m) with E[z] = ln(2m)/(2m-1) + 1/(8m^2).
    # (An alternative printed constant 0.039148 disagrees with this formula
    # by 2.1e-5; the formula value is authoritative.)
    oracle = closed_opt_welfare(m) / (2.0 * m)
    reserve_ok = abs(reserve - oracle) <= 1e-5 and abs(oracle - 0.0391690) <= 1e-6

    game = scripted_lower_bound_equilibrium(m, reserve=reserve)
    acts_ab = [Action(bid=BidVector.flat(l, c, m))
               for l in (0.0, round(reserve, 6), 0.5, 1.0, 1.5, 2.0)
               for c in (1, 2, 5)]
    acts_c = [Action(bid=BidVector.from_runs((), m), seller_price=math.inf)]
    acts_c += [Action(bid=BidVector.flat(l, c, m), seller_price=p)
               for l in (0.5, 1.0) for c in (49, 98)
               for p in (0.5, 1.0, 1.5)]
    tab = CombinedTabularGame(game, [acts_ab, acts_ab, acts_c])
    rng = random.Random(6)
    inits = [tuple(rng.choice(s) for s in (acts_ab, acts_ab, acts_c))
             for _ in range(20)]
    res = best_response_dynamics(tab, inits)
    bound = 0.5 * opt
    welfares = [tab.expected_welfare(fp) for fp in res.fixed_points]
    brd_ok = (res.n_converged >= 1 and res.n_cycles == 0
              and all(w >= bound - 1e-3 for w in welfares))

    eps_price = 1e-3
    pert_game = scripted_lower_bound_equilibrium(m, reserve=reserve + eps_price)
    pert_tab = CombinedTabularGame(pert_game, [acts_ab, acts_ab, acts_c])
    pert_res = best_response_dynamics(pert_tab, inits[:5])
    pert_bound = perturbed_guarantee(opt, m, eps_price)
    pert_ok = all(pert_tab.expected_welfare(fp) >= pert_bound - 1e-9
                  for fp in pert_res.fixed_points)
    elapsed = time.time() - t0
    ok = reserve_ok and brd_ok and pert_ok and elapsed < 300
    record_criterion(6, ok, f"balanced reserve at m=100 is {reserve:.7f} "
                            f"(oracle 0.0391690; the constant 0.039148 is off "
                            f"by 2.1e-5), all {len(welfares)} best-response "
                            f"fixed points from 20 starts have welfare >= "
                            f"E[OPT]/2 - 1e-3 = {bound - 1e-3:.4f} "
                            f"(min {min(welfares):.4f}), perturbed-price bound "
                            f"holds, {elapsed:.1f}s")
    assert ok


def test_criterion_7_posted_price_failure():
    t0 = time.time()
    from aftermarkets.cli import posted_fails_summary
    row = posted_fails_summary(0.01, 1000.0)
    elapsed = time.time() - t0
    ok = (abs(row["scripted_welfare"] - 1.5) <= 0.05
          and abs(row["opt_welfare"] - 8.40) <= 0.05
          and row["balanced_welfare"] >= 0.5 * row["opt_welfare"]
          and elapsed < 60)
    record_criterion(7, ok, f"posted-price combined market stalls at welfare "
                            f"{row['scripted_welfare']:.4f} vs optimum "
                            f"{row['opt_welfare']:.4f} (targets 1.5 and 8.40 "
                            f"+/- 0.05) while the balanced static price earns "
                            f"{row['balanced_welfare']:.4f} >= half the "
                            f"optimum, {elapsed:.1f}s")
    assert ok


def test_criterion_8_property_suites():
    t0 = time.time()
    rep = symmetric_fpa_check(Uniform(0.0, 1.0), samples=20_000, seed=11)
    fpa_ok = (rep.max_payment_residual <= 1e-6 and rep.efficiency >= 0.999
              and rep.gap <= 1e-6)
    # accounting identity and budget balance over seeded plays
    from aftermarkets.combined import SignalProtocol, play
    from aftermarkets.valuations import lower_bound_market, sample_profile
    game = scripted_lower_bound_equilibrium(10)
    market, strategies = game.market, game.strategies()
    acc_ok = True
    for seed in range(200):
        profile = sample_profile(market, seed)
        out = play(market, game.mechanism,
                   SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT, game.resale,
                   strategies, profile)
        acc_ok = acc_ok and abs(sum(out.utilities) + out.revenue
                                + sum(out.transfers) - out.welfare) <= 1e-9
        acc_ok = acc_ok and abs(sum(out.transfers)) <= 1e-12
    elapsed = time.time() - t0
    ok = fpa_ok and acc_ok and elapsed < 180
    record_criterion(8, ok, f"property suites: Myerson payment residual "
                            f"{rep.max_payment_residual:.1e} <= 1e-6, "
                            f"first-price efficiency {rep.efficiency:.4f} >= "
                            f"99.9%, accounting identity and budget balance on "
                            f"200 seeded plays, {elapsed:.1f}s")
    assert ok
