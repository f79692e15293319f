"""Every input guard that raises ValueError, each reached by one bad call."""

import math

import pytest

from aftermarkets.aftermarket import ResaleSpec, SignalProtocol
from aftermarkets.allocation import (Allocation, brute_force_opt, opt_allocation,
                                     opt_welfares)
from aftermarkets.balanced import (check_balanced_conditions, noisy_reserve,
                                   perturbed_guarantee, realization_price,
                                   static_price)
from aftermarkets.combined import (Mechanism, Quadrature, Strategy,
                                   expected_outcome, play)
from aftermarkets.distributions import (EqualRevenueCapped, PiecewiseCdf,
                                        SegmentSpec, Uniform,
                                        lower_bound_z_distribution,
                                        speculative_buyer_value_distribution)
from aftermarkets.equilibrium import (Action, CombinedGame,
                                      ConstantActionEvaluator,
                                      default_deviation_grid, interim_curves,
                                      run_dominance_suite,
                                      scripted_grouped_equilibrium,
                                      symmetric_fpa_check)
from aftermarkets.smoothness import (CheckDomain, CombinedSingleItemGame,
                                     FiniteDist, LiftedAction, LiftedGame,
                                     RoundAction, SingleItemFirstPrice,
                                     SmoothnessCertificate, check_smooth,
                                     fpa_deviation_generator, poa_bound)
from aftermarkets.valuations import (HeadTailModel, MarginalValuation,
                                     MarketModel, grouped_market,
                                     lower_bound_market)

PROTOCOL = SignalProtocol.PUBLIC_ALLOCATION_OWN_PAYMENT
PROFILE = (MarginalValuation([1.0]), MarginalValuation([0.5]))
UNIFORM_BUYER = HeadTailModel(tail_count=1, dist=Uniform(0.0, 1.0))


def _segment(lo, hi, scale=1.0):
    return SegmentSpec(lo, hi, cdf=lambda x: scale * (x - lo) / (hi - lo),
                       pdf=lambda x: scale / (hi - lo))


def _fpa_check(domain):
    cert = SmoothnessCertificate(0.5, 1.0, fpa_deviation_generator(50))
    return check_smooth(SingleItemFirstPrice(2), cert, domain)


def _lifted_check(seller_price):
    """Agent 0 wins on path and would resell at `seller_price`; every
    deviation bids 0.9, so no deviation row resells."""
    cert = SmoothnessCertificate(0.5, 1.0, lambda agent, value_profile:
                                 FiniteDist.point(0.9))
    action = LiftedAction(0.6, (RoundAction(seller_price),))
    return check_smooth(CombinedSingleItemGame(2, 1), cert,
                        CheckDomain(((1.0, 0.5),), ((action,), (0.0,))))


def _exponential():
    return PiecewiseCdf((SegmentSpec(0.0, math.inf, cdf=lambda x: -math.expm1(-x),
                                     pdf=lambda x: math.exp(-x)),))


GUARDS = {
    # allocation
    "negative-count": (lambda: Allocation((1, -1)), "nonnegative"),
    "opt-negative-k": (lambda: opt_allocation(PROFILE, -1), "k must be"),
    "brute-negative-k": (lambda: brute_force_opt(PROFILE, -1), "k must be"),
    "opt-welfares-negative-m": (lambda: opt_welfares(PROFILE, -1), "m must be"),
    # balanced
    "realization-price-m0": (lambda: realization_price(PROFILE, 0), "m must be"),
    "balanced-m0": (lambda: check_balanced_conditions(PROFILE, 0, 1.0), "m must be"),
    "balanced-nan-price": (lambda: check_balanced_conditions(PROFILE, 2, math.nan),
                           "price must be"),
    "balanced-negative-price": (lambda: check_balanced_conditions(PROFILE, 2, -0.5),
                                "price must be"),
    "balanced-infinite-price": (lambda: check_balanced_conditions(PROFILE, 2, math.inf),
                                "price must be"),
    "noisy-reserve-m0": (lambda: noisy_reserve(1.0, 0.1, 0), "m >= 1"),
    "noisy-reserve-nan-psi": (lambda: noisy_reserve(math.nan, 0.1, 1), "psi"),
    "noisy-reserve-nan-eps": (lambda: noisy_reserve(1.0, math.nan, 1), "eps"),
    "perturbed-m-negative": (lambda: perturbed_guarantee(1.0, -3, 0.1), "m >= 1"),
    "perturbed-nan-opt": (lambda: perturbed_guarantee(math.nan, 1, 0.1), "OPT"),
    "perturbed-nan-error": (lambda: perturbed_guarantee(1.0, 1, math.nan), "price error >= 0"),
    "static-price-nan-alpha": (lambda: static_price(math.nan, 1, 1), "alpha > 0"),
    "static-price-nan-beta": (lambda: static_price(1, math.nan, 1), "beta >= 0"),
    "static-price-nan-welfare": (lambda: static_price(1, 1, math.nan), "per-unit welfare"),
    # combined
    "play-arity": (lambda: play(lower_bound_market(10), Mechanism("uniform"), PROTOCOL,
                                None, (Strategy(),), PROFILE), "arity"),
    "expected-outcome-arity": (lambda: expected_outcome(
        lower_bound_market(10), Mechanism("uniform"), PROTOCOL, None, (Strategy(),),
        Quadrature()), "arity"),
    "quadrature-three-dims": (lambda: expected_outcome(
        MarketModel(1, (UNIFORM_BUYER,) * 3), Mechanism("uniform"), PROTOCOL, None,
        (Strategy(),) * 3, Quadrature()), "<= 2 scalar random dimensions"),
    # distributions
    "total-mass": (lambda: PiecewiseCdf((_segment(0.0, 1.0, 0.5),)), "total probability"),
    "quantile-one": (lambda: Uniform(0.0, 1.0).quantile(1.0), r"\[0, 1\)"),
    "quantile-negative": (lambda: lower_bound_z_distribution(10).quantile(-0.1),
                          r"\[0, 1\)"),
    "quantile-unbounded-no-ppf": (lambda: _exponential().quantile(0.5), "needs a ppf"),
    "uniform-reversed": (lambda: Uniform(2.0, 1.0), "lo <= hi"),
    "uniform-degenerate": (lambda: Uniform(1.0, 1.0), "degenerate"),
    # a NaN or infinite parameter leaves the mean NaN
    "uniform-nan-bound": (lambda: Uniform(math.nan, 1.0), "finite bounds"),
    "uniform-infinite-bound": (lambda: Uniform(0.0, math.inf), "finite bounds"),
    "equal-revenue-H1": (lambda: EqualRevenueCapped(1.0), "H > 1"),
    "equal-revenue-infinite-H": (lambda: EqualRevenueCapped(math.inf), "finite H > 1"),
    "equal-revenue-nan-H": (lambda: EqualRevenueCapped(math.nan), "finite H > 1"),
    "segment-empty": (lambda: PiecewiseCdf((_segment(1.0, 1.0),)), "lo < hi"),
    "z-m3": (lambda: lower_bound_z_distribution(3), "m > 3"),
    "speculative-eps0": (lambda: speculative_buyer_value_distribution(0.0, 10.0), "eps"),
    "speculative-eps1": (lambda: speculative_buyer_value_distribution(1.0, 10.0), "eps"),
    "speculative-H1": (lambda: speculative_buyer_value_distribution(0.5, 1.0), "H"),
    "speculative-infinite-H": (lambda: speculative_buyer_value_distribution(0.5, math.inf),
                               "H must be finite"),
    "speculative-nan-H": (lambda: speculative_buyer_value_distribution(0.5, math.nan),
                          "H must be finite"),
    # equilibrium
    "evaluator-winner-led": (lambda: ConstantActionEvaluator(CombinedGame(
        lower_bound_market(10), Mechanism("uniform"), ResaleSpec.winner_resale(),
        (Action(),) * 3)), "fixed resale groups"),
    "interim-three-agents": (lambda: interim_curves(
        (Uniform(0.0, 1.0),) * 3, (lambda v: v / 2,) * 3, 0, [0.5]), "two agents"),
    "interim-infinite-grid": (lambda: interim_curves(
        (Uniform(0.0, 1.0),) * 2, (lambda v: v / 2,) * 2, 0, [0.5, math.inf]), "finite"),
    "fpa-check-atom": (lambda: symmetric_fpa_check(EqualRevenueCapped(10.0)), "atomless"),
    "fpa-check-unbounded": (lambda: symmetric_fpa_check(_exponential()), "bounded"),
    # the witnesses are the one-group game's
    "dominance-grouped": (lambda: run_dominance_suite(
        scripted_grouped_equilibrium(40, 0.25)), r"one \(A, B, C\) group"),
    "deviation-grid-role": (lambda: default_deviation_grid(100, "speculatr"), "role"),
    # smoothness: a domain's arity must match the game's
    "smooth-action-sets": (lambda: _fpa_check(CheckDomain(((1.0, 0.5),),
                                                          ((0.0, 0.5),) * 3)),
                           "3 action sets for a game of 2 agents"),
    "smooth-long-values": (lambda: _fpa_check(CheckDomain(((1.0, 0.5, 0.2),),
                                                          ((0.0, 0.5),) * 2)),
                           "of length 3 for a game of 2 agents"),
    "smooth-short-values": (lambda: _fpa_check(CheckDomain(((1.0,),),
                                                           ((0.0, 0.5),) * 2)),
                            "of length 1 for a game of 2 agents"),
    # a domain with nothing to check does not pass vacuously
    "smooth-no-values": (lambda: _fpa_check(CheckDomain((), ((0.0, 0.5),) * 2)),
                         r"no \(value profile, action profile\) pair"),
    "smooth-empty-action-set": (lambda: _fpa_check(CheckDomain(((1.0, 0.5),),
                                                               ((), (0.2,)))),
                                r"no \(value profile, action profile\) pair"),
    # a round count that is not a nonnegative int (-1 used to play 0 rounds)
    "lifted-negative-rounds": (lambda: LiftedGame(SingleItemFirstPrice(2), -1),
                               "rounds must be a nonnegative int"),
    "lifted-fractional-rounds": (lambda: LiftedGame(SingleItemFirstPrice(2), 1.5),
                                 "rounds must be a nonnegative int"),
    "lifted-negative-seller-price": (lambda: _lifted_check(-0.5), "seller price"),
    "lifted-nan-seller-price": (lambda: _lifted_check(math.nan), "seller price"),
    "poa-nan-lambda": (lambda: poa_bound(math.nan, 1), "lambda"),
    "poa-nan-mu": (lambda: poa_bound(1, math.nan), "mu"),
    # a negative mu or an infinite lambda or mu certifies no bound
    "poa-negative-mu": (lambda: poa_bound(0.5, -1.0), "0 <= mu < inf"),
    "poa-infinite-lambda": (lambda: poa_bound(math.inf, 1.0), "0 < lambda < inf"),
    "poa-infinite-mu": (lambda: poa_bound(0.5, math.inf), "0 <= mu < inf"),
    # valuations
    "value-negative": (lambda: MarginalValuation([1.0]).value(-1), "nonnegative"),
    "head-increasing": (lambda: HeadTailModel(head=(1.0, 2.0)), "non-increasing"),
    "tail-without-dist": (lambda: HeadTailModel(tail_count=1), "distribution"),
    "realize-without-scalar": (lambda: UNIFORM_BUYER.realize(), "scalar draw"),
    "lower-bound-market-m3": (lambda: lower_bound_market(3), "m > 3"),
    "grouped-small-groups": (lambda: grouped_market(6, 0.5), "m/k > 3"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises(name):
    call, match = GUARDS[name]
    with pytest.raises(ValueError, match=match):
        call()
