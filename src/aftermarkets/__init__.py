"""Multi-unit auctions with posted-price aftermarkets: simulation, exact
expectations, equilibrium verification, smoothness certificates, and balanced
pricing."""

from .aftermarket import (NO_OFFER, Observation, ResaleSpec, SignalProtocol,
                          ThresholdBuyer, apply_signal,
                          check_weak_budget_balance, opt_out_outcome,
                          run_posted_resale)
from .allocation import Allocation, brute_force_opt, opt_allocation, welfare
from .auctions import (AuctionOutcome, BidVector, all_pay, discriminatory,
                       uniform_price)
from .balanced import (BalancednessReport, WelfareAudit, balanced_reserve,
                       check_balanced_conditions, noisy_reserve,
                       perturbed_guarantee, realization_price, static_price,
                       uniform_with_balanced_reserve, welfare_guarantee_audit)
from .combined import (CombinedOutcome, ExpectedOutcome, Mechanism, MonteCarlo,
                       Quadrature, Strategy, expected_optimal_welfare,
                       expected_outcome, play)
from .distributions import (Atom, EqualRevenueCapped, PiecewiseCdf, PointMass,
                            Uniform, UnitDistribution,
                            lower_bound_z_distribution,
                            speculative_buyer_value_distribution)
from .equilibrium import (Action, BneReport, BrdResult, CombinedGame,
                          CombinedTabularGame, ConstantActionEvaluator,
                          DeviationGrid, DominanceReport, GapResult,
                          TabularGame, best_response_dynamics,
                          best_response_gap, default_deviation_grid,
                          dominance_witness_suite, interim_curves,
                          run_dominance_suite, scripted_grouped_equilibrium,
                          scripted_lower_bound_equilibrium, symmetric_fpa_bid,
                          symmetric_fpa_check, verify_bne,
                          weak_dominance_witness)
from .smoothness import (ONE_MINUS_INV_E, OPT_OUT, AuctionGame, CheckDomain,
                         CombinedSingleItemGame, FiniteDist, LiftedAction,
                         LiftedGame, MultiUnitDiscriminatory, RoundAction,
                         SingleItemAllPay, SingleItemFirstPrice,
                         SmoothableGame, SmoothnessCertificate,
                         SmoothnessReport, check_semi_smooth, check_smooth,
                         discriminatory_deviation,
                         discriminatory_deviation_generator, fpa_deviation,
                         fpa_deviation_generator, lift_certificate_to_combined,
                         poa_bound, uniform_price_overbidding_probe)
from .valuations import (ZERO_VALUATION, HeadTailModel, MarginalValuation,
                         MarketModel, ValuationBatch, cell_nodes, draw_values,
                         grouped_market, lower_bound_market,
                         posted_fails_market, realize_batch, sample_profile,
                         symmetric_fpa_market)

__version__ = "0.1.0"
