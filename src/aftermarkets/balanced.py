"""Balanced per-unit pricing: the realization price OPT(v; m)/m, exact
(1, 1)-balancedness checks, the induced static posted price and
uniform-price reserve E[OPT]/(2m), and the welfare-guarantee audits
(including noisy estimates and perturbed prices).

With identical units a per-unit price p is (alpha, beta)-balanced when for
every number k of units sold
    k * p >= (OPT(m) - OPT(m - k)) / alpha         (sold units cover the
                                                    welfare they displace)
    (m - k) * p <= beta * OPT(m - k)               (leftover units are not
                                                    priced above their value)
On a profile whose marginals are all Fractions the checks are exact, at any
price, and run in integers: both margins in units of 1/(m L), L the common
denominator of the marginals. On a float profile the margins are floats,
judged against the rounding bound 1e-12 * max(1, |OPT(m)|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .allocation import _scaled_welfares, opt_allocation
from .combined import Integration, Mechanism, Quadrature, expected_optimal_welfare
from .valuations import MarginalValuation, MarketModel


def realization_price(profile: Sequence[MarginalValuation], m: int):
    """w^v = OPT(v; m) / m; exact (a Fraction) for Fraction-valued profiles."""
    return _per_unit(opt_allocation(profile, m)[1], m)


def _per_unit(opt, m: int):
    """opt / m; a Fraction when opt is an int or a Fraction."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return Fraction(opt, m) if isinstance(opt, int) else opt / m


@dataclass(frozen=True)
class BalancednessReport:
    ok: bool
    worst_k: int
    min_margin_cover: object   # min over k of k*p - (OPT(m) - OPT(m-k))
    min_margin_leftover: object  # min over k of OPT(m-k) - (m-k)*p


def check_balanced_conditions(profile: Sequence[MarginalValuation], m: int,
                              price=None) -> BalancednessReport:
    """Verify both (1, 1)-balancedness inequalities for every k in 0..m.
    Defaults to the realization price. With O_j = L * OPT(v; j) and
    P = m * L * price (P = O_m at the default price), the margins in units
    of 1/(m L) are cover_k = k P - m (O_m - O_{m-k}) and
    left_k = m O_{m-k} - (m - k) P; each minimum is divided once. On a
    Fraction profile every price is taken as a Fraction and the margins
    must be >= 0; float margins must be >= -1e-12 * max(1, |OPT(v; m)|).
    `worst_k` is the first k with the least cover margin."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if price is not None and not 0 <= price < math.inf:
        raise ValueError(f"price must be nonnegative and finite, not {price}")
    opts, scale = _scaled_welfares(profile, m)
    if scale and price is not None:
        price = Fraction(price)  # a float price at its exact binary value
    scale = scale or 1
    p = opts[m] if price is None else m * scale * price
    cover = [k * p - m * (opts[m] - opts[m - k]) for k in range(m + 1)]
    left = [m * opts[m - k] - (m - k) * p for k in range(m + 1)]
    min_cover, min_left = min(cover), min(left)
    worst_k = cover.index(min_cover)
    tol = 1e-12 * max(1, abs(opts[m]) / scale) if isinstance(min_cover, float) else 0
    min_cover, min_left = _per_unit(min_cover, m * scale), _per_unit(min_left, m * scale)
    return BalancednessReport(min_cover >= -tol and min_left >= -tol, worst_k,
                              min_cover, min_left)


def static_price(alpha: float, beta: float, expected_per_unit: float) -> float:
    """The static posted price alpha/(1 + alpha*beta) * E[w^v] induced by an
    (alpha, beta)-balanced realization price; (1, 1) gives E[OPT]/(2m)."""
    if not (alpha > 0 and beta >= 0) or math.isnan(expected_per_unit):
        raise ValueError("requires alpha > 0, beta >= 0 and a per-unit welfare, not NaN")
    return alpha / (1.0 + alpha * beta) * expected_per_unit


def balanced_reserve(market: MarketModel,
                     integration: Optional[Integration] = None) -> float:
    """E[OPT(v; m)] / (2m), the uniform-price reserve induced by the
    (1, 1)-balanced realization price."""
    integ = integration if integration is not None else Quadrature()
    return expected_optimal_welfare(market, integ) / (2.0 * market.m)


def uniform_with_balanced_reserve(market: MarketModel,
                                  integration: Optional[Integration] = None
                                  ) -> Mechanism:
    return Mechanism("uniform", reserve=balanced_reserve(market, integration))


@dataclass(frozen=True)
class WelfareAudit:
    ok: bool
    expected_welfare: float
    bound: float
    slack: float


def welfare_guarantee_audit(expected_welfare: float, expected_opt: float,
                            factor: float = 0.5, tol: float = 0.0) -> WelfareAudit:
    """Does the achieved expected welfare meet factor * E[OPT] (within tol)?"""
    bound = factor * expected_opt
    slack = expected_welfare - bound
    return WelfareAudit(slack >= -tol, expected_welfare, bound, slack)


def perturbed_guarantee(expected_opt: float, m: int,
                        price_error: float) -> float:
    """Welfare lower bound when the per-unit reserve is off by at most
    price_error: E[OPT]/2 - m * price_error."""
    if not price_error >= 0 or m < 1 or math.isnan(expected_opt):
        raise ValueError("requires price error >= 0, m >= 1 and an E[OPT], not NaN")
    return 0.5 * expected_opt - m * price_error


def noisy_reserve(psi: float, eps: float, m: int) -> tuple[float, float]:
    """Reserve and guarantee factor from an estimate psi >= (1-eps) E[OPT]:
    posting psi/(2m) still guarantees a (1-eps)/2 fraction of E[OPT]."""
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    if m < 1 or math.isnan(psi):
        raise ValueError("requires m >= 1 and a psi, not NaN")
    return psi / (2.0 * m), (1.0 - eps) / 2.0
