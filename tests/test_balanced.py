import random
from fractions import Fraction

import pytest

from aftermarkets.balanced import (balanced_reserve, check_balanced_conditions,
                                   noisy_reserve, perturbed_guarantee,
                                   realization_price, static_price,
                                   welfare_guarantee_audit)
from aftermarkets.combined import Mechanism, Quadrature
from aftermarkets.valuations import MarginalValuation, lower_bound_market


def random_fraction_profile(rng, n_max=5, runs_max=4):
    profile = []
    for _ in range(rng.randint(1, n_max)):
        k = rng.randint(0, runs_max)
        vals = sorted((Fraction(rng.randint(0, 24), rng.randint(1, 9))
                       for _ in range(k)), reverse=True)
        profile.append(MarginalValuation(vals))
    return profile


def test_realization_price_exact():
    prof = [MarginalValuation([Fraction(3), Fraction(1)]),
            MarginalValuation([Fraction(2)])]
    assert realization_price(prof, 3) == Fraction(6, 3)
    assert realization_price(prof, 4) == Fraction(6, 4)


def test_realization_price_is_1_1_balanced_exactly():
    rng = random.Random(2024)
    for _ in range(1000):
        prof = random_fraction_profile(rng)
        m = rng.randint(1, 12)
        rep = check_balanced_conditions(prof, m)
        assert rep.ok, (prof, m, rep)
        assert rep.min_margin_cover >= 0 and rep.min_margin_leftover >= 0


def test_balancedness_detects_bad_price():
    prof = [MarginalValuation([Fraction(4)]), MarginalValuation([Fraction(1)])]
    # price far above the per-unit optimum violates the leftover condition
    rep = check_balanced_conditions(prof, 2, price=Fraction(10))
    assert not rep.ok


def test_static_price_half_of_expected_per_unit():
    assert static_price(1.0, 1.0, 3.0) == pytest.approx(1.5)
    assert static_price(0.5, 1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        static_price(0.0, 1.0, 3.0)


def test_balanced_reserve_lower_bound_market():
    mkt = lower_bound_market(100)
    quad = Quadrature(subdivide=1, breakpoints=(1.0,))
    r = balanced_reserve(mkt, quad)
    Ez = mkt.agents[1].dist.mean()
    closed = (5.25 + 97 * Ez) / 200.0
    assert r == pytest.approx(closed, rel=1e-10)
    assert Mechanism("uniform", reserve=r).reserve == r  # a valid reserve


def test_welfare_guarantee_audit():
    ok = welfare_guarantee_audit(5.0, 8.0)
    assert ok.ok and ok.slack == pytest.approx(1.0)
    bad = welfare_guarantee_audit(3.9, 8.0)
    assert not bad.ok


def test_perturbed_and_noisy_guarantees():
    assert perturbed_guarantee(8.0, 10, 0.01) == pytest.approx(4.0 - 0.1)
    reserve, factor = noisy_reserve(7.6, 0.05, 100)
    assert reserve == pytest.approx(7.6 / 200.0)
    assert factor == pytest.approx(0.475)
    with pytest.raises(ValueError):
        noisy_reserve(7.6, 1.0, 100)
    with pytest.raises(ValueError):
        perturbed_guarantee(8.0, 10, -0.1)
