import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftermarkets.distributions import (Atom, EqualRevenueCapped, PointMass,
                                        Uniform, lower_bound_z_distribution,
                                        speculative_buyer_value_distribution)


def test_uniform_basics():
    d = Uniform(1.0, 1.5)
    assert d.support == (1.0, 1.5)
    assert d.cdf(1.25) == pytest.approx(0.5)
    assert d.mean() == pytest.approx(1.25)
    assert d.partial_mean(1.0, 1.5) == pytest.approx(1.25)
    assert d.quantile(0.3) == pytest.approx(1.15)


def test_point_mass():
    d = PointMass(2.0)
    assert d.mean() == pytest.approx(2.0)
    assert d.quantile(0.5) == 2.0
    assert d.cdf(1.9) == 0.0
    assert d.cdf(2.0) == 1.0


def test_equal_revenue_capped_mean():
    H = 1000.0
    d = EqualRevenueCapped(H)
    # E[z] = 1 + ln(H): survival integral of min(1/v, ...) on [1, H]
    assert d.mean() == pytest.approx(1.0 + math.log(H), rel=1e-9)
    assert d.partial_mean(1.0, H) == pytest.approx(math.log(H), rel=1e-9)
    assert sum(a.mass for a in d.atoms()) == pytest.approx(1.0 / H)


@pytest.mark.parametrize("m", [5, 10, 100, 10000])
def test_lower_bound_z_distribution_closed_forms(m):
    d = lower_bound_z_distribution(m)
    # continuous at 1 with P[z >= 1] = 1/(2m)
    assert d.cdf(1.0) == pytest.approx(1.0 - 1.0 / (2 * m), rel=1e-12)
    assert d.support == (0.0, 1.0 + 1.0 / (2 * m))
    closed = math.log(2 * m) / (2 * m - 1) + 1.0 / (8 * m * m)
    assert d.mean() == pytest.approx(closed, rel=1e-10)


def test_quantile_roundtrip():
    for d in (Uniform(0.0, 1.0), lower_bound_z_distribution(50),
              EqualRevenueCapped(100.0)):
        for u in np.linspace(0.001, 0.999, 41):
            x = float(d.quantile(float(u)))
            # generalized inverse: F(x) >= u and F just below x is <= u
            assert d.cdf(x) >= u - 1e-7
            assert d.cdf(x - 1e-6 * max(1.0, abs(x))) <= u + 1e-4


def test_sampling_matches_cdf():
    rng = np.random.default_rng(7)
    d = lower_bound_z_distribution(20)
    xs = d.sample(rng, 100_000)
    grid = np.linspace(0.01, 1.02, 30)
    emp = np.array([(xs <= g).mean() for g in grid])
    ref = np.array([d.cdf(g) for g in grid])
    assert np.max(np.abs(emp - ref)) < 6e-3


def test_speculative_buyer_distribution():
    eps, H = 0.01, 1000.0
    d = speculative_buyer_value_distribution(eps, H)
    assert d.cdf(0.0) == pytest.approx(1.0 - eps)
    assert d.support[1] == pytest.approx(H / eps)
    # E = eps * E[z / eps] = 1 + ln H
    assert d.mean() == pytest.approx(1.0 + math.log(H), rel=1e-9)


def test_cells_integrate_linear_functions_exactly():
    m, H = 10, 50.0
    for d, closed in ((Uniform(1.0, 1.5), 1.25),
                      (lower_bound_z_distribution(m),
                       math.log(2 * m) / (2 * m - 1) + 1.0 / (8 * m * m)),
                      (EqualRevenueCapped(H), 1.0 + math.log(H))):
        nodes, weights = d.cells(())
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(nodes @ weights) == pytest.approx(closed, rel=1e-9)


def test_cells_with_breakpoint_split_piecewise_linear():
    d = lower_bound_z_distribution(10)
    nodes, weights = d.cells((1.0,))
    # E[(z - 1)^+] computed two ways
    exact = sum(w * max(x - 1.0, 0.0) for x, w in zip(nodes, weights))
    rng = np.random.default_rng(0)
    mc = np.maximum(d.sample(rng, 200_000) - 1.0, 0).mean()
    assert exact == pytest.approx(1.0 / (8 * 10 * 10), rel=1e-9)
    assert mc == pytest.approx(exact, abs=5e-5)


@given(st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_quantile_monotone(u):
    d = lower_bound_z_distribution(8)
    assert d.quantile(u) <= d.quantile(min(u + 0.01, 0.999)) + 1e-12


def test_uniform_mean_off_unit_interval():
    assert Uniform(2.0, 4.0).mean() == pytest.approx(3.0)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(1.0, -0.1)
