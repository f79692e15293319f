import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from aftermarkets import distributions
from aftermarkets.cli import _lower_bound_row, posted_fails_summary
from aftermarkets.distributions import (Atom, EqualRevenueCapped, PiecewiseCdf,
                                        PointMass, SegmentSpec, Uniform,
                                        _cumulative_integral,
                                        lower_bound_z_distribution,
                                        speculative_buyer_value_distribution)
from aftermarkets.equilibrium import (default_deviation_grid,
                                      scripted_lower_bound_equilibrium,
                                      symmetric_fpa_check, verify_bne)


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


@pytest.mark.parametrize("H", [1.01, 3.7, 1000.0])
def test_equal_revenue_capped_closed_forms_bit_for_bit(H):
    """The derived cdf and quantile equal the closed forms exactly: (x - 1)/x
    below H, the atom's 1/H on top at H, and 1/(1 - u) below the atom's
    window, H inside it."""
    d = EqualRevenueCapped(H)
    xs = np.concatenate(([0.0, 0.5, 1.0], np.linspace(1.0, H, 37)[1:-1],
                         [np.nextafter(H, 0.0), H, 2.0 * H]))
    top = min(1.0 / H + (H - 1.0) / H, 1.0)
    closed = [0.0 if x <= 1.0 else top if x >= H else (x - 1.0) / x for x in xs.tolist()]
    assert [float(c).hex() for c in d.cdf(xs)] == [c.hex() for c in closed]
    assert [float(d.cdf(x)).hex() for x in xs.tolist()] == [c.hex() for c in closed]
    edge = (H - 1.0) / H
    us = np.concatenate((np.linspace(0.0, 0.999, 41), [np.nextafter(edge, 0.0), edge]))
    closed = [1.0 / (1.0 - u) if u < edge else H for u in us.tolist()]
    assert [float(q).hex() for q in d.quantile(us)] == [q.hex() for q in closed]
    assert [float(d.quantile(u)).hex() for u in us.tolist()] == [q.hex() for q in closed]


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


@pytest.mark.parametrize("subdivide", [0, -1])
def test_cells_reject_subdivide_below_one(subdivide):
    with pytest.raises(ValueError):
        lower_bound_z_distribution(10).cells((), subdivide)


def test_cells_with_breakpoint_split_piecewise_linear():
    d = lower_bound_z_distribution(10)
    nodes, weights = d.cells((1.0,))
    # E[(z - 1)^+] computed two ways
    exact = sum(w * max(x - 1.0, 0.0) for x, w in zip(nodes, weights))
    rng = np.random.default_rng(0)
    mc = np.maximum(d.sample(rng, 200_000) - 1.0, 0).mean()
    assert exact == pytest.approx(1.0 / (8 * 10 * 10), rel=1e-9)
    assert mc == pytest.approx(exact, abs=5e-5)


def test_quantile_without_ppf_inverts_cdf():
    """A segment with no ppf inverts its scalar-only cdf (math.cos) by the
    package's bisection: the cosine CDF's quantile is arccos(1 - 2u) / pi."""
    u = np.sort(np.random.default_rng(3).random(2000))
    got = _cosine_cdf().quantile(u)
    np.testing.assert_allclose(got, np.arccos(1.0 - 2.0 * u) / np.pi, rtol=0, atol=1e-14)
    assert _cosine_cdf().quantile(0.0) == 0.0


def test_kronrod_tables_read_only():
    for table in (distributions._KRONROD_NODES, distributions._KRONROD_WEIGHTS,
                  distributions._GAUSS_WEIGHTS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


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


def _uniform_segment(lo, width):
    d = Uniform(lo, lo + width)
    w = d.hi - d.lo
    return d.segments()[0], lambda x: 1.0 / w


def _z_segment(m, k):
    c = 2 * m - 1
    density = (lambda z: c / (1.0 + c * z) ** 2) if k == 0 else (lambda z: 1.0)
    return lower_bound_z_distribution(m).segments()[k], density


# every preset segment, with its density written out here
preset_segments = st.one_of(
    st.builds(_uniform_segment, st.floats(-10.0, 1e5), st.floats(1e-3, 100.0)),
    st.just(_uniform_segment(1e5, 1.0)),
    st.builds(lambda H: (EqualRevenueCapped(H).segments()[0], lambda x: 1.0 / (x * x)),
              st.floats(1.01, 1e4)),
    st.builds(_z_segment, st.integers(4, 10_000), st.sampled_from((0, 1))),
    st.builds(lambda eps, H: (speculative_buyer_value_distribution(eps, H).segments()[0],
                              lambda v: 1.0 / (v * v)),
              st.floats(0.01, 0.99), st.floats(1.01, 1e3)),
)
# fractions of the segment: two anywhere, or a tiny window at its lower end
windows = st.one_of(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    st.floats(1e-12, 1e-4).map(lambda t: (0.0, t)))


@given(preset_segments, windows)
@example(_uniform_segment(1e5, 1.0), (0.0, 1.0))
@example(_z_segment(10_000, 0), (0.0, 1e-9))
@example(_z_segment(4, 0), (0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_segment_moments_match_quad(seg_density, fracs):
    """Each preset segment's closed-form moment is the integral of x * density
    over any window inside the segment."""
    seg, density = seg_density
    a, b = sorted(seg.lo + f * (seg.hi - seg.lo) for f in fracs)
    b = min(b, seg.hi)
    assume(a < b)
    got = float(seg.partial_mean(a, np.array([b]))[0])
    want = integrate.quad(lambda x: x * density(x), a, b, epsabs=0.0,
                          epsrel=1e-13, limit=200)[0]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _square_cdf():
    return PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=lambda x: x * x,
                                     pdf=lambda x: 2.0 * x, ppf=math.sqrt),))


def test_segment_needs_moment_or_pdf():
    with pytest.raises(ValueError):
        SegmentSpec(0.0, 1.0, cdf=lambda x: x)
    SegmentSpec(0.0, 1.0, cdf=lambda x: x, pdf=lambda x: 1.0)
    SegmentSpec(0.0, 1.0, cdf=lambda x: x, partial_mean=lambda a, b: (b - a) * (b + a) / 2)


class QuadCalled(Exception):
    pass


class MomentRuleCalled(Exception):
    pass


def test_presets_never_reach_quad(monkeypatch):
    """With `quad` and the cumulative moment rule raising, the audits over
    preset distributions still run: only a segment without a closed-form
    moment integrates, and the x^2 check does so without `quad`."""
    def no_quad(*args, **kwargs):
        raise QuadCalled

    def no_moment_rule(*args, **kwargs):
        raise MomentRuleCalled

    monkeypatch.setattr(integrate, "quad", no_quad)
    monkeypatch.setattr(distributions, "_cumulative_integral", no_moment_rule)
    roles = ("regular", "bulk", "speculator")
    for m in (10, 100):
        grids = {i: default_deviation_grid(m, r) for i, r in enumerate(roles)}
        assert verify_bne(scripted_lower_bound_equilibrium(m), grids, eps=1e-6).verdict
    assert posted_fails_summary(0.01, 1000.0)["ratio"] > 1.0
    assert _lower_bound_row(10)["ratio"] > 1.0
    rng = np.random.default_rng(5)
    for d in (Uniform(-1.0, 3.0), Uniform(1e5, 1e5 + 1.0), EqualRevenueCapped(50.0),
              lower_bound_z_distribution(10), lower_bound_z_distribution(10_000),
              speculative_buyer_value_distribution(0.01, 1000.0), PointMass(2.0)):
        lo, hi = d.support
        for _ in range(5):
            cuts = lo + (hi - lo) * rng.random(rng.integers(0, 6))
            nodes, weights = d.cells(tuple(cuts.tolist()), int(rng.integers(1, 4)))
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(nodes @ weights) == pytest.approx(d.mean(), rel=1e-12)
    with pytest.raises(MomentRuleCalled):
        _square_cdf().partial_mean(0.0, 0.5)
    # the x^2 segment takes every moment from the Kronrod rule (4,032 quad
    # calls when each upper limit was integrated by quad from lo)
    monkeypatch.setattr(distributions, "_cumulative_integral",
                        _cumulative_integral)
    assert symmetric_fpa_check(_square_cdf(), 5, 21, 500).passes(1e-6)


def _singular_cdf():
    """F(x) = sqrt(x) on [0, 1]: the density 1/(2 sqrt(x)) is unbounded at 0."""
    return PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=math.sqrt,
                                     pdf=lambda x: 0.5 / math.sqrt(x),
                                     ppf=lambda u: u * u),))


def _straddling_cdf():
    """F(x) = (x + 1)^2 / 9 on [-1, 2]: x * pdf changes sign at 0."""
    return PiecewiseCdf((SegmentSpec(-1.0, 2.0, cdf=lambda x: (x + 1.0) ** 2 / 9.0,
                                     pdf=lambda x: 2.0 * (x + 1.0) / 9.0),))


def _cosine_cdf():
    """F(x) = (1 - cos(pi x)) / 2 on [0, 1], with a scalar-only pdf."""
    return PiecewiseCdf((SegmentSpec(
        0.0, 1.0, cdf=lambda x: (1.0 - math.cos(math.pi * x)) / 2.0,
        pdf=lambda x: math.pi / 2.0 * math.sin(math.pi * x)),))


pdf_only = {"square": _square_cdf, "cosine": _cosine_cdf,
            "singular": _singular_cdf, "straddling": _straddling_cdf}


# at a subnormal width quad, the reference here, puts a node on the singular
# end; the rule itself takes such widths (next test)
@pytest.mark.parametrize("name", sorted(pdf_only))
@given(fracs=st.lists(st.floats(-0.25, 1.25, allow_subnormal=False), max_size=30),
       repeats=st.integers(0, 5),
       start=st.one_of(st.floats(-0.25, 0.0), st.floats(0.05, 0.9)))
# the singular density's gaps [0, 2^-23] and [2^-23, 1]: their halved pieces
# pass the check, so no quad is called
@example(fracs=[2.0 ** -23], repeats=0, start=0.0)
@settings(max_examples=40, deadline=None)
def test_cumulative_moment_matches_quad_per_limit(name, fracs, repeats, start):
    """The cumulative Kronrod rule gives every upper limit the moment that
    quad gives it from the window's start, whatever the limits' order,
    repeats and position (below the window, past the segment's end). A
    window starting just past the singular end is held to quad's own
    tolerance instead, in the next test."""
    d = pdf_only[name]()
    seg = d.segments()[0]
    width = seg.hi - seg.lo
    a = seg.lo + start * width
    b = np.array(fracs + fracs[:repeats] + [0.0, 1.0]) * width + seg.lo
    got = d.partial_mean(a, b)
    for h, g in zip(b, got):
        lo, hi = max(a, seg.lo), min(h, seg.hi)
        want = 0.0 if lo >= hi else integrate.quad(
            lambda x: x * seg.pdf(x), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        assert g == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       start=st.floats(0.0, 1e-3))
# every node of a subnormal-width gap rounds onto the singular end
@example(fracs=[5e-324, 2e-323], start=0.0)
@settings(max_examples=60, deadline=None)
def test_near_singular_window_meets_quad_tolerance(fracs, start):
    """Near the singular end quad itself is good only to its tolerance, so
    the rule is held to that against the closed form (h^1.5 - a^1.5) / 3,
    down to subnormal window widths."""
    b = np.array(fracs)
    got = _singular_cdf().partial_mean(start, b)
    want = (np.maximum(b, start) ** 1.5 - start ** 1.5) / 3.0
    np.testing.assert_allclose(got, want, rtol=distributions.QUAD_EPSREL,
                               atol=distributions.QUAD_EPSABS)


def test_singular_density_falls_back_to_quad(monkeypatch):
    """The gap at the singular end fails the Kronrod - Gauss check, so quad
    integrates it; smooth densities never call quad."""
    calls = []
    quad = integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    limits = np.linspace(0.0, 1.0, 101)
    for name in ("square", "cosine", "straddling"):
        pdf_only[name]().partial_mean(-1.0, limits)
    assert calls == []
    _singular_cdf().partial_mean(0.0, limits)
    assert (0.0, 0.01) in calls


def _interior_singular_cdf():
    """Density 1/(c sqrt|x - 1/3|) on [0, 1]: x * pdf is unbounded inside the
    one gap [0, 1], so the halved pieces around 1/3 fail to the last depth."""
    r1, r2 = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    c = 2.0 * (r1 + r2)
    return PiecewiseCdf((SegmentSpec(
        0.0, 1.0,
        cdf=lambda x: (r1 + math.copysign(math.sqrt(abs(x - 1.0 / 3.0)), x - 1.0 / 3.0))
        * 2.0 / c,
        pdf=lambda x: 1.0 / (c * math.sqrt(abs(x - 1.0 / 3.0)))),))


def _end_singular_cdf(lo=1.0):
    """F(x) = sqrt(x - lo) on [lo, lo + 1]: the density 1/(2 sqrt(x - lo)) is
    unbounded at the segment's lower end; E = lo + 1/3."""
    return PiecewiseCdf((SegmentSpec(lo, lo + 1.0, cdf=lambda x: math.sqrt(x - lo),
                                     pdf=lambda x: 0.5 / math.sqrt(x - lo)),))


def test_unbounded_moment_integrands_meet_closed_forms():
    """Where x * pdf is unbounded, inside a gap or at a segment's end, the
    gap that still fails the check after every halving goes whole to quad,
    and the mean meets its closed form."""
    r1, r2 = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    # int_0^1 x / sqrt|x - 1/3| dx = 2/3 (r2^3 + r2 + r1 - r1^3)
    interior = 2.0 / 3.0 * (r2 ** 3 + r2 + r1 - r1 ** 3) / (2.0 * (r1 + r2))
    assert _interior_singular_cdf().mean() == pytest.approx(interior, rel=1e-12)
    assert _end_singular_cdf().mean() == pytest.approx(4.0 / 3.0, rel=1e-12)
    # far from 0 the failing end piece grows too narrow for its nodes before
    # the last depth, and its gap still goes to quad, which integrates from
    # the gap's start (from 0 it was 2e-9 off); dropping the piece loses 3.5e-4
    assert _end_singular_cdf(1e5).mean() == pytest.approx(1e5 + 1.0 / 3.0, rel=1e-12)


def test_narrow_window_takes_midpoint_times_mass():
    """A window too narrow to hold the Kronrod nodes strictly inside (100
    ulps) calls no pdf and takes its midpoint times its mass, so the node of
    its cell stays inside the cell."""
    d = _square_cdf()
    a = 0.7
    b = a + 100 * math.ulp(a)
    mass = float(d.cdf(b) - d.cdf(a))
    assert mass > 0
    got = float(d.partial_mean(a, b))
    assert got == pytest.approx((a + (b - a) / 2.0) * mass, rel=1e-12, abs=0.0)
    nodes, weights = d.cells((a, b))
    assert weights[1] == mass and a <= nodes[1] <= b


def test_cumulative_moment_spans_blocks_and_unbounded_gaps():
    """Over more limits than one block, with an unbounded last gap (which
    quad takes), every moment meets the closed form 1 - (1 + h) e^-h."""
    d = PiecewiseCdf((SegmentSpec(0.0, math.inf, cdf=lambda x: -math.expm1(-x),
                                  pdf=lambda x: math.exp(-x)),))
    limits = np.append(np.linspace(40.0, 0.0, 3 * distributions.KRONROD_BLOCK),
                       math.inf)
    want = np.append(1.0 - (1.0 + limits[:-1]) * np.exp(-limits[:-1]), 1.0)
    np.testing.assert_allclose(d.partial_mean(0.0, limits), want, rtol=1e-12,
                               atol=1e-15)


def test_square_cells_mean():
    nodes, weights = _square_cdf().cells((0.25, 0.5), subdivide=3)
    assert float(nodes @ weights) == pytest.approx(2.0 / 3.0, rel=1e-12, abs=1e-12)
    assert _square_cdf().mean() == pytest.approx(2.0 / 3.0, rel=1e-12, abs=1e-12)


def reference_cells(d, breakpoints, subdivide):
    """The cell rule as each cell's whole-distribution moment over its segment's
    mass there: partial_mean(a, b) / (F_s(b) - F_s(a)), zero-mass cells
    skipped. It equals the per-segment rule wherever segments are disjoint."""
    nodes, weights = [a.x for a in d.atoms()], [a.mass for a in d.atoms()]
    for s in d.segments():
        cuts = sorted({s.lo, s.hi} | {b for b in breakpoints if s.lo < b < s.hi})
        fine = set(cuts)
        for a, b in zip(cuts, cuts[1:]):
            fine.update(a + (b - a) * k / subdivide for k in range(subdivide))
        fine = sorted(fine)
        for a, b in zip(fine, fine[1:]):
            mass = s.cdf(b) - s.cdf(a)
            if mass <= 0:
                continue
            nodes.append(d.partial_mean(a, b) / mass)
            weights.append(mass)
    return nodes, weights


cell_distributions = st.one_of(
    st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(-10.0, 1e5),
              st.floats(1e-3, 100.0)),
    st.builds(EqualRevenueCapped, st.floats(1.01, 1e4)),
    st.builds(lower_bound_z_distribution, st.integers(4, 10_000)),
    st.builds(speculative_buyer_value_distribution, st.floats(0.01, 0.99),
              st.floats(1.01, 1e3)),
    st.just(PointMass(2.0)),
    st.sampled_from(("square", "cosine")).map(lambda name: pdf_only[name]()),
)


@given(cell_distributions,
       st.lists(st.floats(-0.25, 1.25), max_size=6),
       st.integers(1, 4))
@example(lower_bound_z_distribution(10), [1.0 / 1.05, 0.5], 3)
@settings(max_examples=120, deadline=None)
def test_cells_match_whole_distribution_reference(d, fracs, subdivide):
    """Per-segment cells give the parent rule's nodes and weights bit for bit
    on every preset and on pdf-only CDFs, at any breakpoints and subdivision."""
    lo, hi = d.support
    bps = tuple(lo + f * (hi - lo) for f in fracs)
    nodes, weights = d.cells(bps, subdivide)
    want_nodes, want_weights = reference_cells(d, bps, subdivide)
    assert list(map(float.hex, nodes.tolist())) == list(map(float.hex, want_nodes))
    assert list(map(float.hex, weights.tolist())) == list(map(float.hex, want_weights))


def test_cells_take_one_cdf_call_per_cut_and_no_partial_mean(monkeypatch):
    calls = []

    def cdf(x):
        calls.append(x)
        return x * x

    d = PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=cdf, pdf=lambda x: 2.0 * x),))

    def no_partial_mean(*args, **kwargs):
        raise AssertionError("cells called UnitDistribution.partial_mean")

    monkeypatch.setattr(distributions.UnitDistribution, "partial_mean", no_partial_mean)
    calls.clear()
    nodes, weights = d.cells((0.25, 0.5), subdivide=3)
    # three cut intervals of three cells each: ten cuts
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 10
    assert len(nodes) == 9
    assert float(nodes @ weights) == pytest.approx(2.0 / 3.0, rel=1e-12)


def _half_uniform(lo):
    return SegmentSpec(lo, lo + 1.0, cdf=lambda x: (x - lo) / 2.0,
                       partial_mean=lambda a, b: (b - a) * (b + a) / 4.0)


def test_overlapping_segments_take_their_own_moments():
    """Half U[0, 1] and half U[0.5, 1.5]: each cell's moment comes from its
    own segment, so the mean is 0.75 (a cell's moment summed over both
    segments gave 1.125)."""
    d = PiecewiseCdf((_half_uniform(0.0), _half_uniform(0.5)))
    assert d.partial_mean(0.0, 1.5) == 0.75
    assert d.mean() == 0.75
    nodes, weights = d.cells((0.75,), 2)
    assert float(nodes @ weights) == 0.75


def test_flat_cdf_stretch_makes_no_cell():
    """F(x) = min(x, 1) on [0, 2]: the cell [1, 2] has no mass and no node."""
    d = PiecewiseCdf((SegmentSpec(
        0.0, 2.0, cdf=lambda x: min(x, 1.0),
        partial_mean=lambda a, b: (np.minimum(b, 1.0) ** 2 - min(a, 1.0) ** 2) / 2.0),))
    nodes, weights = d.cells((1.0,))
    assert nodes.tolist() == [0.5] and weights.tolist() == [1.0]
    assert d.cells((), 4)[1].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("subdivide", [1, 2, 3, 4])
def test_unbounded_segment_cells_stay_finite(subdivide):
    """The exponential on [0, inf): the cell above the breakpoint reaches
    infinity and stays whole, with conditional mean 1.5 by memorylessness."""
    d = PiecewiseCdf((SegmentSpec(0.0, math.inf, cdf=lambda x: -math.expm1(-x),
                                  pdf=lambda x: math.exp(-x)),))
    nodes, weights = d.cells((0.5,), subdivide)
    assert np.all(np.isfinite(nodes)) and len(nodes) == subdivide + 1
    assert nodes[-1] == pytest.approx(1.5, rel=1e-12)
    assert weights[-1] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert abs(d.mean() - 1.0) <= 1e-12
