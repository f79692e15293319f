"""Scalar unit distributions: point masses, uniforms, equal-revenue-capped, and
piecewise CDFs with explicit atoms.

Every distribution decomposes into continuous segments plus explicit atoms.
Expectations of piecewise-smooth integrands are taken with an exact
interval-moment rule: the support is cut at segment boundaries, atoms and
caller-supplied breakpoints, and each continuous cell contributes its
segment's (mass, conditional mean) there, so any integrand linear on each
cell integrates exactly. Every preset segment states its moment in closed
form. A segment without one has x * pdf integrated in one cumulative pass
over the sorted upper limits: QUADPACK's 15-point Kronrod rule per gap
between consecutive limits, checked against its embedded 7-point Gauss rule,
the gaps added with a compensated running sum, and scipy's `quad` from the
window's start wherever the check fails. The Kronrod table is the package's
one quadrature table, and `_monotone_inverse`, an array bisection, its one
monotone inverse: a segment without a `ppf` inverts its `cdf` by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Atom:
    x: float
    mass: float

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("atom mass must be nonnegative")


@dataclass(frozen=True)
class SegmentSpec:
    """Continuous CDF piece on [lo, hi); `cdf` and `ppf` are in global coordinates.
    `partial_mean(a, b)` is the moment of x dF on [a, b] for lo <= a < b <= hi,
    array-safe in `b`. Without it the base class integrates x * `pdf` by its
    cumulative Kronrod rule, with `quad` where that rule's error check fails,
    so give one. Without `ppf`, `quantile` bisects `cdf` on a bounded segment."""

    lo: float
    hi: float
    cdf: Callable[[float], float]
    pdf: Optional[Callable[[float], float]] = None
    ppf: Optional[Callable[[float], float]] = None  # inverse of global cdf
    partial_mean: Optional[Callable] = None

    def __post_init__(self):
        if self.pdf is None and self.partial_mean is None:
            raise ValueError("segment needs a partial_mean or a pdf")


class UnitDistribution:
    """Base class. Subclasses provide `segments()` and `atoms()`; everything
    else (cdf, quantile, sampling, moments, cells) derives from those.

    `cdf`, `quantile` and `partial_mean` (in its upper limit) work elementwise
    on numpy arrays and return a numpy scalar for a scalar argument. The
    `SegmentSpec` callables run one element at a time, so they may be scalar-only
    (`ppf=math.sqrt`); only the moment gets an array of upper limits. Segments,
    support and the cumulative windows are cached once per instance in `__dict__`."""

    def segments(self) -> Sequence[SegmentSpec]:
        raise NotImplementedError

    def atoms(self) -> Sequence[Atom]:
        return ()

    # -- derived interface -------------------------------------------------

    @cached_property
    def _segments(self) -> tuple[SegmentSpec, ...]:
        return tuple(self.segments())

    @cached_property
    def kinks(self) -> tuple[float, ...]:
        """Segment ends and atom positions, sorted: where the CDF may kink."""
        return tuple(sorted({s.lo for s in self._segments}
                            | {s.hi for s in self._segments}
                            | {a.x for a in self.atoms()}))

    @cached_property
    def support(self) -> tuple[float, float]:
        return (self.kinks[0], self.kinks[-1])

    def cdf(self, x):
        """P[Z <= x]."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape)
        for a in self.atoms():
            total += np.where(a.x <= x, a.mass, 0.0)
        for s in self._segments:
            c_lo = s.cdf(s.lo)
            total += np.where(x >= s.hi, s.cdf(s.hi) - c_lo, 0.0)
            inside = (x > s.lo) & (x < s.hi)
            total[inside] += [s.cdf(float(xi)) - c_lo for xi in x[inside]]
        return np.minimum(total, 1.0)[()]

    @cached_property
    def _parts(self):
        """Segments and atoms merged in increasing position order, each with
        its cumulative-probability window [u0, u1)."""
        items = [("seg", s.lo, s) for s in self._segments]
        items += [("atom", a.x, a) for a in self.atoms()]
        # an atom sitting at a segment's upper end comes after the segment
        items.sort(key=lambda t: (t[1], 0 if t[0] == "seg" else 1))
        out, u = [], 0.0
        for kind, _, obj in items:
            mass = (obj.cdf(obj.hi) - obj.cdf(obj.lo)) if kind == "seg" else obj.mass
            out.append((kind, obj, u, u + mass))
            u += mass
        if abs(u - 1.0) > 1e-9:
            raise ValueError(f"total probability mass {u} != 1")
        return tuple(out)

    def quantile(self, u):
        u = _unit_interval(u)
        parts = self._parts
        # the first part with u < u1; the last part takes the rest
        which = np.searchsorted([p[3] for p in parts[:-1]], u, side="right")
        out = np.empty(u.shape)
        for k, count in enumerate(np.bincount(which.ravel(), minlength=len(parts))):
            if not count:
                continue
            kind, obj, u0, u1 = parts[k]
            sel = which == k
            if kind == "atom":
                out[sel] = obj.x
                continue
            targets = obj.cdf(obj.lo) + (np.clip(u[sel], u0, u1) - u0)
            if obj.ppf is not None:
                out[sel] = [obj.ppf(float(t)) for t in targets]
            elif not math.isfinite(obj.hi - obj.lo):
                raise ValueError("an unbounded segment needs a ppf for its quantile")
            else:
                out[sel] = _monotone_inverse(
                    lambda x: np.fromiter(map(obj.cdf, x.tolist()), float, x.size),
                    targets, obj.lo, obj.hi)
        return out[()]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        return self.quantile(rng.random(size))

    def mean(self) -> float:
        """E[Z] by the cell rule, which is exact for the linear integrand."""
        nodes, weights = self.cells()
        return float(nodes @ weights)

    def partial_mean(self, a: float, b):
        """E[Z * 1{a <= Z < b}] of the continuous part only: the sum of each
        segment's moment (`_segment_moment`) on the window clipped to it."""
        b = np.asarray(b, dtype=float)
        total = np.zeros(b.shape)
        for s in self._segments:
            lo, hi = max(a, s.lo), np.minimum(b, s.hi)
            live = lo < hi
            total[live] += _segment_moment(s, lo, hi[live])
        return total[()]

    def cells(self, breakpoints: Sequence[float] = (), subdivide: int = 1):
        """Nodes and weights for E[g(Z)]: one node per atom, and per continuous
        cell of a segment its conditional mean there, with the cell mass as
        weight. A segment is cut at the breakpoints inside it, and each cut
        interval of finite width into `subdivide` equal parts; each cell takes
        its moment from its own segment alone, whose `cdf` runs once per cut.
        Exact whenever g is linear between consecutive breakpoints. Raises
        ValueError for subdivide < 1, which would leave no cell."""
        if subdivide < 1:
            raise ValueError(f"subdivide must be at least 1, not {subdivide}")
        nodes, weights = [], []
        for a in self.atoms():
            nodes.append(a.x)
            weights.append(a.mass)
        for s in self._segments:
            cuts = sorted({s.lo, s.hi} | {b for b in breakpoints if s.lo < b < s.hi})
            fine = sorted(set(cuts) | {a + (b - a) * k / subdivide
                                       for a, b in zip(cuts, cuts[1:])
                                       if math.isfinite(b - a)
                                       for k in range(1, subdivide)})
            cdf = [s.cdf(x) for x in fine]
            for a, b, mass in zip(fine, fine[1:], np.diff(cdf).tolist()):
                if mass <= 0:
                    continue
                nodes.append(float(_segment_moment(s, a, np.array([b]))[0]) / mass)
                weights.append(mass)
        return np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)


def _unit_interval(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not np.all((0.0 <= u) & (u < 1.0)):
        raise ValueError("quantile argument must lie in [0, 1)")
    return u


def _monotone_inverse(fn: Callable[[np.ndarray], np.ndarray], target,
                      lo: float, hi: float) -> np.ndarray:
    """sup{w in [lo,hi]: fn(w) < target} for nondecreasing fn (lo if none),
    elementwise over an array of targets, by bisection; fn is called on
    arrays. It stops once every midpoint is an end of its bracket, which no
    later round changes; a target met at lo or missed at hi starts there."""
    target = np.asarray(target, dtype=float)
    f_lo, f_hi = fn(np.array([lo, hi]))
    a = np.where((f_lo < target) & (f_hi < target), hi, lo)
    b = np.where(f_lo >= target, lo, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        if ((mid == a) | (mid == b)).all():
            break
        below = fn(mid) < target
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return 0.5 * (a + b)


def _segment_moment(seg: SegmentSpec, lo: float, ends: np.ndarray) -> np.ndarray:
    """int_lo^e x dF over `seg` for every e in `ends` (lo < e, all within the
    segment): its closed-form moment, else the cumulative Kronrod rule."""
    if seg.partial_mean is not None:
        return seg.partial_mean(lo, ends)
    return _cumulative_moment(seg, lo, ends)


# quad's tolerance for the moment of a segment without a closed form
QUAD_EPSABS, QUAD_EPSREL = 1e-12, 1.49e-8


def _mirror(half: np.ndarray, odd: bool = False) -> np.ndarray:
    """A symmetric rule's values at its nodes on [-1, 1], in increasing node
    order, from those at the nodes 1 > x >= 0 (negated on the left if odd);
    read-only, since the tables are shared."""
    full = np.concatenate((-half if odd else half, half[-2::-1]))
    full.flags.writeable = False
    return full


# QUADPACK's 15-point Kronrod rule on [-1, 1] and its embedded 7-point Gauss
# rule, which uses every other node (qk15; Piessens et al. 1983)
_KRONROD_NODES = _mirror(np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0]), odd=True)
_KRONROD_WEIGHTS = _mirror(np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714]))
_GAUSS_WEIGHTS = _mirror(np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327]))


# gaps per block of the cumulative pass: its memory stays O(block) however
# many upper limits it takes
KRONROD_BLOCK = 256


def _kronrod_gaps(seg: SegmentSpec, starts: np.ndarray, ends: np.ndarray,
                  span: float) -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod rule's int x pdf(x) dx over each gap [starts[i], ends[i]],
    and whether the gap passes: a bounded gap that passes the check of
    `_kronrod_sums`. A bounded gap with a node on or past
    its ends (a width of a few ulps) calls no pdf and passes with its midpoint
    times its mass, within half its width times its mass of the moment."""
    width = ends - starts
    passes = np.isfinite(width)
    bounded = np.flatnonzero(passes)
    half = width[bounded] / 2.0
    mid = starts[bounded] + half
    x = mid[:, None] + half[:, None] * _KRONROD_NODES
    inside = np.all((x > starts[bounded, None]) & (x < ends[bounded, None]), axis=1)
    moments = np.zeros(width.shape)
    narrow, rule = bounded[~inside], bounded[inside]
    moments[narrow] = [c * (seg.cdf(b) - seg.cdf(a)) for a, b, c in zip(
        starts[narrow].tolist(), ends[narrow].tolist(), mid[~inside].tolist())]
    x = x[inside]
    # pdf may be scalar-only (math.sin), so it sees one element at a time
    f = x * np.fromiter(map(seg.pdf, x.ravel().tolist()), float, x.size).reshape(x.shape)
    moments[rule], passes[rule] = _kronrod_sums(f, half[inside], span)
    return moments, passes


def _kronrod_sums(f: np.ndarray, half: np.ndarray, span: float):
    """The Kronrod integral of each gap from `f`, a row of node values per
    gap of half-width `half`, and whether its Kronrod - Gauss difference is
    within quad's epsrel or the gap's share of `span` of its epsabs."""
    kronrod, gauss = half * (f @ _KRONROD_WEIGHTS), half * (f @ _GAUSS_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss) <= np.maximum(
        QUAD_EPSABS * (2.0 * half) / span, QUAD_EPSREL * np.abs(kronrod))


def _cumulative_moment(seg: SegmentSpec, lo: float, ends: np.ndarray) -> np.ndarray:
    """int_lo^e x pdf(x) dx for every e in `ends` (each above lo), from one
    pass: the sorted distinct ends cut [lo, max(ends)] into gaps, each gap is
    integrated once by the Kronrod rule (`_kronrod_gaps`), and the gap moments
    add up in a running sum with Neumaier's compensation, scattered back to
    the order of `ends`. At the end of a gap that fails the rule's check the
    sum restarts from `quad` of x * pdf over [lo, end]."""
    limits = np.unique(ends)
    starts = np.concatenate(([lo], limits))[:-1]
    span = np.sum(limits - starts)
    out = np.empty(limits.shape)
    total = carry = 0.0
    for k in range(0, limits.size, KRONROD_BLOCK):
        block = slice(k, k + KRONROD_BLOCK)
        gaps, passes = _kronrod_gaps(seg, starts[block], limits[block], span)
        for i, gap, ok in zip(range(k, limits.size), gaps.tolist(), passes.tolist()):
            if ok:
                s = total + gap
                carry += (total - s) + gap if abs(total) >= abs(gap) else (gap - s) + total
                total = s
            else:
                # imported here, not at the top: no preset segment comes this
                # far, and scipy takes longer to import than the package
                from scipy import integrate
                total = integrate.quad(lambda x: x * seg.pdf(x), lo, limits[i],
                                       epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                                       limit=200)[0]
                carry = 0.0
            out[i] = total + carry
    return out[np.searchsorted(limits, ends)]


# -- concrete kinds --------------------------------------------------------


@dataclass(frozen=True)
class PointMass(UnitDistribution):
    c: float

    def segments(self):
        return ()

    def atoms(self):
        return (Atom(self.c, 1.0),)


@dataclass(frozen=True)
class Uniform(UnitDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("Uniform requires lo <= hi")
        if self.lo == self.hi:
            raise ValueError("degenerate Uniform; use PointMass")

    def segments(self):
        lo, hi = self.lo, self.hi
        w = hi - lo
        return (SegmentSpec(lo, hi,
                            cdf=lambda x: (min(max(x, lo), hi) - lo) / w,
                            ppf=lambda u: lo + u * w,
                            # (b - a)(b + a), not b^2 - a^2, which cancels far from 0
                            partial_mean=lambda a, b: (b - a) * (b + a) / (2.0 * w)),)

    def cdf(self, x):
        return ((np.clip(x, self.lo, self.hi) - self.lo) / (self.hi - self.lo))[()]

    def quantile(self, u):
        return (self.lo + _unit_interval(u) * (self.hi - self.lo))[()]


@dataclass(frozen=True)
class EqualRevenueCapped(UnitDistribution):
    """CDF (v-1)/v on [1, H), atom 1/H at H. E[Z] = 1 + ln H."""

    H: float

    def __post_init__(self):
        if self.H <= 1:
            raise ValueError("EqualRevenueCapped requires H > 1")

    def segments(self):
        H = self.H
        return (SegmentSpec(1.0, H,
                            cdf=lambda x: (x - 1.0) / x,
                            ppf=lambda u: 1.0 / (1.0 - u),
                            partial_mean=lambda a, b: np.log(b / a)),)

    def atoms(self):
        return (Atom(self.H, 1.0 / self.H),)


@dataclass(frozen=True)
class PiecewiseCdf(UnitDistribution):
    """General piecewise distribution from explicit segment specs plus atoms."""

    segs: tuple[SegmentSpec, ...]
    atom_list: tuple[Atom, ...] = ()

    def __post_init__(self):
        for s in self.segs:
            if s.lo >= s.hi:
                raise ValueError("segment must have lo < hi")
        self._parts  # validates total mass

    def segments(self):
        return self.segs

    def atoms(self):
        return self.atom_list


def lower_bound_z_distribution(m: int) -> PiecewiseCdf:
    """The speculation example's z: CDF 1 - 1/(1+(2m-1)z) on [0,1), then
    z - 1/(2m) on [1, 1+1/(2m)]. Continuous; E[z] = ln(2m)/(2m-1) + 1/(8m^2)."""
    if m <= 3:
        raise ValueError("requires m > 3")
    c = 2 * m - 1

    def moment(a, b):
        # (ln(1 + cz) + 1/(1 + cz))/c from a to b, where 1 + cb = (1 + ca)(1 + r)
        u = 1.0 + c * a
        r = c * (b - a) / u
        return (np.log1p(r) - r / ((1.0 + r) * u)) / c

    seg1 = SegmentSpec(0.0, 1.0,
                       cdf=lambda z: 1.0 - 1.0 / (1.0 + c * z),
                       ppf=lambda u: u / (c * (1.0 - u)), partial_mean=moment)
    seg2 = SegmentSpec(1.0, 1.0 + 1.0 / (2 * m),
                       cdf=lambda z: z - 1.0 / (2 * m),
                       ppf=lambda u: u + 1.0 / (2 * m),
                       partial_mean=lambda a, b: (b - a) * (b + a) / 2.0)
    return PiecewiseCdf((seg1, seg2))


def speculative_buyer_value_distribution(eps: float, H: float) -> PiecewiseCdf:
    """Second buyer of the posted-price failure example: 0 w.p. 1-eps, else
    z/eps with z equal-revenue capped at H. E = (1 - eps/H)*0 + ... = 1 + ln H
    scaled; top atom of mass eps/H at H/eps."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if H <= 1:
        raise ValueError("H must exceed 1")
    lo, hi = 1.0 / eps, H / eps
    seg = SegmentSpec(lo, hi,
                      cdf=lambda v: (1.0 - eps) + eps * (1.0 - 1.0 / (eps * v)),
                      ppf=lambda u: 1.0 / (1.0 - u),
                      partial_mean=lambda a, b: np.log(b / a))
    return PiecewiseCdf((seg,), (Atom(0.0, 1.0 - eps), Atom(hi, eps / H)))
