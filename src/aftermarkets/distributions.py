"""Scalar unit distributions: point masses, uniforms, equal-revenue-capped, and
piecewise CDFs with explicit atoms.

Every distribution decomposes into continuous segments plus explicit atoms.
Expectations of piecewise-smooth integrands are taken with an exact
interval-moment rule: the support is cut at segment boundaries, atoms and
caller-supplied breakpoints, and each continuous cell contributes its
segment's (mass, conditional mean) there, so any integrand linear on each
cell integrates exactly. Every preset segment states its moment in closed
form. The package has one integral rule, `_cumulative_integral`: one pass
over the sorted upper limits, QUADPACK's 15-point Kronrod rule per gap
between consecutive limits, checked against its embedded 7-point Gauss rule,
a failing piece halved, and the gaps added with a compensated running sum. A
segment without a closed form has x * pdf integrated by it; a gap the rule
cannot take goes through the caller's `whole` callback to scipy's `quad`,
which integrates from the gap's start. The first-price interim curves
integrate their win probability by the same rule. `_monotone_inverse`, an
array bisection, is the one monotone inverse: a segment without a `ppf`
inverts its `cdf` by it. A segment's callables may be scalar-only; every
elementwise call of one goes through `_elementwise`. Floats add by one rule,
left to right from 0 (`_left_sum`, `_running_total`), and every expectation
outside the integral rule by it (`_expectations`, `mean`), not by a dot.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
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
    cumulative Kronrod rule, with `quad` where that rule's check still fails
    after halving, so give one. Without `ppf`, `quantile` bisects `cdf` on a bounded segment."""

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
            total[inside] += _elementwise(s.cdf, x[inside]) - c_lo
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
                out[sel] = _elementwise(obj.ppf, targets)
            elif not math.isfinite(obj.hi - obj.lo):
                raise ValueError("an unbounded segment needs a ppf for its quantile")
            else:
                out[sel] = _monotone_inverse(partial(_elementwise, obj.cdf),
                                             targets, obj.lo, obj.hi)
        return out[()]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        return self.quantile(rng.random(size))

    def mean(self) -> float:
        """E[Z] by the cell rule, which is exact for the linear integrand."""
        nodes, weights = self.cells()
        return float(_running_total(0.0, nodes * weights))

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
            cdf = _elementwise(s.cdf, np.array(fine))
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


def _left_sum(terms):
    """0 + terms[0] + terms[1] + ..., left to right: the package's one rule
    for adding floats (the built-in sum compensates from Python 3.12 on),
    exact on Fractions and elementwise on arrays."""
    return reduce(operator.add, terms, 0)


def _running_total(total, terms: np.ndarray) -> np.ndarray:
    """`_left_sum` from `total` along axis 0, by a sequential np.cumsum."""
    start = np.full((1,) + terms.shape[1:], total)
    return np.cumsum(np.concatenate((start, terms)), axis=0)[-1]


def _expectations(probs: np.ndarray, utils: np.ndarray) -> np.ndarray:
    """Per row of `utils`, sum(p * u) added in atom order by `_running_total`."""
    return _running_total(0.0, (probs * utils).T)


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
    segment): its closed-form moment, else the cumulative Kronrod rule; a gap
    too narrow for the rule takes its midpoint times its mass, within half
    its width times its mass of the moment, and a gap the rule cannot take
    goes to scipy's `quad`, which integrates (x - shift) * pdf there and adds
    shift times the gap's mass, shift being the gap's start if finite (else
    0), so its tolerance is not spent on the offset."""
    if seg.partial_mean is not None:
        return seg.partial_mean(lo, ends)
    pdf, cdf = seg.pdf, partial(_elementwise, seg.cdf)

    def whole(start: float, stop: float) -> float:
        # imported here, not at the top: no preset segment comes this far,
        # and scipy takes longer to import than the package
        from scipy import integrate
        shift = start if math.isfinite(start) else 0.0
        return integrate.quad(lambda x: (x - shift) * pdf(x), start, stop,
                              epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                              limit=200)[0] + shift * (seg.cdf(stop) - seg.cdf(start))

    return _cumulative_integral(
        lambda x: x * _elementwise(pdf, x), lo, ends, whole=whole,
        narrow=lambda a, b: (a + (b - a) / 2.0) * (cdf(b) - cdf(a)))[1]


def _elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn at every element of x, one Python float at a time, so fn may be
    scalar-only (math.sqrt); the result has x's shape."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# quad's tolerance, which the Kronrod rule's check shares
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
# halvings of a piece of a gap that fails the Kronrod rule's check
MAX_HALVINGS = 40


def _cumulative_integral(f: Callable[[np.ndarray], np.ndarray], lo: float,
                         ends: np.ndarray, kinks: Sequence[float] = (),
                         points: Optional[np.ndarray] = None,
                         whole: Optional[Callable[[float, float], float]] = None,
                         narrow: Optional[Callable] = None):
    """f at `points` (None without them) and int_lo^e f(z) dz for every e in
    `ends`, signed: C(e) - C(lo) for the running integral C. lo, the kinks
    inside the range and the distinct ends cut it into gaps, each taken once
    by the 15-point Kronrod rule; a gap too narrow to hold its nodes strictly
    inside calls no f and adds `narrow(starts, stops)` (0 without it). A piece
    whose Kronrod - Gauss difference exceeds both quad's epsrel and its
    width's share of quad's epsabs is halved, up to MAX_HALVINGS times; one
    still failing then, or too narrow to halve, is taken unchecked (adding 0
    if narrow), unless a `whole(start, stop)` callback is given: then it
    integrates that piece's gap whole, as it does an unbounded gap.
    The gaps run in blocks of KRONROD_BLOCK, f is called on flat arrays once
    per block and depth (the points with the first nodes), and the gaps add
    up in a running sum with Neumaier's compensation."""
    ends = np.asarray(ends, dtype=float)
    cuts = np.unique(np.concatenate(([lo], ends)))
    cuts = np.union1d(cuts, [k for k in kinks if cuts[0] < k < cuts[-1]])
    starts, stops = cuts[:-1], cuts[1:]
    span = np.sum(stops - starts)  # sorted cuts: no width cancels
    running = np.zeros(cuts.size)
    total = carry = 0.0
    at_points = None
    # one block at least, so that f sees the points even with no gap
    for k in range(0, max(starts.size, 1), KRONROD_BLOCK):
        block = slice(k, k + KRONROD_BLOCK)
        gaps = np.zeros(starts[block].size)
        by_whole = ~np.isfinite(stops[block] - starts[block])
        owner = np.flatnonzero(~by_whole)
        a, b = starts[block][owner], stops[block][owner]
        for depth in range(MAX_HALVINGS + 1):
            half = (b - a) / 2.0
            mid = a + half
            x = mid[:, None] + half[:, None] * _KRONROD_NODES
            inside = np.all((x > a[:, None]) & (x < b[:, None]), axis=1)
            if depth == 0:
                if narrow is not None and not inside.all():
                    gaps[owner[~inside]] = narrow(a[~inside], b[~inside])
            elif whole is not None:
                # a failing piece too narrow to halve again: `whole` takes its gap
                by_whole[owner[~inside]] = True
                inside &= ~by_whole[owner]
            a, mid, b, half, owner, x = (v[inside] for v in (a, mid, b, half, owner, x))
            if at_points is None and points is not None:
                fx = f(np.concatenate((points, x.ravel())))
                at_points, fx = fx[:points.size], fx[points.size:]
            else:
                fx = f(x.ravel())
            fx = fx.reshape(x.shape)
            kronrod, gauss = half * (fx @ _KRONROD_WEIGHTS), half * (fx @ _GAUSS_WEIGHTS)
            ok = np.abs(kronrod - gauss) <= np.maximum(
                QUAD_EPSABS * (2.0 * half) / span, QUAD_EPSREL * np.abs(kronrod))
            if depth == MAX_HALVINGS:
                if whole is not None:
                    by_whole[owner[~ok]] = True
                ok[:] = True
            gaps += np.bincount(owner[ok], weights=kronrod[ok], minlength=gaps.size)
            if ok.all():
                break
            a, mid, b, owner = a[~ok], mid[~ok], b[~ok], np.tile(owner[~ok], 2)
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        for i in np.flatnonzero(by_whole).tolist():
            gaps[i] = whole(starts[k + i], stops[k + i])
        for i, gap in enumerate(gaps.tolist(), start=k + 1):
            s = total + gap
            carry += (total - s) + gap if abs(total) >= abs(gap) else (gap - s) + total
            total = s
            running[i] = total + carry
    return at_points, running[np.searchsorted(cuts, ends)] - running[np.searchsorted(cuts, lo)]


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"Uniform requires finite bounds, not {self.lo} and {self.hi}")
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
        if not 1 < self.H < math.inf:  # NaN too
            raise ValueError(f"EqualRevenueCapped requires a finite H > 1, not {self.H}")

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
    if not 1 < H < math.inf:  # NaN too
        raise ValueError(f"H must be finite and exceed 1, not {H}")
    lo, hi = 1.0 / eps, H / eps
    seg = SegmentSpec(lo, hi,
                      cdf=lambda v: (1.0 - eps) + eps * (1.0 - 1.0 / (eps * v)),
                      ppf=lambda u: 1.0 / (1.0 - u),
                      partial_mean=lambda a, b: np.log(b / a))
    return PiecewiseCdf((seg,), (Atom(0.0, 1.0 - eps), Atom(hi, eps / H)))
