"""Piecewise monotone C1 self-maps of [0, 1].

Segments are either affine (value = slope*x + intercept, global coordinates)
or cubic Hermite (endpoint values and derivatives in local coordinates).
Affine pieces reproduce the base pair and the epsilon-family exactly; Hermite
pieces realize the C1 bump modifications and connector joins with
controllable endpoint derivatives.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, IterationCapError, RangeError, SpecError
from .intervals import TOL, Interval

#: Accepted derivative mismatch at internal breakpoints ("C1 within
#: tolerance"): constructed joins are exact in exact arithmetic, this absorbs
#: rounding.
C1_DERIV_TOL = 1e-6

#: The library's one small-batch threshold: up to this many points, `eval_array`
#: and `inverse_array` call the scalar method per point, where numpy's cost per
#: call outweighs its speed; up to this many intervals, `gapfinder.pull_back`
#: maps them through `eval`.
#: The gap walk's other batches go through the first two.
_FEW = 8


@dataclass(frozen=True)
class Affine:
    slope: float
    intercept: float


@dataclass(frozen=True)
class CubicHermite:
    """Hermite data on [x_lo, x_hi]: values y_lo, y_hi; derivatives d_lo, d_hi."""

    y_lo: float
    y_hi: float
    d_lo: float
    d_hi: float


@dataclass(frozen=True)
class Segment:
    x_lo: float
    x_hi: float
    kind: Affine | CubicHermite

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi):
            raise SpecError(f"segment needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        k = self.kind
        # Written as `not (... > 0)` so that NaN fails too.
        if isinstance(k, Affine):
            if not (k.slope > 0):
                raise SpecError(f"affine segment needs positive slope, got {k.slope}")
        else:
            if not (k.d_lo > 0 and k.d_hi > 0) or not (k.y_lo < k.y_hi):
                raise SpecError("hermite segment needs d_lo, d_hi > 0 and y_lo < y_hi")
            _, c1, c2, c3 = self.coeffs
            if not (cubic_extremes((c1, 2.0 * c2, 3.0 * c3, 0.0), 0.0, self.width)[0][0] > 0):
                raise SpecError("hermite segment is not strictly increasing")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @cached_property
    def coeffs(self) -> tuple[float, float, float, float]:
        """Cubic coefficients c0..c3 in t = x - x_lo (affine has c2 = c3 = 0)."""
        k = self.kind
        if isinstance(k, Affine):
            return (k.slope * self.x_lo + k.intercept, k.slope, 0.0, 0.0)
        h = self.width
        delta = (k.y_hi - k.y_lo) / h
        c2 = (3.0 * delta - 2.0 * k.d_lo - k.d_hi) / h
        c3 = (k.d_lo + k.d_hi - 2.0 * delta) / (h * h)
        return (k.y_lo, k.d_lo, c2, c3)

    def value_at(self, x: float) -> float:
        c0, c1, c2, c3 = self.coeffs
        t = x - self.x_lo
        return ((c3 * t + c2) * t + c1) * t + c0

    def deriv_at(self, x: float) -> float:
        c0, c1, c2, c3 = self.coeffs
        t = x - self.x_lo
        return (3.0 * c3 * t + 2.0 * c2) * t + c1

    def inverse_at(self, y: float) -> float:
        """The x with value_at(x) = y: exact for an affine piece, Newton with
        a bisection safeguard for a Hermite one.  Iterates past eps_newton
        down to machine precision when cheap, so inverse errors do not
        accumulate along long inverse-word compositions."""
        k = self.kind
        if isinstance(k, Affine):
            return (y - k.intercept) / k.slope
        a, b = self.x_lo, self.x_hi
        x = 0.5 * (a + b)
        for _ in range(TOL.max_iter):
            fx = self.value_at(x) - y
            if fx == 0.0:
                return x
            if fx > 0:
                b = x
            else:
                a = x
            dfx = self.deriv_at(x)
            step = fx / dfx if dfx > 0 else math.inf
            # converged: residual within target and the Newton correction is
            # at rounding scale; returning *this* x, never a fallback point
            if abs(fx) <= TOL.eps_newton and abs(step) <= 4.0 * math.ulp(x):
                return x
            x_new = x - step
            if not (a < x_new < b):
                x_new = 0.5 * (a + b)
            if x_new == x:
                return x
            x = x_new
        if abs(self.value_at(x) - y) > TOL.eps_newton:
            raise IterationCapError(f"inverse_eval stalled at y={y}")
        return x

    @cached_property
    def y_lo(self) -> float:
        return self.value_at(self.x_lo)

    @cached_property
    def y_hi(self) -> float:
        k = self.kind
        return k.y_hi if isinstance(k, CubicHermite) else k.slope * self.x_hi + k.intercept


def cubic_extremes(a: tuple[float, ...], t_a: float, t_b: float) -> tuple[tuple[float, float], ...]:
    """((min, t), (max, t)) of a0 + a1 t + a2 t^2 + a3 t^3 over [t_a, t_b],
    read at the ends and at the roots of its derivative strictly inside."""
    a0, a1, a2, a3 = a
    ts = [t_a, t_b]
    disc = a2 * a2 - 3.0 * a1 * a3
    if disc > 0.0:  # else no root, or a double one: an inflection
        q = -(a2 + math.copysign(math.sqrt(disc), a2))
        roots = (q / (3.0 * a3), a1 / q) if a3 != 0.0 else (-a1 / (2.0 * a2),)
        ts += [t for t in roots if t_a < t < t_b]
    vals = [(((a3 * t + a2) * t + a1) * t + a0, t) for t in ts]
    return min(vals), max(vals)


def hermite_linear_deriv(x_lo: float, x_hi: float, y_lo: float, d_lo: float, d_hi: float) -> Segment:
    """Hermite segment whose derivative is *linear* from d_lo to d_hi.

    Choosing the rise as the slope average times the width makes the cubic's
    derivative exactly linear, hence positive whenever both end slopes are:
    monotone by construction.
    """
    y_hi = y_lo + 0.5 * (d_lo + d_hi) * (x_hi - x_lo)
    return Segment(x_lo, x_hi, CubicHermite(y_lo, y_hi, d_lo, d_hi))


@dataclass(frozen=True)
class MapSpec:
    """Strictly increasing piecewise map covering [0, 1] without gaps: each
    segment starts at the float where the previous one ends, from 0.0 to
    1.0.  Values and derivatives at a join round, and are checked to
    `TOL.eps_geom` and `C1_DERIV_TOL`."""

    segments: tuple[Segment, ...]
    label: str = ""

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise SpecError("MapSpec needs at least one segment")
        if segs[0].x_lo != 0.0 or segs[-1].x_hi != 1.0:
            raise SpecError(f"segments must cover [0, 1] exactly, got "
                            f"[{segs[0].x_lo!r}, {segs[-1].x_hi!r}]")
        for i, (a, b) in enumerate(zip(segs, segs[1:])):
            if a.x_hi != b.x_lo:
                raise SpecError(f"segments {i} and {i + 1} must join exactly: "
                                f"x_hi {a.x_hi!r} vs x_lo {b.x_lo!r}")
            if abs(a.y_hi - b.y_lo) > TOL.eps_geom:
                raise SpecError(f"value jump {a.y_hi - b.y_lo:.3g} at x={b.x_lo}")
            dl, dr = a.deriv_at(a.x_hi), b.deriv_at(b.x_lo)
            if abs(dl - dr) > C1_DERIV_TOL * max(1.0, abs(dl), abs(dr)):
                raise SpecError(f"derivative jump {dl:.6g} vs {dr:.6g} at x={b.x_lo}")

    # -- cached lookup tables ----------------------------------------------
    # The scalar path bisects the tuples and `eval_array` searches its
    # points for the breakpoint tuple: both cut at the same floats.

    @cached_property
    def _bp_tuple(self) -> tuple[float, ...]:
        return tuple(s.x_lo for s in self.segments)

    @cached_property
    def _break_y_tuple(self) -> tuple[float, ...]:
        return tuple(s.y_lo for s in self.segments) + (self.segments[-1].y_hi,)

    @cached_property
    def _eval_rows(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """Row k is (x_lo, c0, c1, c2, c3) of segment max(k - 1, 0), the one
        `_seg_index` picks where bisect_left returns k: no index clamp."""
        segs = self.segments
        return tuple((s.x_lo, *s.coeffs) for s in (segs[0], *segs))

    @cached_property
    def _inverse_rows(self) -> tuple[tuple[float | None, float | None, Segment | None], ...]:
        """Row k is (intercept, slope, None) of an affine segment or (None,
        None, segment) of a Hermite one, for segment min(max(k - 1, 0), n - 1),
        the one the break-value bisect_left picks at k: no index clamp."""
        segs = self.segments
        return tuple((s.kind.intercept, s.kind.slope, None) if isinstance(s.kind, Affine)
                     else (None, None, s) for s in (segs[0], *segs, segs[-1]))

    def _seg_index(self, x: float) -> int:
        # bisect_left is searchsorted(side="left"): the LEFT segment at an
        # internal breakpoint.  It returns at most len(segments), so only the
        # lower clamp is needed.
        return max(bisect_left(self._bp_tuple, x) - 1, 0)

    # -- scalar evaluation ---------------------------------------------------

    def _check_domain(self, x: float) -> float:
        if not (-TOL.eps_newton <= x <= 1.0 + TOL.eps_newton):  # NaN fails too
            raise DomainError(f"x={x} outside [0, 1]")
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    def eval(self, x: float) -> float:
        """`Segment.value_at` of the segment `_seg_index` picks, op for op,
        read off `_eval_rows`."""
        x = self._check_domain(x)
        x_lo, c0, c1, c2, c3 = self._eval_rows[bisect_left(self._bp_tuple, x)]
        t = x - x_lo
        return ((c3 * t + c2) * t + c1) * t + c0

    def deriv(self, x: float) -> float:
        x = self._check_domain(x)
        return self.segments[self._seg_index(x)].deriv_at(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """`eval` at every point, bit for bit.  The points, sorted, are cut
        at the breakpoints by the scalar rule (a point belongs to the segment
        with x_lo of its own < x <= x_lo of the next), and each segment runs
        Horner on its slice, in place.  An affine one (c2 = c3 = 0) runs
        t*c1 + c0: for finite t, Horner's ((0*t + 0)*t + c1)*t + c0 reaches
        exactly c1 first, so the floats are the same, from a multiply and an
        add, each correctly rounded and increasing in t (c1 > 0).  Points are
        clamped only if one lies outside [0, 1].  Unsorted input is sorted
        once and scattered back.  A few points go through `eval` itself."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape)
        self._eval_into(xs.ravel(), out.reshape(-1))
        return out

    def _eval_into(self, xc: np.ndarray, out: np.ndarray) -> None:
        """`eval_array` of the 1-D float array `xc`, written into `out`, a
        1-D float array of the same size that does not overlap `xc`."""
        if xc.size <= _FEW:
            out[:] = [self.eval(x) for x in xc.tolist()]
            return
        # A NaN fails the order test and sorts last, so the ends of the
        # sorted points bound them all, NaN too.
        order = None if (xc[1:] >= xc[:-1]).all() else np.argsort(xc, kind="stable")
        if order is not None:
            xc = xc[order]
        lo, hi = xc[0], xc[-1]
        if not (-TOL.eps_newton <= lo and hi <= 1.0 + TOL.eps_newton):
            raise DomainError("array evaluation outside [0, 1]")
        if lo < 0.0 or hi > 1.0:
            xc = np.clip(xc, 0.0, 1.0)
        cuts = np.searchsorted(xc, self._bp_tuple[1:], side="right").tolist()
        for s, a, b in zip(self.segments, [0, *cuts], [*cuts, xc.size]):
            if a < b:
                c0, c1, c2, c3 = s.coeffs
                y = np.subtract(xc[a:b], s.x_lo, out=out[a:b])
                if c2 == c3 == 0.0:
                    y *= c1
                else:  # Horner in place, on one copy of t
                    t = y.copy()
                    y *= c3
                    for c in (c2, c1):
                        y += c
                        y *= t
                y += c0
        if order is not None:
            out[order] = out.copy()

    # -- inversion -----------------------------------------------------------

    @cached_property
    def y0(self) -> float:
        return self.segments[0].y_lo

    @cached_property
    def y1(self) -> float:
        return self.segments[-1].y_hi

    def inverse_eval(self, y: float) -> float:
        """The unique x with eval(x) = y: the segment whose image holds y
        (the left one at a break value) solves it.  An affine segment's row
        in `_inverse_rows` gives `Segment.inverse_at`'s quotient op for op;
        a Hermite one calls it."""
        y0, y1 = self.y0, self.y1
        if not (y0 - TOL.eps_newton <= y <= y1 + TOL.eps_newton):  # NaN fails too
            raise RangeError(f"y={y} outside image [{y0}, {y1}]")
        if y < y0:
            y = y0
        elif y > y1:
            y = y1
        intercept, slope, hermite = self._inverse_rows[bisect_left(self._break_y_tuple, y)]
        if hermite is None:
            return (y - intercept) / slope
        return hermite.inverse_at(y)

    @cached_property
    def _inverse_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The break values and `_inverse_rows` as arrays: (break values,
        intercepts, slopes, Hermite-row mask); a Hermite row's intercept
        and slope are NaN."""
        rows = self._inverse_rows
        herm = np.array([s is not None for _, _, s in rows])
        icpt = np.array([math.nan if s else c for c, _, s in rows], dtype=float)
        slope = np.array([math.nan if s else m for _, m, s in rows], dtype=float)
        return np.array(self._break_y_tuple), icpt, slope, herm

    def inverse_array(self, ys: np.ndarray) -> np.ndarray:
        """`inverse_eval` at every point, bit for bit: the same range check
        (the first point outside raises its RangeError), the same clamps
        by comparison, which keep -0.0, the same row by `searchsorted`, which
        is `bisect_left`, and an affine row's `(y - intercept) / slope` as
        element-wise IEEE operations.  A Hermite row calls
        `Segment.inverse_at` point by point, and a few points go through
        `inverse_eval` itself."""
        ys = np.asarray(ys, dtype=float)
        if ys.size <= _FEW:
            return np.array([self.inverse_eval(y) for y in ys.ravel().tolist()],
                            dtype=float).reshape(ys.shape)
        y = ys.ravel()
        y0, y1 = self.y0, self.y1
        inside = (y0 - TOL.eps_newton <= y) & (y <= y1 + TOL.eps_newton)  # NaN fails too
        if not inside.all():
            bad = float(y[np.argmin(inside)])
            raise RangeError(f"y={bad} outside image [{y0}, {y1}]")
        y = np.where(y < y0, y0, np.where(y > y1, y1, y))
        breaks, icpt, slope, herm = self._inverse_columns
        k = np.searchsorted(breaks, y, side="left")
        x = (y - icpt[k]) / slope[k]
        for j in np.flatnonzero(herm[k]).tolist():
            x[j] = self._inverse_rows[k[j]][2].inverse_at(float(y[j]))
        return x.reshape(ys.shape)

    def max_deriv(self, lo: float, hi: float) -> float:
        """The maximum of m' over [lo, hi], exact up to the rounding of the
        quadratic's evaluation: the greatest of its values at the ends, at
        each interior breakpoint (read with both adjacent polynomials) and
        at each vertex strictly inside.  Each point is charged to the
        segment that `deriv` uses there, (x_lo of its own, x_lo of the
        next]; the first and last segments' polynomials extend past 0 and
        1, so an interval padded outward there is covered rather than
        clamped.  `max_deriv_array` gives the same floats for many
        intervals."""
        segs, bps = self.segments, self._bp_tuple
        j = self._seg_index(lo)
        a, best = lo, -math.inf
        while True:
            s = segs[j]
            _, c1, c2, c3 = s.coeffs
            d = (c1, 2.0 * c2, 3.0 * c3, 0.0)
            if j == len(segs) - 1 or hi <= bps[j + 1]:
                return max(best, cubic_extremes(d, a - s.x_lo, hi - s.x_lo)[1][0])
            best = max(best, cubic_extremes(d, a - s.x_lo, bps[j + 1] - s.x_lo)[1][0])
            j += 1
            a = bps[j]

    @cached_property
    def _deriv_columns(self) -> np.ndarray:
        """Rows x_lo, width, a0, a1, a2 and vertex of every segment, for m'
        as the quadratic a0 + a1 t + a2 t^2 in t = x - x_lo (a0 = c1,
        a1 = 2c2, a2 = 3c3), whose vertex t is where `cubic_extremes` finds
        one and NaN where not."""
        cols = []
        for s in self.segments:
            _, c1, c2, c3 = s.coeffs
            a1, a2 = 2.0 * c2, 3.0 * c3
            # cubic_extremes' discriminant and root, with its a3 = 0.0
            vertex = -a1 / (2.0 * a2) if a2 * a2 - 3.0 * a1 * 0.0 > 0.0 else math.nan
            cols.append((s.x_lo, s.width, c1, a1, a2, vertex))
        return np.array(cols).T.copy()

    def max_deriv_array(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """`max_deriv(los[i], his[i])` for every i, bit for bit.  Each
        interval is cut into one piece per segment it meets, by the scalar
        rule: its ends go to the segments `deriv` uses there and every
        breakpoint between them ends one piece and starts the next (t = 0
        and t = the segment's width).  A piece's quadratic is read at its
        two ends and at its vertex when that lies strictly inside, compared
        in t as `cubic_extremes` does; (a2 t + a1) t + a0 is
        `cubic_extremes`' Horner run with a3 = 0.0, whose zero terms add
        nothing since a0 = c1 > 0.  The pieces' maxima are joined per
        interval."""
        los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
        if los.size == 0:
            return np.empty(0)
        bp, width, a0, a1, a2, vertex = self._deriv_columns
        first = np.maximum(bp.searchsorted(los) - 1, 0)
        last = np.maximum(bp.searchsorted(his) - 1, first)
        ends = np.cumsum(last - first + 1)
        starts = np.append(0, ends[:-1])
        seg = np.arange(ends[-1]) + np.repeat(first - starts, last - first + 1)
        t_a, t_b = np.zeros(seg.size), width[seg]
        t_a[starts], t_b[ends - 1] = los - bp[first], his - bp[last]
        a0, a1, a2, t_v = a0[seg], a1[seg], a2[seg], vertex[seg]
        top = np.maximum((a2 * t_a + a1) * t_a + a0, (a2 * t_b + a1) * t_b + a0)
        inside = (t_a < t_v) & (t_v < t_b)  # NaN fails
        np.maximum(top, (a2 * t_v + a1) * t_v + a0, out=top, where=inside)
        return np.maximum.reduceat(top, starts)

    # -- structure helpers -----------------------------------------------------

    def breakpoints(self) -> list[float]:
        return [s.x_lo for s in self.segments[1:]]

    def image_of(self, iv: Interval) -> Interval:
        return Interval(self.eval(iv.lo), self.eval(iv.hi))


def identity_spec() -> MapSpec:
    return MapSpec((Segment(0.0, 1.0, Affine(1.0, 0.0)),), label="id")


def affine_spec(slope: float, intercept: float, label: str = "") -> MapSpec:
    return MapSpec((Segment(0.0, 1.0, Affine(slope, intercept)),), label=label)


def iterate(m: MapSpec, n: int, x: float) -> float:
    if n < 0:
        raise DomainError("iterate needs n >= 0")
    for _ in range(n):
        x = m.eval(x)
    return x


def iterate_interval(m: MapSpec, n: int, iv: Interval) -> Interval:
    for _ in range(n):
        iv = m.image_of(iv)
    return iv


# -- diagonal symmetry ---------------------------------------------------------


def _reflected_segments(m: MapSpec) -> tuple[Segment, ...]:
    """The segments of x -> 1 - m(1 - x), reflected about the diagonal."""
    out: list[Segment] = []
    for s in reversed(m.segments):
        x_lo, x_hi = 1.0 - s.x_hi, 1.0 - s.x_lo
        k = s.kind
        if isinstance(k, Affine):
            out.append(Segment(x_lo, x_hi, Affine(k.slope, 1.0 - k.slope - k.intercept)))
        else:
            out.append(Segment(x_lo, x_hi, CubicHermite(1.0 - k.y_hi, 1.0 - k.y_lo, k.d_hi, k.d_lo)))
    return tuple(out)


def symmetry_conjugate(m: MapSpec) -> MapSpec:
    """The map x -> 1 - m(1 - x), segments reflected about the diagonal."""
    return MapSpec(_reflected_segments(m), label=m.label and f"conj({m.label})")


def symmetry_residual(f: MapSpec, g: MapSpec) -> float:
    """max over a 1001-point grid of |1 - f(1-x) - g(x)|."""
    xs = np.linspace(0.0, 1.0, 1001)
    # f runs over 1 - xs reversed, so both maps see increasing input
    f_mirror = f.eval_array(1.0 - xs[::-1])[::-1]
    return float(np.max(np.abs(1.0 - f_mirror - g.eval_array(xs))))


# -- affine conjugation (used by the castration surgery) ---------------------------


def conjugate_segment(s: Segment, a1: float, b1: float, a2: float, b2: float) -> Segment:
    """The segment of x -> A2(s(A1(x))) with A1, A2 increasing affine maps.

    A1(x) = a1*x + b1 maps the new domain onto [s.x_lo, s.x_hi]; the result is
    again affine/Hermite because cubics are closed under affine conjugation.
    """
    if a1 <= 0 or a2 <= 0:
        raise SpecError("conjugation needs increasing affine maps")
    x_lo = (s.x_lo - b1) / a1
    x_hi = (s.x_hi - b1) / a1
    k = s.kind
    if isinstance(k, Affine):
        # A2(k(A1(x))) = a2*k.slope*a1 * x + a2*(k.slope*b1 + k.intercept) + b2
        return Segment(x_lo, x_hi, Affine(a2 * k.slope * a1, a2 * (k.slope * b1 + k.intercept) + b2))
    return Segment(
        x_lo,
        x_hi,
        CubicHermite(a2 * k.y_lo + b2, a2 * k.y_hi + b2, a1 * a2 * k.d_lo, a1 * a2 * k.d_hi),
    )


# -- serialization ------------------------------------------------------------


#: The number fields of a segment of each kind, after x_lo and x_hi.
_KIND_FIELDS = {"affine": ("slope", "intercept"),
                "cubic_hermite": ("y_lo", "y_hi", "d_lo", "d_hi")}


def _seg_to_dict(s: Segment) -> dict:
    kind = "affine" if isinstance(s.kind, Affine) else "cubic_hermite"
    return {"x_lo": s.x_lo, "x_hi": s.x_hi, "kind": kind,
            **{name: getattr(s.kind, name) for name in _KIND_FIELDS[kind]}}


def spec_to_dict(m: MapSpec) -> dict:
    return {"label": m.label, "segments": [_seg_to_dict(s) for s in m.segments]}


def spec_from_dict(d: dict) -> MapSpec:
    """The map `spec_to_dict` wrote; a missing or mistyped field is a
    SpecError that names it and its segment."""
    segs = d.get("segments") if isinstance(d, dict) else None
    if not isinstance(segs, list):
        raise SpecError("a map needs a 'segments' list")
    out = []
    for i, sd in enumerate(segs):
        kind = sd.get("kind") if isinstance(sd, dict) else None
        if kind not in _KIND_FIELDS:
            raise SpecError(f"segment {i}: unknown segment kind {kind!r}")
        names = ("x_lo", "x_hi", *_KIND_FIELDS[kind])
        vals = [sd.get(name) for name in names]
        for name, v in zip(names, vals):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SpecError(f"segment {i}: field {name!r} must be a number, got {v!r}")
        x_lo, x_hi, *k = vals
        out.append(Segment(x_lo, x_hi, Affine(*k) if kind == "affine" else CubicHermite(*k)))
    return MapSpec(tuple(out), label=d.get("label", ""))


def pair_to_json(f: MapSpec, g: MapSpec) -> str:
    doc = {"format": "cantorifs-pair", "version": 1,
           "f": spec_to_dict(f), "g": spec_to_dict(g)}
    return json.dumps(doc, indent=1)


def pair_from_json(text: str) -> tuple[MapSpec, MapSpec]:
    """The pair in a pair file; malformed JSON or a missing or mistyped
    field is a SpecError that names it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"pair file is not JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != "cantorifs-pair":
        raise SpecError("not a cantorifs pair file")
    return spec_from_dict(doc.get("f")), spec_from_dict(doc.get("g"))
