"""Piecewise monotone C1 self-maps of [0, 1].

Segments are either affine (value = slope*x + intercept, global coordinates)
or cubic Hermite (endpoint values and derivatives in local coordinates).
Affine pieces reproduce the base pair and the epsilon-family exactly; Hermite
pieces realize the C1 bump modifications and connector joins with
controllable endpoint derivatives.

A `MapSpec` builds one read-only table of segment facts with the map, a
`_row` per segment: scalar methods read its tuple rows, array methods its
numpy columns of the same floats, and class A `_reflected_rows`.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, IterationCapError, RangeError, SpecError
from .intervals import TOL, Interval, _ordered

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
_X_MIN, _X_MAX = -TOL.eps_newton, 1.0 + TOL.eps_newton  # points here are clamped, not refused


class Affine(NamedTuple):
    slope: float
    intercept: float


class CubicHermite(NamedTuple):
    """Hermite data on [x_lo, x_hi]: values y_lo, y_hi; derivatives d_lo, d_hi."""

    y_lo: float
    y_hi: float
    d_lo: float
    d_hi: float


@dataclass(frozen=True)
class Segment:
    """A piece of a map as a pair file and the builders give it, checked
    when made; its arithmetic is its `MapSpec`'s table row (`_row`)."""

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
            _, c1, c2, c3 = _coeffs(self.x_lo, self.x_hi, k)
            if not (cubic_extremes((c1, 2.0 * c2, 3.0 * c3, 0.0), 0.0, self.width)[0][0] > 0):
                raise SpecError("hermite segment is not strictly increasing")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


def _coeffs(x_lo: float, x_hi: float, k: Affine | CubicHermite) -> tuple[float, float, float, float]:
    """c0..c3 in t = x - x_lo of the piece of kind k on [x_lo, x_hi]."""
    if isinstance(k, Affine):
        return (k.slope * x_lo + k.intercept, k.slope, 0.0, 0.0)
    h = x_hi - x_lo
    delta = (k.y_hi - k.y_lo) / h
    c2 = (3.0 * delta - 2.0 * k.d_lo - k.d_hi) / h
    c3 = (k.d_lo + k.d_hi - 2.0 * delta) / (h * h)
    return (k.y_lo, k.d_lo, c2, c3)


def _row(x_lo: float, x_hi: float, k: Affine | CubicHermite) -> tuple:
    """The table row of the piece of kind k on [x_lo, x_hi]:

        (x_lo, width, c0, c1, c2, c3, a1, a2, vertex,
         y_lo, y_hi, flat, affine, intercept)

    m' is the quadratic c1 + a1 t + a2 t^2 (a1 = 2c2, a2 = 3c3), whose
    vertex t is where `cubic_extremes` finds one and NaN where not.  y_lo is
    the cubic's Horner run at t = 0, y_hi the kind's value at x_hi.  `flat`
    is c2 == c3 == 0, which `_eval_into`'s multiply-add needs; `affine` picks
    `inverse_eval`'s quotient (y - intercept) / c1 and is False, with a NaN
    intercept, on a Hermite piece even when it is flat."""
    c0, c1, c2, c3 = _coeffs(x_lo, x_hi, k)
    a1, a2 = 2.0 * c2, 3.0 * c3
    # cubic_extremes' discriminant and root, with its a3 = 0.0
    vertex = -a1 / (2.0 * a2) if a2 * a2 - 3.0 * a1 * 0.0 > 0.0 else math.nan
    affine = isinstance(k, Affine)
    y_lo = ((c3 * 0.0 + c2) * 0.0 + c1) * 0.0 + c0  # `MapSpec.eval`'s Horner at t = 0
    y_hi = k.slope * x_hi + k.intercept if affine else k.y_hi
    return (x_lo, x_hi - x_lo, c0, c1, c2, c3, a1, a2, vertex, y_lo, y_hi,
            c2 == c3 == 0.0, affine, k.intercept if affine else math.nan)


def _hermite_inverse(row: tuple, x_hi: float, y: float) -> float:
    """The x in [x_lo, x_hi] where the cubic of a Hermite `_row` takes the
    value y: Newton on ((c3 t + c2) t + c1) t + c0 - y with the derivative
    (a2 t + a1) t + c1, t = x - x_lo, and a bisection safeguard.  Iterates
    past eps_newton down to machine precision when cheap, so inverse
    errors do not accumulate along long inverse-word compositions."""
    x_lo, _, c0, c1, c2, c3, a1, a2, _, _, _, _, _, _ = row
    a, b = x_lo, x_hi
    x = 0.5 * (a + b)
    for _ in range(TOL.max_iter):
        t = x - x_lo
        fx = ((c3 * t + c2) * t + c1) * t + c0 - y
        if fx == 0.0:
            return x
        if fx > 0:
            b = x
        else:
            a = x
        dfx = (a2 * t + a1) * t + c1
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
    t = x - x_lo
    if abs(((c3 * t + c2) * t + c1) * t + c0 - y) > TOL.eps_newton:
        raise IterationCapError(f"inverse_eval stalled at y={y}")
    return x


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
    `TOL.eps_geom` and `C1_DERIV_TOL`.

    Every method reads one table of segment facts, built with the map in
    the pass that checks the joins and never changed.  Its row view
    `_rows[j]` is segment j's `_row`, which the scalar paths unpack; its
    column view `_cols` holds the same floats as read-only numpy arrays,
    one per row field (the flags as 0.0 and 1.0), which the array paths
    read.  `_x_cuts` and `_y_cuts` are the x_lo and y_lo columns past
    segment 0 as tuples: `bisect_left` on them gives the segment index
    itself, the left segment at a breakpoint or a break value.  `_image` is
    the first segment's y_lo and the last one's y_hi."""

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
        rows = tuple(_row(s.x_lo, s.x_hi, s.kind) for s in segs)
        cols = tuple(zip(*rows))
        x_lo, width, _, c1, _, _, a1, a2, _, y_lo, y_hi, _, _, _ = cols
        # Written as `not (... <= tol)` so that NaN fails too.
        for i, (a, b) in enumerate(zip(segs, segs[1:])):
            if a.x_hi != b.x_lo:
                raise SpecError(f"segments {i} and {i + 1} must join exactly: "
                                f"x_hi {a.x_hi!r} vs x_lo {b.x_lo!r}")
            if not (abs(y_hi[i] - y_lo[i + 1]) <= TOL.eps_geom):
                raise SpecError(f"value jump {y_hi[i] - y_lo[i + 1]:.3g} at x={b.x_lo}")
            # m' of each side at the join: t = width on the left, 0 on the right
            t, j = width[i], i + 1
            dl = (a2[i] * t + a1[i]) * t + c1[i]
            dr = (a2[j] * 0.0 + a1[j]) * 0.0 + c1[j]
            if not (abs(dl - dr) <= C1_DERIV_TOL * max(1.0, abs(dl), abs(dr))):
                raise SpecError(f"derivative jump {dl:.6g} vs {dr:.6g} at x={b.x_lo}")
        table = np.array(cols, dtype=float)
        table.setflags(write=False)
        for name, view in (("_rows", rows), ("_cols", tuple(table)), ("_x_cuts", x_lo[1:]),
                           ("_y_cuts", y_lo[1:]), ("_image", (y_lo[0], y_hi[-1]))):
            object.__setattr__(self, name, view)

    def _seg_index(self, x: float) -> int:
        # bisect_left is searchsorted(side="left"): the LEFT segment at an
        # internal breakpoint, the first one at or below 0, the last at or
        # above 1.
        return bisect_left(self._x_cuts, x)

    # -- scalar evaluation ---------------------------------------------------

    def _check_domain(self, x: float) -> float:
        if not (_X_MIN <= x <= _X_MAX):  # NaN fails too
            raise DomainError(f"x={x} outside [0, 1]")
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    def eval(self, x: float) -> float:
        """((c3 t + c2) t + c1) t + c0, t = x - x_lo, on the row of the
        segment `_seg_index` picks."""
        x = self._check_domain(x)
        x_lo, _, c0, c1, c2, c3, _, _, _, _, _, _, _, _ = self._rows[bisect_left(self._x_cuts, x)]
        t = x - x_lo
        return ((c3 * t + c2) * t + c1) * t + c0

    def deriv(self, x: float) -> float:
        """(a2 t + a1) t + c1, t = x - x_lo, on the row of the segment
        `_seg_index` picks: the cubic's (3c3 t + 2c2) t + c1, op for op."""
        x = self._check_domain(x)
        x_lo, _, _, c1, _, _, a1, a2, _, _, _, _, _, _ = self._rows[bisect_left(self._x_cuts, x)]
        t = x - x_lo
        return (a2 * t + a1) * t + c1

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """`eval` at every point, bit for bit.  The points, sorted, are cut
        at the breakpoints by the scalar rule (a point belongs to the segment
        with x_lo of its own < x <= x_lo of the next), and each segment runs
        Horner on its slice, in place.  A flat one (c2 = c3 = 0) runs
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
        self._eval_sorted(xc if order is None else xc[order], out)
        if order is not None:
            out[order] = out.copy()

    def _eval_sorted(self, xc: np.ndarray, out: np.ndarray) -> None:
        """`_eval_into` of at least one point, ascending and none NaN."""
        lo, hi = xc[0], xc[-1]
        if not (_X_MIN <= lo and hi <= _X_MAX):
            raise DomainError("array evaluation outside [0, 1]")
        if lo < 0.0 or hi > 1.0:
            xc = np.clip(xc, 0.0, 1.0)
        cuts = np.searchsorted(xc, self._cols[0][1:], side="right").tolist()
        for row, a, b in zip(self._rows, [0, *cuts], [*cuts, xc.size]):
            if a < b:
                x_lo, _, c0, c1, c2, c3, _, _, _, _, _, flat, _, _ = row
                y = np.subtract(xc[a:b], x_lo, out=out[a:b])
                if flat:
                    y *= c1
                else:  # Horner in place, on one copy of t
                    t = y.copy()
                    y *= c3
                    for c in (c2, c1):
                        y += c
                        y *= t
                y += c0

    # -- inversion -----------------------------------------------------------

    def inverse_eval(self, y: float) -> float:
        """The unique x with eval(x) = y: the segment whose image holds y
        (the left one at a break value) solves it.  An affine row gives the
        quotient (y - intercept) / c1 (its c1 is the slope); a Hermite row
        goes to `_hermite_inverse`."""
        y_lo, y_hi = self._image
        if not (y_lo - TOL.eps_newton <= y <= y_hi + TOL.eps_newton):  # NaN fails too
            raise RangeError(f"y={y} outside image [{y_lo}, {y_hi}]")
        if y < y_lo:
            y = y_lo
        elif y > y_hi:
            y = y_hi
        j = bisect_left(self._y_cuts, y)
        row = self._rows[j]
        _, _, _, slope, _, _, _, _, _, _, _, _, affine, intercept = row
        if affine:
            return (y - intercept) / slope
        return _hermite_inverse(row, self.segments[j].x_hi, y)

    def inverse_array(self, ys: np.ndarray) -> np.ndarray:
        """`inverse_eval` at every point, bit for bit: the same range check
        (the first point outside raises its RangeError), the same clamps
        by comparison, which keep -0.0, the same segment by `searchsorted`,
        which is `bisect_left`, and an affine row's `(y - intercept) / slope`
        as element-wise IEEE operations (a Hermite row's intercept is NaN).
        A Hermite row's points go to `_hermite_inverse` one by one, and a
        few points go through `inverse_eval` itself."""
        ys = np.asarray(ys, dtype=float)
        if ys.size <= _FEW:
            return np.array([self.inverse_eval(y) for y in ys.ravel().tolist()],
                            dtype=float).reshape(ys.shape)
        y = ys.ravel()
        y_lo, y_hi = self._image
        inside = (y_lo - TOL.eps_newton <= y) & (y <= y_hi + TOL.eps_newton)  # NaN fails too
        if not inside.all():
            bad = float(y[np.argmin(inside)])
            raise RangeError(f"y={bad} outside image [{y_lo}, {y_hi}]")
        y = np.where(y < y_lo, y_lo, np.where(y > y_hi, y_hi, y))
        _, _, _, slope, _, _, _, _, _, breaks, _, _, affine, intercept = self._cols
        k = np.searchsorted(breaks[1:], y, side="left")
        x = (y - intercept[k]) / slope[k]
        rows, segs = self._rows, self.segments
        for j in np.flatnonzero(affine[k] == 0.0).tolist():
            x[j] = _hermite_inverse(rows[k[j]], segs[k[j]].x_hi, float(y[j]))
        return x.reshape(ys.shape)

    def max_deriv(self, lo: float, hi: float) -> float:
        """The maximum of m' over [lo, hi], exact up to the rounding of the
        quadratic's evaluation: the greatest of its values at the ends, at
        each interior breakpoint (read with both adjacent polynomials) and
        at each vertex strictly inside.  Each point is charged to the
        segment that `deriv` uses there, (x_lo of its own, x_lo of the
        next]; the first and last segments' polynomials extend past 0 and
        1, so an interval padded outward there is covered rather than
        clamped.  These are `cubic_extremes`' values with a3 = 0.0: its
        Horner run ((0 t + a2) t + a1) t + c1 adds only zeros to
        (a2 t + a1) t + c1 at finite t, since c1 > 0.  `max_deriv_array`
        gives the same floats for many intervals."""
        rows, cuts = self._rows, self._x_cuts
        j, a, best = bisect_left(cuts, lo), lo, -math.inf
        while True:
            x_lo, width, _, c1, _, _, a1, a2, t_v, _, _, _, _, _ = rows[j]
            last = j == len(cuts) or hi <= cuts[j]
            t_a, t_b = a - x_lo, hi - x_lo if last else width
            best = max(best, (a2 * t_a + a1) * t_a + c1, (a2 * t_b + a1) * t_b + c1)
            if t_a < t_v < t_b:  # NaN, where there is no vertex, fails
                best = max(best, (a2 * t_v + a1) * t_v + c1)
            if last:
                return best
            j, a = j + 1, cuts[j]

    def max_deriv_array(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """`max_deriv(los[i], his[i])` for every i, bit for bit.  Each
        interval is cut into one piece per segment it meets, by the scalar
        rule: its ends go to the segments `deriv` uses there and every
        breakpoint between them ends one piece and starts the next (t = 0
        and t = the segment's width).  A piece's quadratic is read at its
        two ends and at its vertex when that lies strictly inside.  The
        pieces' maxima are joined per interval."""
        los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
        if los.size == 0:
            return np.empty(0)
        bp, width, _, a0, _, _, a1, a2, vertex, _, _, _, _, _ = self._cols
        cuts = bp[1:]
        first = cuts.searchsorted(los)
        last = np.maximum(cuts.searchsorted(his), first)
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
        return list(self._x_cuts)

    def image_of(self, iv: Interval) -> Interval:
        return Interval(self.eval(iv.lo), self.eval(iv.hi))

    def image_ends(self, lo: float, hi: float) -> tuple[float, float]:
        """The ends of `image_of` [lo, hi] as floats, with its lo <= hi check."""
        return _ordered(self.eval(lo), self.eval(hi))


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
    """m^n(iv) by `image_of`, stopping at an image that is its argument bit for bit."""
    for _ in range(n):
        last, iv = iv, m.image_of(iv)
        if struct.pack("2d", iv.lo, iv.hi) == struct.pack("2d", last.lo, last.hi):
            break
    return iv


# -- diagonal symmetry ---------------------------------------------------------


def _reflected_pieces(m: MapSpec) -> Iterator[tuple[float, float, Affine | CubicHermite]]:
    """x_lo, x_hi and kind of each segment of x -> 1 - m(1 - x), reflected
    about the diagonal."""
    for s in reversed(m.segments):
        k = s.kind
        yield (1.0 - s.x_hi, 1.0 - s.x_lo,
               Affine(k.slope, 1.0 - k.slope - k.intercept) if isinstance(k, Affine)
               else CubicHermite(1.0 - k.y_hi, 1.0 - k.y_lo, k.d_hi, k.d_lo))


def _reflected_segments(m: MapSpec) -> tuple[Segment, ...]:
    """The segments of x -> 1 - m(1 - x), reflected about the diagonal."""
    return tuple(Segment(*piece) for piece in _reflected_pieces(m))


def _reflected_rows(m: MapSpec) -> tuple[tuple, ...]:
    """The table rows of `_reflected_segments(m)`, built from m's kind data
    without a `Segment`."""
    return tuple(_row(*piece) for piece in _reflected_pieces(m))


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
    """The map `spec_to_dict` wrote; a missing, mistyped or non-finite
    field is a SpecError that names it and its segment."""
    segs = d.get("segments") if isinstance(d, dict) else None
    if not isinstance(segs, list):
        raise SpecError("a map needs a 'segments' list")
    out, top = [], sys.float_info.max
    for i, sd in enumerate(segs):
        kind = sd.get("kind") if isinstance(sd, dict) else None
        if kind not in _KIND_FIELDS:
            raise SpecError(f"segment {i}: unknown segment kind {kind!r}")
        names = ("x_lo", "x_hi", *_KIND_FIELDS[kind])
        vals = [sd.get(name) for name in names]
        for name, v in zip(names, vals):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SpecError(f"segment {i}: field {name!r} must be a number, got {v!r}")
            # NaN, the infinities and ints past the float range fail
            if not (-top <= v <= top):
                raise SpecError(f"segment {i}: field {name!r} must be finite, got {v!r}")
        x_lo, x_hi, *k = vals
        out.append(Segment(x_lo, x_hi, Affine(*k) if kind == "affine" else CubicHermite(*k)))
    return MapSpec(tuple(out), label=d.get("label", ""))


def pair_to_json(f: MapSpec, g: MapSpec) -> str:
    doc = {"format": "cantorifs-pair", "version": 1,
           "f": spec_to_dict(f), "g": spec_to_dict(g)}
    return json.dumps(doc, indent=1)


def pair_from_json(text: str) -> tuple[MapSpec, MapSpec]:
    """The pair in a pair file; malformed JSON or a missing, mistyped or
    non-finite field is a SpecError that names it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"pair file is not JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != "cantorifs-pair":
        raise SpecError("not a cantorifs pair file")
    return spec_from_dict(doc.get("f")), spec_from_dict(doc.get("g"))
