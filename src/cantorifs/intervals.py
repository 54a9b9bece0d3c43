"""Exact arithmetic on finite unions of closed subintervals of [0, 1].

Everything downstream (fundamental domains, holes, ruination regions, the
appendix Λ recursion, orbit covers) is carried by these two types.  Sets are
normalized eagerly: parts sorted, touching/overlapping parts merged, so the
invariants hold everywhere.  Normalization never changes the set itself (parts
separated by a positive gap stay apart, however small the gap), so the
measure is computed exactly from the representation rather than by sampling:
it is the correctly rounded sum of the part lengths, from exact per-exponent
bin totals that `math.fsum` rounds once (`_exact_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import SpecError

@dataclass(frozen=True)
class Tolerance:
    """The library's one set of tolerances; `TOL` is its only instance;
    nothing takes a tolerance argument.

    eps_geom   -- point/endpoint comparison slack.
    eps_newton -- inverse-evaluation convergence target and float-noise slack.
    max_iter   -- guard on iterative loops.
    """

    eps_geom: float
    eps_newton: float
    max_iter: int


TOL = Tolerance(eps_geom=1e-9, eps_newton=1e-12, max_iter=100)

#: Parts per `_exact_sum` pass; its bin totals are exact for up to 2^26 parts.
_SUM_CHUNK = 1 << 26


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi] ⊂ [0, 1]; degenerate (lo == hi) allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise SpecError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def contains_interval(self, other: "Interval", margin: float = 0.0) -> bool:
        return self.lo + margin <= other.lo and other.hi <= self.hi - margin

    def intersection(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


def _normalize(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the parts by lo and merge each run of touching or overlapping
    parts; needs hi >= lo on every part.

    A new run starts where lo exceeds the running max of hi.  Every hi of a
    run is at least its own lo, so at least the run's first lo, which is
    above every earlier hi: the running max at a run's last part is the
    run's max.  The result never shares memory with the input, which the
    caller freezes.

    Input whose every lo exceeds the hi before it is already normalized:
    its stable argsort and running max are the identity and every part
    starts a run, so its copy is the output, bit for bit."""
    if (los[1:] > his[:-1]).all():
        return los.copy(), his.copy()
    order = np.argsort(los, kind="stable")
    los, run_hi = los[order], his[order]
    np.maximum.accumulate(run_hi, out=run_hi)
    # starts[i]: part i starts a run; a part ends one where the next starts
    starts = np.empty(los.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.greater(los[1:], run_hi[:-1], out=starts[1:-1])
    return los[starts[:-1]], run_hi[starts[1:]]


def _exact_sum(d: np.ndarray) -> float:
    """`math.fsum(d)`, bit for bit, for d >= 0 whose total does not
    overflow (R. Neal's small superaccumulator, arXiv:1505.05571).

    Bin the lengths by binary exponent e.  In bin e every length is an
    integer multiple of one ulp u_e below 2^53 u_e.  Masking off its low
    26 mantissa bits splits it exactly into hi, a multiple of 2^26 u_e, and
    lo = d - hi < 2^26 u_e.  At most 2^26 his sum to a multiple of 2^26 u_e
    below 2^79 u_e, and as many los to a multiple of u_e below 2^52 u_e.
    Both need at most 53 significant bits and neither exceeds the total, so
    every running sum of `np.bincount` is a float and each bin total is
    exact.  `_SUM_CHUNK` caps the parts per bincount, so this holds for
    arrays of any size.  The bin totals add up exactly to the sum of d,
    which `math.fsum` rounds once.
    """
    totals: list[float] = []
    for c in range(0, d.size, _SUM_CHUNK):
        part = d[c:c + _SUM_CHUNK]
        bits = part.view(np.int64)
        e = bits >> 52
        e &= 0x7FF  # -0.0 lands in bin 0
        e -= e.min()  # a bin only for the exponents present
        hi = (bits & ~0x3FFFFFF).view(np.float64)
        totals += np.bincount(e, hi).tolist()
        totals += np.bincount(e, np.subtract(part, hi, out=hi)).tolist()
    return math.fsum(totals)


class IntervalSet:
    """Finite union of disjoint closed intervals, sorted by lo ascending.

    Touching or overlapping parts are merged on construction, so consecutive
    parts always have strictly positive gaps.  Instances are immutable
    (backing arrays are non-writeable) and safe to share.
    """

    __slots__ = ("los", "his")

    def __init__(
        self,
        parts: Iterable[Interval | tuple[float, float]] | None = None,
        *,
        los: np.ndarray | None = None,
        his: np.ndarray | None = None,
    ) -> None:
        if los is None:
            pl: list[float] = []
            ph: list[float] = []
            for p in parts or ():
                lo, hi = (p.lo, p.hi) if isinstance(p, Interval) else p
                pl.append(lo)
                ph.append(hi)
            los, his = pl, ph
        los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
        # One test for every part: it fails on hi < lo and on a NaN bound.
        if not (los <= his).all():
            i = int(np.argmin(los <= his))
            raise SpecError(f"bad part ({los[i]}, {his[i]})")
        los, his = _normalize(los, his)
        los.setflags(write=False)
        his.setflags(write=False)
        self.los = los
        self.his = his

    @classmethod
    def _of_normalized(cls, los: np.ndarray, his: np.ndarray) -> "IntervalSet":
        """The set on `los`, `his`, which the caller built normalized and
        holds no other reference to: frozen in place, not copied."""
        s = object.__new__(cls)
        los.setflags(write=False)
        his.setflags(write=False)
        s.los, s.his = los, his
        return s

    # -- basic queries ----------------------------------------------------

    @property
    def parts(self) -> list[Interval]:
        return [Interval(lo, hi) for lo, hi in zip(self.los, self.his)]

    @property
    def n_parts(self) -> int:
        return int(self.los.size)

    def is_empty(self) -> bool:
        return self.los.size == 0

    def measure(self) -> float:
        """Lebesgue measure of the normalized representation: the correctly
        rounded sum of the part lengths, `_exact_sum(his - los)`."""
        return _exact_sum(self.his - self.los)

    def span(self) -> Interval:
        if self.is_empty():
            raise SpecError("span of empty set")
        return Interval(float(self.los[0]), float(self.his[-1]))

    def part_containing(self, x: float) -> Interval | None:
        """The closed part holding x, or None.  Only the last part with
        lo <= x can hold it, since the next one starts above x."""
        i = int(np.searchsorted(self.los, x, side="right")) - 1
        if i >= 0 and x <= self.his[i]:
            return Interval(float(self.los[i]), float(self.his[i]))
        return None

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.los.shape == other.los.shape
            and bool(np.all(self.los == other.los))
            and bool(np.all(self.his == other.his))
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"[{lo:.9g},{hi:.9g}]" for lo, hi in zip(self.los, self.his))
        return f"IntervalSet({{{inner}}})"

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The normalized form of `self`'s parts then `other`'s, bit for bit,
        re-normalizing only the window where the two interleave.

        Let a be the operand with the smaller first lo and b the other.  Each
        part of a[:i] ends below b.los[0] and each of b[j:] starts above
        a.his[-1], so with the strict gaps inside a and b every gap at the two
        joins is strict too.  A merged stable sort thus puts a[:i] first and
        b[j:] last as runs of one part, no run crosses a join, and the
        running max entering the window is below all of it.  The normalized
        form of a closed union is unique, and the window, normalized alone
        with `self`'s parts first as in that sort, keeps its order on ties
        (-0.0): the three slices joined are that form, float for float."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        a, b = (self, other) if self.los[0] <= other.los[0] else (other, self)
        i = a.his.searchsorted(b.los[0])
        j = b.los.searchsorted(a.his[-1], side="right")
        order = 1 if a is self else -1
        w_los, w_his = _normalize(np.concatenate([a.los[i:], b.los[:j]][::order]),
                                  np.concatenate([a.his[i:], b.his[:j]][::order]))
        return IntervalSet._of_normalized(np.concatenate([a.los[:i], w_los, b.los[j:]]),
                                          np.concatenate([a.his[:i], w_his, b.his[j:]]))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty() or other.is_empty():
            return IntervalSet([])
        # Two-pointer sweep over sorted disjoint parts.
        out_lo, out_hi = [], []
        i = j = 0
        while i < self.los.size and j < other.los.size:
            lo = max(self.los[i], other.los[j])
            hi = min(self.his[i], other.his[j])
            if lo <= hi:
                out_lo.append(lo)
                out_hi.append(hi)
            if self.his[i] < other.his[j]:
                i += 1
            else:
                j += 1
        return IntervalSet(los=np.asarray(out_lo), his=np.asarray(out_hi))

    def complement(self, within: Interval) -> "IntervalSet":
        """Closure of `within` minus this set."""
        out: list[tuple[float, float]] = []
        cursor = within.lo
        for lo, hi in zip(self.los, self.his):
            if hi < within.lo or lo > within.hi:
                continue
            if lo > cursor:
                out.append((cursor, min(lo, within.hi)))
            cursor = max(cursor, hi)
        if cursor < within.hi:
            out.append((cursor, within.hi))
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty():
            return self
        return self.intersect(other.complement(self.span()))


def _inside(pts: np.ndarray, lo, hi, eps: float):
    """(a, z), for floats or arrays: the sorted points strictly inside the
    window and more than eps from both its ends are pts[a:z]."""
    return pts.searchsorted(lo + eps, side="right"), pts.searchsorted(hi - eps)


def grid_cells_meeting(s: IntervalSet, resolution: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Cut [0, 1] into n = ceil((1 - eps_geom)/res) cells [i*res, (i+1)*res],
    the last ending at 1.0, so a remainder shorter than eps_geom joins it;
    return n and the lo and hi of the cells that meet `s` in positive
    length.

    A cell J meets s iff some part has min(hi, J.hi) > max(lo, J.lo): a part
    that only touches J at an endpoint does not meet it, nor does a
    degenerate part.  The first positive-length part ending after J.lo is
    the only one to test.
    """
    n_grid = int(math.ceil((1.0 - TOL.eps_geom) / resolution))
    solid = s.his > s.los
    # A sentinel part at +inf ends after every cell and meets none.
    los, his = np.append(s.los[solid], np.inf), np.append(s.his[solid], np.inf)
    i = np.arange(n_grid, dtype=float)
    cell_lo = i * resolution
    cell_hi = (i + 1.0) * resolution
    cell_hi[-1:] = 1.0
    k = np.searchsorted(his, cell_lo, side="right")
    meets = np.flatnonzero(los[k] < cell_hi)
    return n_grid, cell_lo[meets], cell_hi[meets]


# -- CSV interchange -------------------------------------------------------


def to_csv(s: IntervalSet) -> str:
    """One `lo,hi` line per part, 17 significant digits."""
    return "".join(f"{lo:.17g},{hi:.17g}\n" for lo, hi in zip(s.los, s.his))


def from_csv(text: str) -> IntervalSet:
    """The parts of `lo,hi` lines with 0 <= lo, hi <= 1; blank and `#` lines
    are skipped, and any other line is a SpecError that names it."""
    parts = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            lo, hi = map(float, line.split(","))
        except ValueError:
            raise SpecError(f"line {n} is not 'lo,hi': {line!r}") from None
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):  # NaN and inf fail too
            raise SpecError(f"line {n} has a bound outside [0, 1]: {line!r}")
        parts.append((lo, hi))
    return IntervalSet(parts)
