"""Exact arithmetic on finite unions of closed subintervals of [0, 1].

Everything downstream (fundamental domains, holes, ruination regions, the
appendix Λ recursion, orbit covers) is carried by these two types.  Sets are
normalized eagerly: parts sorted, touching/overlapping parts merged, so the
invariants hold everywhere.  Normalization never changes the set itself (parts
separated by a positive gap stay apart, however small the gap), so the
measure is computed exactly from the representation rather than by sampling:
it is the correctly rounded sum of the part lengths, split a cache-sized
chunk at a time by error-free extraction into rounds with exact sums, which
`math.fsum` rounds once (`_exact_sum`).
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

#: Parts per `_exact_sum` chunk: few enough that a chunk's lengths and its
#: extracted part stay in cache.  Its bit length s sets each extraction
#: round's grid, on which fewer than 2^s lengths sum exactly.
_SUM_CHUNK = 1 << 15


def _disorder(lo, hi) -> SpecError | None:
    """The `SpecError` an `Interval` on lo, hi raises, for 1-D arrays on their
    first pair reversed or NaN; None when every pair is ordered."""
    bad = (~(np.asarray(lo) <= hi)).reshape(-1).nonzero()[0]
    if bad.size and np.ndim(lo):
        lo, hi = lo[bad[0]], hi[bad[0]]
    return SpecError(f"interval needs lo <= hi, got [{lo}, {hi}]") if bad.size else None


def _ordered(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), or their `_disorder` raised; a bare comparison when ordered."""
    if not (lo <= hi):
        raise _disorder(lo, hi)
    return lo, hi


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi] ⊂ [0, 1]; degenerate (lo == hi) allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _ordered(self.lo, self.hi)

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
    del order  # before the mask and the results are allocated
    np.maximum.accumulate(run_hi, out=run_hi)
    # starts[i]: part i starts a run; a part ends one where the next starts
    starts = np.empty(los.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.greater(los[1:], run_hi[:-1], out=starts[1:-1])
    return los[starts[:-1]], run_hi[starts[1:]]


def _exact_sum(los: np.ndarray, his: np.ndarray) -> float:
    """`math.fsum(his - los)`, bit for bit, for parts of [0, 1], and NaN
    for an infinite or NaN length, by error-free extraction (S. M. Rump,
    T. Ogita, S. Oishi, "Accurate floating-point summation part I: faithful
    rounding", SIAM J. Sci. Comput. 31(1), 2008).

    The lengths d are formed `_SUM_CHUNK` at a time, fewer than 2^s with
    s = _SUM_CHUNK.bit_length().  A round takes max|d| < 2^e and
    σ = 1.5 * 2^(e+s).  d + σ stays in σ's binade, spaced u = 2^(e+s-52)
    (2^-1074 if σ is subnormal), so q = (d + σ) - σ is d rounded to a
    multiple of u, |q| <= 2^e, and r = d - q is exact (Fast2Sum: |d| <= σ).
    Any sum of a chunk's q is a multiple of u below 2^(e+s) <= 2^52 u, so a
    float: `q.sum()` is exact in any order.  The next round takes r, with
    max|r| <= u/2, until u is 2^-1074, where q is d and r is 0 (all zeros
    take no round).  So the round sums add up exactly to the sum of the
    lengths, which `math.fsum` rounds once."""
    sums: list[float] = []
    r, q = np.empty((2, min(los.size, _SUM_CHUNK)))
    for c in range(0, los.size, _SUM_CHUNK):
        h = his[c:c + _SUM_CHUNK]
        rc, qc = np.subtract(h, los[c:c + _SUM_CHUNK], out=r[:h.size]), q[:h.size]
        while top := max(rc.max(), -rc.min()):  # NaN if any length is
            if not top < math.inf:
                return math.nan
            sigma = math.ldexp(1.5, math.frexp(top)[1] + _SUM_CHUNK.bit_length())
            np.add(rc, sigma, out=qc)
            qc -= sigma
            sums.append(float(qc.sum()))
            rc -= qc
    return math.fsum(sums)


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

    @classmethod
    def _of_runs(cls, los: np.ndarray, his: np.ndarray, n: int) -> "IntervalSet":
        """`IntervalSet(los=los, his=his)`, bit for bit, built in the
        caller's arrays, to which it must hold no other reference: the first
        n parts and the rest are two runs laid end to end, and where each
        run is normalized (lo <= hi, and every lo above the hi before it)
        only the window where they interleave is normalized again.

        Let a be the first run and b the second.  Each part of a[:i] ends
        below b's first lo, so below every lo of b, and each part of b[j:]
        starts above a's last hi.  With the strict gaps inside a and b, a
        stable sort of all the parts thus puts a[:i] first and b[j:] last as
        runs of one part, no run crosses a join, and the running max
        entering the window a[i:] b[:j] is below all of it.  The normalized
        form of a closed union is unique, and the window, normalized alone
        with a's parts first as in that sort, keeps its order on ties
        (-0.0): a[:i], the window and b[j:] joined are that form, float for
        float.  They lie in that order already, so the window is normalized
        where it lies, the tail shifts down onto its end and the set is a
        view of the arrays.  When b starts first, i is 0 and the window
        holds b's head too.  Input that is not two such runs is normalized
        whole."""
        apart = los[1:] > his[:-1]
        apart[n - 1:n] = True  # the join, if there is one
        if not ((los <= his).all() and apart.all()):
            return cls(los=los, his=his)
        del apart
        if n == 0 or n == los.size:
            return cls._of_normalized(los, his)
        i = his[:n].searchsorted(los[n])
        j = n + los[n:].searchsorted(his[n - 1], side="right")
        w_lo, w_hi = _normalize(los[i:j], his[i:j])
        k = i + w_lo.size
        end = k + los.size - j
        for x, w in ((los, w_lo), (his, w_hi)):
            x[i:k] = w
            x[k:end] = x[j:]
        return cls._of_normalized(los[:end], his[:end])

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
        rounded sum of the part lengths, `_exact_sum(los, his)`."""
        return _exact_sum(self.los, self.his)

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
        """The normalized form of `self`'s parts then `other`'s, bit for bit:
        `_of_runs` on the two laid end to end, `self`'s first, which
        re-normalizes only the window where they interleave, with `self`'s
        parts first on ties (-0.0)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return IntervalSet._of_runs(np.concatenate([self.los, other.los]),
                                    np.concatenate([self.his, other.his]), self.n_parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty() or other.is_empty():
            return IntervalSet([])
        # Two-pointer sweep over sorted disjoint parts, read as floats once.
        a_lo, a_hi, b_lo, b_hi = (x.tolist() for x in (self.los, self.his, other.los, other.his))
        out_lo, out_hi = [], []
        i = j = 0
        while i < len(a_lo) and j < len(b_lo):
            lo = max(a_lo[i], b_lo[j])
            hi = min(a_hi[i], b_hi[j])
            if lo <= hi:
                out_lo.append(lo)
                out_hi.append(hi)
            if a_hi[i] < b_hi[j]:
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
