"""The IFS pair itself: class membership, fundamental domains, semigroup
orbits and finite approximations of the unique minimal set.

Class membership means, for C1 diffeomorphisms-onto-image f, g of [0, 1]:
f(0) = 0, g(1) = 1, f(x) < x < g(x) on (0, 1), and 0 < g(0) < f(1) < 1.
Such a pair has a unique minimal set K equal to the closure of the orbit of 0
(and of 1); the overlap region is W = [g(0), f(1)].

Membership of "f(x) < x < g(x) on (0,1)" is decided on each segment's cubic,
in floats, at its ends and critical points, with margin `eps_geom`; on the
segment at a fixed point the margin is scale free (see `_below_diagonal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Literal

import numpy as np

from .errors import DomainError, ResourceCapError, SpecError
from .intervals import TOL, Interval, IntervalSet, Tolerance
from .maps import MapSpec, _reflected_rows, cubic_extremes

#: Hard cap on deduplicated orbit size.
ORBIT_CAP = 10_000_000


@dataclass(frozen=True)
class IFSPair:
    """A pair (f, g) together with its overlap region W = [g(0), f(1)].

    Construction does not re-run class-A validation; `validate_class_a` is
    the checked entry point and fills `overlap` consistently.  Direct
    construction is allowed for toys and negative controls.

    The geometry fixed by the pair (the ladders f^n(1) and g^n(0), which
    every reader of a rung reads through `ladder`, F1, G1, their parts
    outside W and the jump sites of the induced maps) is computed on first
    use and cached on the instance; it stays lazy because parameter searches
    build many throwaway pairs that never read it.
    """

    f: MapSpec
    g: MapSpec
    overlap: Interval
    # Not a field or argument: the library reads `TOL`, and perfbench is
    # the only reader of this alias.
    tol: ClassVar[Tolerance] = TOL

    @staticmethod
    def of(f: MapSpec, g: MapSpec) -> "IFSPair":
        return IFSPair(f, g, Interval(g.eval(0.0), f.eval(1.0)))

    @cached_property
    def _ladders(self) -> dict[str, list[float]]:
        """f^n(1) and g^n(0) for n = 0, 1, ..., grown only by `ladder`."""
        return {"f": [1.0], "g": [0.0]}

    def ladder(self, which: Literal["f", "g"], n: int) -> list[float]:
        """The cached rungs f^k(1) (g^k(0) for which = "g"), k = 0, 1, ...,
        grown by one scalar `eval` per new rung to hold at least rung n."""
        m, xs = (self.f if which == "f" else self.g), self._ladders[which]
        while len(xs) <= n:
            xs.append(m.eval(xs[-1]))
        return xs

    @cached_property
    def f1(self) -> Interval:
        """F1 = [f^2(1), f(1)]."""
        return fundamental_domain(self, "f", 1)

    @cached_property
    def g1(self) -> Interval:
        """G1 = [g(0), g^2(0)]."""
        return fundamental_domain(self, "g", 1)

    @cached_property
    def f1_free(self) -> Interval:
        """F1 minus the interior of W: [f^2(1), g(0)]."""
        return Interval(self.f1.lo, self.overlap.lo)

    @cached_property
    def g1_free(self) -> Interval:
        """G1 minus the interior of W: [f(1), g^2(0)]."""
        return Interval(self.overlap.hi, self.g1.hi)

    @cached_property
    def jumps_F(self) -> np.ndarray:
        """Sorted sites f(g^j(0)), j >= 2, where the induced map F's return
        count n(x) jumps, as a read-only array; they accumulate at f(1)."""
        return self._jump_sites(self.f, "g")

    @cached_property
    def jumps_G(self) -> np.ndarray:
        """Sorted sites g(f^j(1)), j >= 2, the jumps of the induced map G;
        they accumulate at g(0)."""
        return self._jump_sites(self.g, "f")

    def _jump_sites(self, first: MapSpec, ret: Literal["f", "g"]) -> np.ndarray:
        # The sites first(g^j(0)) (first(f^j(1)) for ret = f) accumulate at
        # the image under `first` of ret's fixed point; stop once consecutive
        # ones agree to eps_newton, or after 200.
        sites: list[float] = []
        for j in range(2, 202):
            sites.append(first.eval(self.ladder(ret, j)[j]))
            if len(sites) > 1 and abs(sites[-1] - sites[-2]) < TOL.eps_newton:
                break
        out = np.array(sorted(sites))
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class Violation:
    bullet: str
    witness: float
    detail: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    pair: IFSPair | None
    violations: tuple[Violation, ...]

    def as_pair(self) -> IFSPair:
        if not self.ok or self.pair is None:
            raise SpecError("pair failed class-A validation: " + "; ".join(
                f"{v.bullet} (witness x={v.witness:.12g}: {v.detail})" for v in self.violations))
        return self.pair

    def to_text(self) -> str:
        lines = [f"class_a: {'ok' if self.ok else 'violated'}"]
        for v in self.violations:
            lines.append(f"violation: {v.bullet}")
            lines.append(f"  witness: {v.witness:.17g}")
            lines.append(f"  detail: {v.detail}")
        if self.ok and self.pair is not None:
            w = self.pair.overlap
            lines.append(f"overlap_W: [{w.lo:.17g}, {w.hi:.17g}]")
        return "\n".join(lines) + "\n"


def _below_diagonal(rows: tuple[tuple, ...]) -> float | None:
    """Where the cubic y - m(y) is least on the first segment of m, from 0,
    whose least is below eps_geom, or None; m is given by its table rows.
    On the segment at the fixed point 0, c0 is dropped and t divided out
    while the constant term is exactly 0."""
    for x_lo, width, c0, c1, c2, c3, _, _, _, _, _, _, _, _ in rows:
        p = (0.0 if x_lo == 0.0 else x_lo - c0, 1.0 - c1, -c2, -c3)
        while x_lo == 0.0 and p[0] == 0.0 and any(p):
            p = (*p[1:], 0.0)
        (least, t), _ = cubic_extremes(p, 0.0, width)
        if least < TOL.eps_geom:
            return x_lo + t
    return None


def validate_class_a(f: MapSpec, g: MapSpec) -> ValidationResult:
    """Check the class-A bullets in order, "f(x) < x < g(x)" on the table
    rows of f and of g reflected about the diagonal; violations are data."""
    eps = TOL.eps_geom
    violations: list[Violation] = []

    if abs(f.eval(0.0)) > eps:
        violations.append(Violation("f(0) = 0", 0.0, f"f(0) = {f.eval(0.0):.3g}"))
    if abs(g.eval(1.0) - 1.0) > eps:
        violations.append(Violation("g(1) = 1", 1.0, f"g(1) = {g.eval(1.0):.3g}"))

    if not violations:
        x = _below_diagonal(f._rows)
        if x is not None:
            violations.append(Violation("f(x) < x", x, f"x - f(x) = {x - f.eval(x):.3g}"))
        y = _below_diagonal(_reflected_rows(g))
        if y is not None:
            x = 1.0 - y
            violations.append(Violation("x < g(x)", x, f"g(x) - x = {g.eval(x) - x:.3g}"))

    if not violations:
        g0, f1 = g.eval(0.0), f.eval(1.0)
        if not (g0 > eps and f1 - g0 > eps and 1.0 - f1 > eps):
            violations.append(Violation(
                "0 < g(0) < f(1) < 1", 0.0, f"g(0) = {g0:.12g}, f(1) = {f1:.12g}"))

    if violations:
        return ValidationResult(False, None, tuple(violations))
    return ValidationResult(True, IFSPair.of(f, g), ())


def fundamental_domain(p: IFSPair, which: Literal["f", "g"], n: int) -> Interval:
    """F_n = [f^(n+1)(1), f^n(1)] or G_n = [g^n(0), g^(n+1)(0)] as an
    `Interval`, read from the pair's `ladder`."""
    if n < 0:
        raise DomainError("fundamental_domain needs n >= 0")
    if which not in ("f", "g"):
        raise DomainError(f"which must be 'f' or 'g', got {which!r}")
    xs = p.ladder(which, n + 1)
    return Interval(xs[n + 1], xs[n]) if which == "f" else Interval(xs[n], xs[n + 1])


# -- orbits ---------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitCloud:
    """Deduplicated images of a seed under all words up to a depth, as
    `orbit` enumerates them."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.points.size)


def _dedup_sorted(pts: np.ndarray) -> np.ndarray:
    """Resolution-eps_geom dedup on a sorted, non-empty array: bucket by
    floor(x/eps_geom) and keep the first point of each bucket.
    Representatives are exact orbit values and every dropped point is within
    eps_geom of its representative.  The keys of a sorted array are sorted,
    so a bucket starts wherever the key changes.  The keys stay floats: for
    x in [0, 1] they are exact integers below 2^31, so float equality is
    integer equality (and -0.0 == 0.0).  The keys are freed before the
    gather, so the result can take their memory: the peak over the input
    is the keys and the mask, or the mask and the result."""
    keys = np.divide(pts, TOL.eps_geom)
    np.floor(keys, out=keys)
    first = np.empty(pts.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    del keys
    return pts[first]


def orbit(p: IFSPair, seed: float, depth: int) -> OrbitCloud:
    """Breadth-first enumeration of word images, deduplicated per level at
    resolution `TOL.eps_geom`; more than `ORBIT_CAP` points is a
    ResourceCapError.

    Level d is the `_dedup_sorted` of the stable-sorted f(level d-1) ∪
    g(level d-1).  When f or g maps the seed to itself bit for bit (0.0
    under f, 1.0 under g), each level holds the earlier levels' images and
    the cloud is the last level: cloud(d) is exactly the dedup of
    f(cloud(d-1)) ∪ g(cloud(d-1)), which need not hold cloud(d-1) within
    eps_geom.  Other seeds (−0.0 too: its image is +0.0) merge all levels,
    so there cloud(d) ⊂ cloud(d+1) within eps_geom.

    f and g write a level's images a and b into the halves of one buffer,
    and only [i, j) is stable-sorted in place, i = a.searchsorted(b[0]) and
    j = n + b.searchsorted(a[-1], "right"), or all of it where float
    evaluation (a Horner run, a join) put a or b out of order.  With both
    in order, a[:i] is below every b and b[j-n:] above every a, so a stable
    sort of the buffer, on values then positions (-0.0 and 0.0 tie), keeps
    them in place and orders the window as its own stable sort does.
    """
    if not (0.0 <= seed <= 1.0):
        raise DomainError(f"seed {seed} outside [0, 1]")
    if depth < 0:
        raise DomainError("depth must be >= 0")

    level = all_pts = np.array([seed])
    fixed = False
    for d in range(depth):
        n = level.size
        images = np.empty(2 * n)
        p.f._eval_into(level, images[:n])
        p.g._eval_into(level, images[n:])
        level = images
        if d == 0:
            fixed = all_pts.tobytes() in (level[:1].tobytes(), level[1:].tobytes())
        if not fixed:
            all_pts = np.sort(np.concatenate([all_pts, level]), kind="stable")
            all_pts = _dedup_sorted(all_pts)
        # The merge, where it runs, keeps np.sort's copy: sorting it in
        # place, or deduping the level before the merge, left perfbench's
        # `cloud` about 5% higher in peak RSS and no faster.
        a, b = level[:n], level[n:]
        i, j = 0, 2 * n
        if (a[1:] >= a[:-1]).all() and (b[1:] >= b[:-1]).all():
            i, j = a.searchsorted(b[0]), n + b.searchsorted(a[-1], side="right")
        level[i:j].sort(kind="stable")
        level = _dedup_sorted(level)
        if max(all_pts.size, level.size) > ORBIT_CAP:
            raise ResourceCapError(f"orbit exceeds cap of {ORBIT_CAP} points")
    return OrbitCloud(level if fixed else all_pts)


def minimal_set_cover(
    p: IFSPair, depth: int, resolution: float, seed: float = 0.0
) -> IntervalSet:
    """Union of radius-`resolution` intervals around the depth-d orbit of
    `seed`, clipped to [0, 1].  An outer cover of a finite *sample* of K, not
    of K itself; downstream claims are phrased against the sample."""
    if depth < 1:
        raise DomainError("minimal_set_cover needs depth >= 1")
    if not (resolution > 0):  # NaN fails too
        raise DomainError(f"resolution must be positive, got {resolution}")
    cloud = orbit(p, seed, depth)
    return IntervalSet(
        los=np.maximum(cloud.points - resolution, 0.0),
        his=np.minimum(cloud.points + resolution, 1.0),
    )
