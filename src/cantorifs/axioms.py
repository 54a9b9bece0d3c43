"""Checkers and constructors for the four pair properties and the induced
first-return machinery.

Notation used throughout (all intervals live in [0, 1]):

* W = [g(0), f(1)], the overlap of the two images.
* F1 = [f^2(1), f(1)], G1 = [g(0), g^2(0)], the first fundamental domains.
* Single overlapping: f^2(1) < g(0) and f(1) < g^2(0), equivalently
  W inside int(F1 ∪ G1).
* Hole pair: closed intervals h_f ⊂ int(F1 \\ W), h_g ⊂ int(G1 \\ W) with
  g(h_f) = h_g and f(h_g) = h_f.  Orbits never enter their interiors.
* Induced maps: for x in F1, n(x) is the least n >= 0 with
  g^{-n}(f^{-1}(x)) in G1 and F(x) := g^{-n(x)}(f^{-1}(x)); G symmetric.
* Eventual expansion: the induced maps have derivative > mu > 1 outside the
  holes.
* Ruination regions: r_f = F^{-1}(h_g) (parts Q_n = f(g^n(h_g)) accumulating
  at f(1)), r_g = G^{-1}(h_f) (parts P_n = g(f^n(h_f)) accumulating at g(0)).
* Castration: W inside int(r_f) ∪ int(r_g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

import numpy as np

from .errors import (
    DegenerateHoleError,
    DomainError,
    IterationCapError,
    NoContractionError,
)
from .intervals import TOL, Interval, IntervalSet, contained_in_interior
# Unused here, but perfbench's tracer test expects `axioms.fundamental_domain`
# to be a binding site it can patch.
from .ifs import IFSPair, fundamental_domain  # noqa: F401
from .maps import MapSpec


# ---------------------------------------------------------------------------
# Single overlapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoReport:
    ok: bool
    margin_left: float   # g(0) - f^2(1)
    margin_right: float  # g^2(0) - f(1)

    def to_text(self) -> str:
        return (f"so: {'ok' if self.ok else 'violated'}\n"
                f"so_margin_left: {self.margin_left:.17g}\n"
                f"so_margin_right: {self.margin_right:.17g}\n")


def check_so(p: IFSPair) -> SoReport:
    """f^2(1) < g(0) and f(1) < g^2(0), each with margin >= eps_geom."""
    f2 = p.f.eval(p.f.eval(1.0))
    g2 = p.g.eval(p.g.eval(0.0))
    ml = p.overlap.lo - f2
    mr = g2 - p.overlap.hi
    eps = TOL.eps_geom
    return SoReport(ml >= eps and mr >= eps, ml, mr)


def check_so_containment_form(p: IFSPair) -> bool:
    """The equivalent containment form: W inside int(F1 ∪ G1)."""
    dom = IntervalSet([p.f1, p.g1])
    return contained_in_interior(IntervalSet([p.overlap]), dom)


# ---------------------------------------------------------------------------
# Hole property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolePair:
    h_f: Interval
    h_g: Interval
    swap_residual: float  # max endpoint mismatch of g(h_f) vs h_g, f(h_g) vs h_f


def find_hole(p: IFSPair, seed: Interval) -> HolePair:
    """Nested-image limit H = lim (f∘g)^n(seed), then h_g := g(H).

    Requires the contraction hypothesis f(g(seed)) inside int(seed); the
    limit must converge within 200 steps and keep non-empty interior (an
    affine contraction would collapse to its fixed point, which is exactly
    why the construction needs the expanding inner bump).  Validates the
    hole-pair containments before returning.
    """
    t_of = lambda iv: p.f.image_of(p.g.image_of(iv))
    first = t_of(seed)
    if not seed.contains_interval(first, margin=TOL.eps_geom):
        raise NoContractionError(
            f"f(g(seed)) = {first} is not inside int({seed})")

    cur = seed
    for _ in range(200):
        nxt = t_of(cur)
        if abs(nxt.lo - cur.lo) < TOL.eps_newton and abs(nxt.hi - cur.hi) < TOL.eps_newton:
            cur = nxt
            break
        cur = nxt
    else:
        raise IterationCapError(
            f"hole limit from {seed} did not converge in 200 steps; last {cur}")

    if cur.length < 10.0 * TOL.eps_geom:
        raise DegenerateHoleError(
            f"hole limit {cur} has length {cur.length:.3g} < {10 * TOL.eps_geom:.3g}")

    h_f = cur
    h_g = p.g.image_of(h_f)
    back = p.f.image_of(h_g)
    residual = max(abs(back.lo - h_f.lo), abs(back.hi - h_f.hi))

    w = p.overlap
    f1_minus_w = Interval(p.f1.lo, w.lo)
    g1_minus_w = Interval(w.hi, p.g1.hi)
    for name, h, region in (("h_f", h_f, f1_minus_w), ("h_g", h_g, g1_minus_w)):
        if not region.contains_interval(h, margin=TOL.eps_geom):
            raise DegenerateHoleError(
                f"{name} = {h} not inside int({region}) with margin {TOL.eps_geom:.1g}")
    return HolePair(h_f, h_g, residual)


# ---------------------------------------------------------------------------
# Induced maps
# ---------------------------------------------------------------------------


def _oriented(p: IFSPair, which: Literal["F", "G"]) -> tuple[MapSpec, MapSpec, Interval, Interval]:
    """(first map, return map, domain, codomain) for the induced map."""
    if which == "F":
        return p.f, p.g, p.f1, p.g1
    if which == "G":
        return p.g, p.f, p.g1, p.f1
    raise DomainError(f"which must be 'F' or 'G', got {which!r}")


def _inverse_orbit(p: IFSPair, which: Literal["F", "G"], x: float) -> list[float]:
    """The inverse chain first^{-1}(x), then return^{-1} of each point, up to
    and including the first point in the codomain.  Domain excludes the
    fixed-side endpoint (f(1) for F, g(0) for G), where the backward orbit
    parks at a fixed point."""
    a, b, dom, codom = _oriented(p, which)
    bad = dom.hi if which == "F" else dom.lo
    if not dom.contains(x, slack=TOL.eps_geom) or x == bad:
        raise DomainError(f"x={x} outside the induced map's domain {dom} minus endpoint")
    ys = [a.inverse_eval(x)]
    for _ in range(TOL.max_iter):
        if codom.contains(ys[-1]):
            return ys
        ys.append(b.inverse_eval(ys[-1]))
    raise IterationCapError(f"inverse orbit did not land in {codom} from x={x}")


def induced_n(p: IFSPair, x: float, which: Literal["F", "G"] = "F") -> int:
    """Least n >= 0 with (return map)^{-n}(first^{-1}(x)) in the codomain."""
    return len(_inverse_orbit(p, which, x)) - 1


def induced_map(p: IFSPair, which: Literal["F", "G"], x: float) -> float:
    return _inverse_orbit(p, which, x)[-1]


def induced_deriv(p: IFSPair, which: Literal["F", "G"], x: float) -> float:
    """Chain rule along the realized inverse word:
    (1/first'(first^{-1} x)) * prod over the backward orbit of 1/return'."""
    a, b, _, _ = _oriented(p, which)
    ys = _inverse_orbit(p, which, x)
    d = 1.0 / a.deriv(ys[0])
    for y in ys[1:]:
        d /= b.deriv(y)
    return d


def induced_discontinuities(p: IFSPair, which: Literal["F", "G"], region: Interval) -> list[float]:
    """Sites strictly inside `region` where n(x) jumps, sorted: the pair's
    `jumps_F` (f(g^j(0)), j >= 2, accumulating at f(1)) or `jumps_G`."""
    if which == "F":
        sites = p.jumps_F
    elif which == "G":
        sites = p.jumps_G
    else:
        raise DomainError(f"which must be 'F' or 'G', got {which!r}")
    return [x for x in sites if region.lo < x < region.hi]


# ---------------------------------------------------------------------------
# Eventual expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    ok: bool
    mu: float          # smallest sampled induced derivative, not a proven bound
    mu_target: float
    samples: int
    min_site: float
    min_branch: str    # "F" or "G"
    refine_slack: float  # coarse min minus 2x-finer min (Lipschitz slack)

    def to_text(self) -> str:
        return (f"ee: {'ok' if self.ok else 'violated'}\n"
                f"ee_mu: {self.mu:.17g}\n"
                f"ee_mu_target: {self.mu_target:.17g}\n"
                f"ee_samples: {self.samples}\n"
                f"ee_min_site: {self.min_site:.17g} ({self.min_branch})\n"
                f"ee_refine_slack: {self.refine_slack:.3g}\n")


def _ee_sample_points(
    p: IFSPair, which: Literal["F", "G"], h: Interval, grid_n: int
) -> np.ndarray:
    """Sample points of (domain minus hole), excluding neighborhoods of the
    induced map's discontinuity sites and of the removed endpoint.

    The overlap region gets its own sub-grid: it occupies a vanishing
    fraction of the domain but is exactly where castration distorts the
    induced derivative, so a uniform grid alone would certify blind."""
    _, _, dom, _ = _oriented(p, which)
    eps = 64.0 * TOL.eps_geom
    pieces = [Interval(dom.lo, h.lo), Interval(h.hi, dom.hi)]
    grids = [
        np.linspace(piece.lo + eps, piece.hi - eps, max(grid_n // 2, 8))
        for piece in pieces if piece.length > 4 * eps
    ]
    w = p.overlap
    if w.lo >= dom.lo and w.hi <= dom.hi and w.length > 8 * TOL.eps_geom:
        pad = 2.0 * TOL.eps_geom
        grids.append(np.linspace(w.lo + pad, w.hi - pad, max(grid_n // 2, 64)))
    xs = np.unique(np.concatenate(grids))
    sites = induced_discontinuities(p, which, dom)
    if sites:
        d = np.min(np.abs(xs[:, None] - np.asarray(sites)[None, :]), axis=1)
        guard = max(4.0 * TOL.eps_geom, dom.length * 1e-7)
        xs = xs[d > guard]
    bad = dom.hi if which == "F" else dom.lo
    return xs[np.abs(xs - bad) > eps]


def check_ee(
    p: IFSPair, h: HolePair, mu_target: float = 1.01, grid_n: int = 2000
) -> ExpansionReport:
    """Sample induced derivatives on both branches outside the holes.

    Dense sampling plus breakpoint/discontinuity exclusion, not rigorous
    interval arithmetic; the refinement slack (coarse-grid min vs a 2x finer
    grid) quantifies how much a dip could have been missed.  A sample that
    faults raises: a skipped point would leave its dip unchecked.
    """
    def scan(n_pts: int) -> tuple[float, float, str, int]:
        mn, mn_x, mn_b, cnt = math.inf, math.nan, "F", 0
        for which, hole in (("F", h.h_f), ("G", h.h_g)):
            xs = _ee_sample_points(p, which, hole, n_pts)
            for x in xs:
                d = induced_deriv(p, which, float(x))
                cnt += 1
                if d < mn:
                    mn, mn_x, mn_b = d, float(x), which
        return mn, mn_x, mn_b, cnt

    best, best_x, best_branch, total = scan(grid_n)
    fine_min, _, _, fine_cnt = scan(2 * grid_n)
    total += fine_cnt
    slack = best - fine_min
    mu = min(best, fine_min)
    return ExpansionReport(mu > mu_target > 1.0, mu, mu_target, total, best_x, best_branch, slack)


# ---------------------------------------------------------------------------
# Ruination regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuinationRegions:
    """Truncated families Q_n (parts of r_f) and P_n (parts of r_g).

    parts_* pair each retained part with its n; the IntervalSets hold the
    same parts in position order.
    """

    r_f: IntervalSet
    r_g: IntervalSet
    parts_f: tuple[tuple[int, Interval], ...]
    parts_g: tuple[tuple[int, Interval], ...]

    @cached_property
    def rfrg(self) -> IntervalSet:
        """r_f ∩ r_g, the ruination overlap; no orbit point lies in its
        interior."""
        return self.r_f.intersect(self.r_g)


def ruination_family(p: IFSPair, h: HolePair, which: Literal["f", "g"]) -> Iterator[Interval]:
    """The parts of one ruination family in order n = 0, 1, 2, ...:
    Q_n = f(g^n(h_g)) for the f-family, P_n = g(f^n(h_f)) for the g-family.
    Endless; each part is computed only when asked for."""
    outer, inner, cur = (p.f, p.g, h.h_g) if which == "f" else (p.g, p.f, h.h_f)
    while True:
        yield outer.image_of(cur)
        cur = inner.image_of(cur)


def ruination_parts(
    p: IFSPair, h: HolePair, which: Literal["f", "g"]
) -> list[tuple[int, Interval]]:
    """The parts (n, part) of one ruination family, in order of n.

    Monotone maps send intervals to intervals, so each part is exact up to
    evaluation rounding.  Keeps parts n = 0..10,000 and stops before the
    first one shorter than eps_geom; castration only ever needs finitely
    many parts.
    """
    parts: list[tuple[int, Interval]] = []
    for n, part in zip(range(10_001), ruination_family(p, h, which)):
        if part.length < TOL.eps_geom:
            break
        parts.append((n, part))
    return parts


def ruination_regions(p: IFSPair, h: HolePair) -> RuinationRegions:
    pf = ruination_parts(p, h, "f")
    pg = ruination_parts(p, h, "g")
    return RuinationRegions(
        r_f=IntervalSet([iv for _, iv in pf]),
        r_g=IntervalSet([iv for _, iv in pg]),
        parts_f=tuple(pf),
        parts_g=tuple(pg),
    )


def ruination_gridscan(
    p: IFSPair, h: HolePair, which: Literal["f", "g"], grid_n: int = 100_000
) -> IntervalSet:
    """Brute-force oracle: scan a uniform grid of the domain (F1 or G1) for
    membership x ∈ (induced map)^{-1}(hole), via vectorized inverse steps."""
    if which == "f":
        first, ret, dom, codom, hole = p.f, p.g, p.f1, p.g1, h.h_g
    else:
        first, ret, dom, codom, hole = p.g, p.f, p.g1, p.f1, h.h_f
    xs = np.linspace(dom.lo, dom.hi, grid_n, endpoint=False) + dom.length / (2 * grid_n)
    ys = first.inverse_array(xs)
    member = np.zeros(xs.shape, dtype=bool)
    active = np.ones(xs.shape, dtype=bool)
    for _ in range(TOL.max_iter):
        landed = active & (ys >= codom.lo) & (ys <= codom.hi)
        member |= landed & (ys >= hole.lo) & (ys <= hole.hi)
        active &= ~landed
        if not active.any():
            break
        ys[active] = ret.inverse_array(ys[active])
    # assemble intervals from consecutive member grid cells
    cell = dom.length / grid_n
    idx = np.flatnonzero(member)
    if idx.size == 0:
        return IntervalSet([])
    brk = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[0], brk + 1])
    ends = np.concatenate([brk, [idx.size - 1]])
    return IntervalSet(
        los=xs[idx[starts]] - cell / 2,
        his=xs[idx[ends]] + cell / 2,
    )


# ---------------------------------------------------------------------------
# Castration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaReport:
    ok: bool
    g0_in_rf: bool
    f1_in_rg: bool
    witness: float | None   # an uncovered point of W when not ok
    min_margin: float       # smallest interior clearance along W's covering

    def to_text(self) -> str:
        lines = [f"ca: {'ok' if self.ok else 'violated'}",
                 f"ca_g0_in_int_rf: {self.g0_in_rf}",
                 f"ca_f1_in_int_rg: {self.f1_in_rg}",
                 f"ca_min_margin: {self.min_margin:.17g}"]
        if self.witness is not None:
            lines.append(f"ca_witness: {self.witness:.17g}")
        return "\n".join(lines) + "\n"


def check_ca(p: IFSPair, r: RuinationRegions) -> CaReport:
    """W inside int(r_f) ∪ int(r_g), with margin eps_geom at every junction.

    The interior of a union is larger than the union of interiors, so each
    family is contracted by eps_geom *separately* before taking the union:
    two parts merely touching across families do not cover their common
    endpoint.  Checks the necessary endpoint memberships first (g(0) in
    int(r_f) and f(1) in int(r_g)); on failure reports an uncovered witness.
    """
    eps = TOL.eps_geom
    w = p.overlap
    g0_in = _strictly_inside(r.r_f, w.lo)
    f1_in = _strictly_inside(r.r_g, w.hi)
    core = r.r_f.contract(eps).union(r.r_g.contract(eps))
    uncovered = IntervalSet([w]).difference(core)
    ok = g0_in and f1_in and uncovered.is_empty()
    witness = None
    if not uncovered.is_empty():
        witness = uncovered.parts[0].mid
    elif not g0_in:
        witness = w.lo
    elif not f1_in:
        witness = w.hi

    # Smallest clearance along W: at W's endpoints and at every part
    # endpoint falling inside W, the depth inside the deepest single part of
    # either family.  This is the quantity that must survive serialization
    # roundtrips for the verdict to be stable.
    min_margin = math.inf
    if ok:
        pts = [w.lo, w.hi]
        for fam in (r.r_f, r.r_g):
            for v in np.concatenate([fam.los, fam.his]):
                if w.lo < v < w.hi:
                    pts.append(float(v))
        for x in pts:
            best = 0.0
            for fam in (r.r_f, r.r_g):
                part = fam.part_containing(x)
                if part is not None:
                    best = max(best, min(x - part.lo, part.hi - x))
            min_margin = min(min_margin, best)
    else:
        min_margin = 0.0
    return CaReport(bool(ok), bool(g0_in), bool(f1_in), witness, float(min_margin))


def _strictly_inside(s: IntervalSet, x: float) -> bool:
    """x lies in one part of s, at least eps_geom from both its ends."""
    part = s.part_containing(x)
    return part is not None and part.contains(x, -TOL.eps_geom)


# ---------------------------------------------------------------------------
# Boundary sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundarySets:
    b_f: tuple[float, ...]
    b_g: tuple[float, ...]

    @cached_property
    def points(self) -> tuple[float, ...]:
        """b_f ∪ b_g, sorted."""
        return tuple(sorted(set(self.b_f) | set(self.b_g)))


def boundary_sets(p: IFSPair, h: HolePair, r: RuinationRegions) -> BoundarySets:
    """b_f = boundary(h_f ∪ (r_f ∩ r_g)) ∪ boundary(F1), symmetric for g.

    Assembled from normalized part endpoints of the truncated sets; every
    reported point is an endpoint of a part of the operand sets.
    """
    def bdry(base: Interval, extra: IntervalSet) -> list[float]:
        s = IntervalSet([base]).union(extra)
        return [float(v) for v in np.concatenate([s.los, s.his])]

    b_f = sorted(set(bdry(h.h_f, r.rfrg) + [p.f1.lo, p.f1.hi]))
    b_g = sorted(set(bdry(h.h_g, r.rfrg) + [p.g1.lo, p.g1.hi]))
    return BoundarySets(tuple(b_f), tuple(b_g))


# ---------------------------------------------------------------------------
# Combined validation front end (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    so: SoReport | None
    hole: HolePair | None
    hole_error: str | None
    ee: ExpansionReport | None
    ruin: RuinationRegions | None
    ca: CaReport | None
    corner_derivs_below_one: bool | None  # advisory: f'(0) < 1 and g'(1) < 1

    @property
    def ok(self) -> bool:
        return bool(
            self.so is not None and self.so.ok
            and self.hole is not None
            and self.ee is not None and self.ee.ok
            and self.ca is not None and self.ca.ok
        )


def run_axiom_checks(
    p: IFSPair,
    hole_seed: Interval,
    mu_target: float = 1.01,
) -> AxiomReport:
    """Class-A is assumed already validated for `p`; runs So, Ho, Ee, Ca in
    order, short-circuiting on failure."""
    so = check_so(p)
    if not so.ok:
        return AxiomReport(so, None, None, None, None, None, None)
    try:
        hole = find_hole(p, hole_seed)
    except (NoContractionError, DegenerateHoleError, IterationCapError) as e:
        return AxiomReport(so, None, str(e), None, None, None, None)
    ee = check_ee(p, hole, mu_target)
    ruin = ruination_regions(p, hole)
    ca = check_ca(p, ruin)
    advisory = p.f.deriv(0.0) < 1.0 and p.g.deriv(1.0) < 1.0
    return AxiomReport(so, hole, None, ee, ruin, ca, advisory)
