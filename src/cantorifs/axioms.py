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
  holes.  `check_ee` bounds the derivative from below on cells between
  consecutive jump sites (`expansion_cells`), not at sample points.
* Ruination regions: r_f = F^{-1}(h_g) (parts Q_n = f(g^n(h_g)) accumulating
  at f(1)), r_g = G^{-1}(h_f) (parts P_n = g(f^n(h_f)) accumulating at g(0)).
* Castration: W inside int(r_f) ∪ int(r_g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from .errors import (
    DegenerateHoleError,
    DomainError,
    IterationCapError,
    NoContractionError,
)
from .intervals import TOL, Interval, IntervalSet, _inside
from .ifs import IFSPair
from .maps import MapSpec

#: The `find_hole` failures that are verdicts on the pair, reported as data;
#: any other error is a fault and propagates.
HOLE_VERDICTS = (NoContractionError, DegenerateHoleError, IterationCapError)


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
    ml = p.overlap.lo - p.f1.lo
    mr = p.g1.hi - p.overlap.hi
    eps = TOL.eps_geom
    return SoReport(ml >= eps and mr >= eps, ml, mr)


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
    t_of = lambda lo, hi: p.f.image_ends(*p.g.image_ends(lo, hi))
    first = Interval(*t_of(seed.lo, seed.hi))
    if not seed.contains_interval(first, margin=TOL.eps_geom):
        raise NoContractionError(
            f"f(g(seed)) = {first} is not inside int({seed})")

    # `first` is the limit's step 1.  It lies eps_geom > eps_newton inside
    # the seed, so that step never meets the stop rule: start from it.
    lo, hi = first.lo, first.hi
    for _ in range(199):
        (a, b), (lo, hi) = (lo, hi), t_of(lo, hi)
        if abs(lo - a) < TOL.eps_newton and abs(hi - b) < TOL.eps_newton:
            break
    else:
        raise IterationCapError(
            f"hole limit from {seed} did not converge in 200 steps; last {Interval(lo, hi)}")

    h_f = Interval(lo, hi)
    if h_f.length < 10.0 * TOL.eps_geom:
        raise DegenerateHoleError(
            f"hole limit {h_f} has length {h_f.length:.3g} < {10 * TOL.eps_geom:.3g}")

    h_g = p.g.image_of(h_f)
    back = p.f.image_of(h_g)
    residual = max(abs(back.lo - h_f.lo), abs(back.hi - h_f.hi))

    for name, h, region in (("h_f", h_f, p.f1_free), ("h_g", h_g, p.g1_free)):
        if not region.contains_interval(h, margin=TOL.eps_geom):
            raise DegenerateHoleError(
                f"{name} = {h} not inside int({region}) with margin {TOL.eps_geom:.1g}")
    return HolePair(h_f, h_g, residual)


# ---------------------------------------------------------------------------
# Induced maps
# ---------------------------------------------------------------------------


def _oriented(
    p: IFSPair, which: Literal["F", "G"]
) -> tuple[MapSpec, MapSpec, Interval, Interval, np.ndarray]:
    """(first map, return map, domain, codomain, jump sites) of the induced
    map: the one place that says what each branch is made of."""
    if which == "F":
        return p.f, p.g, p.f1, p.g1, p.jumps_F
    if which == "G":
        return p.g, p.f, p.g1, p.f1, p.jumps_G
    raise DomainError(f"which must be 'F' or 'G', got {which!r}")


def _inverse_orbit(p: IFSPair, which: Literal["F", "G"], x: float) -> list[float]:
    """The inverse chain first^{-1}(x), then return^{-1} of each point, up to
    and including the first point in the codomain.  The induced map's domain
    excludes the fixed-side endpoint (f(1) for F, g(0) for G), where the
    backward orbit parks at a fixed point."""
    a, b, dom, codom, _ = _oriented(p, which)
    if not dom.contains(x, slack=TOL.eps_geom) or x == (dom.hi if which == "F" else dom.lo):
        raise DomainError(f"x={x} outside the induced map's domain {dom} minus endpoint")
    ys = [a.inverse_eval(x)]
    for _ in range(TOL.max_iter):
        if codom.contains(ys[-1]):
            return ys
        ys.append(b.inverse_eval(ys[-1]))
    raise IterationCapError(f"inverse orbit did not land in {codom} from x={x}")


def _site_counts(p: IFSPair, which: Literal["F", "G"], sites: np.ndarray,
                 mid: np.ndarray) -> np.ndarray:
    """`induced_n` at each midpoint where it reads n off the jump sites, and
    -1 where its inverse chain decides: with i sites below mid - eps_newton,
    n = i for F and len(sites) - i for G, unless a site lies within
    eps_newton of mid, mid is past the last site, n >= max_iter or mid is
    outside [f^2(1), g^2(0)]."""
    eps = TOL.eps_newton
    i = sites.searchsorted(mid - eps)
    n, past = (i, sites.size) if which == "F" else (sites.size - i, 0)
    read = ((i != past) & (n < TOL.max_iter) & (i == sites.searchsorted(mid + eps, side="right"))
            & (p.f1.lo <= mid) & (mid <= p.g1.hi))
    return np.where(read, n, -1)


def induced_n(p: IFSPair, x: float, which: Literal["F", "G"]) -> int:
    """Least n >= 0 with (return map)^{-n}(first^{-1}(x)) in the codomain:
    `_site_counts` off the cached jump sites, between which n is constant,
    and the inverse chain's where that reads -1."""
    n = int(_site_counts(p, which, _oriented(p, which)[4], x))
    return n if n >= 0 else len(_inverse_orbit(p, which, x)) - 1


def induced_deriv(p: IFSPair, which: Literal["F", "G"], x: float) -> float:
    """Chain rule along the realized inverse word:
    (1/first'(first^{-1} x)) * prod over the backward orbit of 1/return'."""
    a, b, _, _, _ = _oriented(p, which)
    ys = _inverse_orbit(p, which, x)
    d = 1.0 / a.deriv(ys[0])
    for y in ys[1:]:
        d /= b.deriv(y)
    return d


def induced_discontinuities(p: IFSPair, which: Literal["F", "G"], region: Interval) -> list[float]:
    """Sites strictly inside `region` where n(x) jumps, sorted: the pair's
    `jumps_F` (f(g^j(0)), j >= 2, accumulating at f(1)) or `jumps_G`.  The
    sites are sorted, so they are one slice of them (`_inside`)."""
    sites = _oriented(p, which)[4]
    a, z = _inside(sites, region.lo, region.hi, 0.0)
    return sites[a:z].tolist()


# ---------------------------------------------------------------------------
# Eventual expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    ok: bool           # mu > mu_target > 1 and both accumulation cells enclosed
    mu: float          # lower bound of F' and G' over every enclosed cell
    mu_target: float
    samples: int       # enclosed cells, each bisected sub-cell and tail counted once
    min_site: float    # midpoint of the cell with the lowest bound
    min_branch: str    # "F" or "G"
    tails_enclosed: bool

    def to_text(self) -> str:
        return (f"ee: {'ok' if self.ok else 'violated'}\n"
                f"ee_mu: {self.mu:.17g}\n"
                f"ee_mu_target: {self.mu_target:.17g}\n"
                f"ee_cells: {self.samples}\n"
                f"ee_min_site: {self.min_site:.17g} ({self.min_branch})\n"
                f"ee_tails_enclosed: {self.tails_enclosed}\n")


class EeCell(NamedTuple):
    """A closed piece [lo, hi] of an induced map's domain on which n(x) = n,
    with `bound` <= the induced derivative at every point of it.  `chain`
    bounds the return-map factors of the derivative from below, so a
    sub-cell's bound needs only the first map's pulled-back interval.  A
    tuple, since `check_ee` makes dozens per call."""

    lo: float
    hi: float
    n: int             # the least n on an accumulation cell
    chain: float
    bound: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _down(x: float) -> float:
    return math.nextafter(x, 0.0)


def _padded(a: float, b: float) -> tuple[float, float]:
    return min(a, b) - TOL.eps_newton, max(a, b) + TOL.eps_newton


def _first_bound(first: MapSpec, chain: float, lo: float, hi: float) -> float:
    """The bound of a cell [lo, hi] from its first map's pulled-back interval."""
    ya, yb = first.inverse_eval(lo), first.inverse_eval(hi)
    return _down(chain / first.max_deriv(*_padded(ya, yb)))


def expansion_cells(p: IFSPair, h: HolePair) -> tuple[tuple[list[EeCell], EeCell | None], ...]:
    """For the branches F and G in turn, the cells of the induced map's
    domain minus its hole's interior (h_f for F, h_g for G), and its
    accumulation cell (None when that is not enclosed).

    With q_k = ret^k(base) (ret = g, base 0 for F; ret = f, base 1 for G),
    the site s_j = first(q_j) and the domains D_k = [q_k, q_{k+1}] (ret's
    fundamental domains, G_k for F and F_k for G): the cell between s_j and
    s_{j+1} pulls back under first^{-1} onto exactly D_j, each ret^{-1} step
    maps D_k onto D_{k-1}, and n = j - 1 on it.  Its
    bound is 1/max first'(D_j) times the prefix product of 1/max ret'(D_k)
    over 1 <= k < j.  The first cell (from the far end of the domain to s_2) and
    the pieces the hole cuts pull back through `inverse_eval` of their ends.
    Every interval is padded outward by eps_newton and every quotient is
    rounded down: float arithmetic, not interval arithmetic.

    The D_k of each branch are one slice of ret's cached ladder, and f and
    g each bound those of both branches in one `max_deriv_array` call: f is
    F's first map and G's return map, and g the other way round.

    The accumulation cell runs from the last site to f(1) (g(0) for G) and
    holds every cell j >= J (`_accumulation_cell`).
    """
    branches = (("F", "g", h.h_f), ("G", "f", h.h_g))
    sites, ends = [], []
    for which, ret_name, _ in branches:
        sites.append(induced_discontinuities(p, which, _oriented(p, which)[2]))
        n = len(sites[-1])  # the cells j = 1..n need D_1..D_n
        rungs = np.array(p.ladder(ret_name, n + 1)[1:n + 2])
        ends.append((rungs[:-1], rungs[1:]))
    los = np.concatenate([np.minimum(a, b) for a, b in ends]) - TOL.eps_newton
    his = np.concatenate([np.maximum(a, b) for a, b in ends]) + TOL.eps_newton
    f_max, g_max = (m.max_deriv_array(los, his).tolist() for m in (p.f, p.g))
    n_f = len(sites[0])
    maxima = ((f_max[:n_f], g_max[:n_f]), (g_max[n_f:], f_max[n_f:]))

    out = []
    for (which, _, hole), s, (first_max, ret_max) in zip(branches, sites, maxima):
        first, _, dom, _, _ = _oriented(p, which)
        # edges[0] is the domain's far end and edges[j] = s_{j+1}, so cell j
        # lies between edges[j-1] and edges[j], which rise for F and fall for
        # G.  Under So every site is strictly inside the domain, so none is
        # missing from the front of the list.
        edges = [dom.lo, *s] if which == "F" else [dom.hi, *s[::-1]]
        spans = zip(edges, edges[1:]) if which == "F" else zip(edges[1:], edges)
        cells: list[EeCell] = []
        chain = 1.0  # prefix product of 1/max ret'(D_k) over 1 <= k < j
        for n, ((lo, hi), top_first, top_ret) in enumerate(zip(spans, first_max, ret_max)):
            if hi <= hole.lo or lo >= hole.hi:  # cell j = n + 1
                bound = (_first_bound(first, chain, lo, hi) if n == 0
                         else _down(chain / top_first))
                cells.append(EeCell(lo, hi, n, chain, bound))
            else:
                for a, b in ((lo, hole.lo), (hole.hi, hi)):
                    if a < b:
                        cells.append(EeCell(a, b, n, chain, _first_bound(first, chain, a, b)))
            chain = _down(chain / top_ret)
        out.append((cells, _accumulation_cell(p, which, edges, chain)))
    return tuple(out)


def _accumulation_cell(p: IFSPair, which: Literal["F", "G"], edges: list[float],
                       chain: float) -> EeCell | None:
    """The cell from the last site to f(1) (g(0) for G), which holds every
    cell j >= J = len(edges), given the prefix product `chain` over k < J.
    From k = J on, the first k with max ret' <= 1 on [q_k, fixed point]
    ends it: no later factor can lower the prefix product.  If no such k
    comes within max_iter steps the cell is not enclosed."""
    first, ret, dom, _, _ = _oriented(p, which)
    ret_name, fixed, acc_end = ("g", 1.0, dom.hi) if which == "F" else ("f", 0.0, dom.lo)
    big_j = len(edges)
    lo, hi = sorted((edges[-1], acc_end))
    bound, low = math.inf, chain
    for k in range(big_j, big_j + TOL.max_iter):
        q_k, q_next = p.ladder(ret_name, k + 1)[k:k + 2]
        d_k = _padded(q_k, q_next)
        rest = _padded(q_k, fixed)  # q_k to the fixed point
        if ret.max_deriv(*rest) <= 1.0:
            bound = min(bound, _down(chain / first.max_deriv(*rest)))
            return EeCell(lo, hi, big_j - 1, low, bound)
        bound = min(bound, _down(chain / first.max_deriv(*d_k)))
        chain = _down(chain / ret.max_deriv(*d_k))
        low = min(low, chain)
    return None


def _bisect(first: MapSpec, cell: EeCell, mu_target: float) -> tuple[list[EeCell], bool]:
    """Bisect a cell whose bound is <= mu_target, lowest-bound half first,
    until every piece clears mu_target or one piece of width <= eps_geom
    does not.  Returns the pieces covering the cell (the ones left unsplit
    after a failure keep their bounds) and whether such a piece was found."""
    stack, done = [cell], []
    while stack:
        c = stack.pop()
        if c.bound > mu_target:
            done.append(c)
        elif c.hi - c.lo <= TOL.eps_geom:
            return done + stack + [c], True
        else:
            m = c.mid
            halves = [EeCell(a, b, c.n, c.chain, _first_bound(first, c.chain, a, b))
                      for a, b in ((c.lo, m), (m, c.hi))]
            stack.extend(sorted(halves, key=lambda h: h.bound, reverse=True))
    return done, False


def check_ee(p: IFSPair, h: HolePair, mu_target: float) -> ExpansionReport:
    """Enclose the induced derivatives of both branches outside the holes.

    Each branch's domain is cut into the cells of `expansion_cells`; a cell
    whose bound is <= mu_target is bisected (`_bisect`), lowest bound first
    across both branches, until one piece fails, which settles the verdict.
    `mu` is the least bound over the resulting cover, so it is a lower bound
    of F' and G' at every point outside the holes whenever `tails_enclosed`.
    A map evaluation that faults raises: a skipped cell would go unchecked.
    """
    pieces: list[tuple[EeCell, str]] = []
    tails: list[tuple[EeCell, str]] = []
    for which, (cells, tail) in zip("FG", expansion_cells(p, h)):
        pieces += [(c, which) for c in cells]
        if tail is not None:
            tails.append((tail, which))

    cover: list[tuple[EeCell, str]] = []
    failed = False
    for cell, which in sorted(pieces, key=lambda cw: cw[0].bound):
        if failed or cell.bound > mu_target:
            cover.append((cell, which))
            continue
        subs, failed = _bisect(_oriented(p, which)[0], cell, mu_target)
        cover += [(c, which) for c in subs]
    cover += tails

    worst, branch = min(cover, key=lambda cw: cw[0].bound)
    enclosed = len(tails) == 2
    return ExpansionReport(worst.bound > mu_target > 1.0 and enclosed, worst.bound, mu_target,
                           len(cover), worst.mid, branch, enclosed)


# ---------------------------------------------------------------------------
# Ruination regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuinationRegions:
    """Truncated families Q_n (parts of r_f) and P_n (parts of r_g), each
    normalized from the parts `ruination_parts` keeps."""

    r_f: IntervalSet
    r_g: IntervalSet

    @cached_property
    def rfrg(self) -> IntervalSet:
        """r_f ∩ r_g, the ruination overlap; no orbit point lies in its
        interior."""
        return self.r_f.intersect(self.r_g)


def ruination_parts(p: IFSPair, h: HolePair, which: Literal["f", "g"]) -> tuple[list, list]:
    """The ends (los, his) of the parts of one ruination family,
    Q_n = f(g^n(h_g)) for the f-family and P_n = g(f^n(h_f)) for the
    g-family; part n is at index n.

    Monotone maps send intervals to intervals, so each part is exact up to
    evaluation rounding.  Keeps parts n = 0..10,000 and stops before the
    first one shorter than eps_geom; castration only ever needs finitely
    many parts.
    """
    outer, inner, cur = (p.f, p.g, h.h_g) if which == "f" else (p.g, p.f, h.h_f)
    lo, hi = cur.lo, cur.hi
    los, his = [], []
    for _ in range(10_001):
        a, b = outer.image_ends(lo, hi)
        if b - a < TOL.eps_geom:
            break
        los.append(a)
        his.append(b)
        lo, hi = inner.image_ends(lo, hi)
    return los, his


def ruination_regions(p: IFSPair, h: HolePair) -> RuinationRegions:
    (f_los, f_his), (g_los, g_his) = (ruination_parts(p, h, w) for w in ("f", "g"))
    return RuinationRegions(r_f=IntervalSet(los=f_los, his=f_his),
                            r_g=IntervalSet(los=g_los, his=g_his))


# ---------------------------------------------------------------------------
# Castration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaReport:
    ok: bool
    g0_in_rf: bool
    f1_in_rg: bool
    witness: float | None   # the shallowest point of W when not ok
    min_margin: float       # the minimum clearance over W

    def to_text(self) -> str:
        lines = [f"ca: {'ok' if self.ok else 'violated'}",
                 f"ca_g0_in_int_rf: {self.g0_in_rf}",
                 f"ca_f1_in_int_rg: {self.f1_in_rg}",
                 f"ca_min_margin: {self.min_margin:.17g}"]
        if self.witness is not None:
            lines.append(f"ca_witness: {self.witness:.17g}")
        return "\n".join(lines) + "\n"


def _depth(los: np.ndarray, his: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """min(x - lo, hi - x) in the last part with lo <= x: the depth of x in
    the part holding it, negative where no part holds it.  The parts start
    with a sentinel at -inf, so every x finds one."""
    i = np.searchsorted(los, xs, side="right") - 1
    return np.minimum(xs - los[i], his[i] - xs)


def check_ca(p: IFSPair, r: RuinationRegions) -> CaReport:
    """W inside int(r_f) ∪ int(r_g), with clearance eps_geom everywhere.

    The clearance of x in W is its depth in the part of either family that
    holds it most deeply, and 0 where none does; at g(0) only r_f counts and
    at f(1) only r_g, since castration needs g(0) in int(r_f) and f(1) in
    int(r_g).  Parts of the two families that merely touch leave their
    common end at clearance 0: the interior of a union is larger than the
    union of interiors.  The clearance is piecewise linear, so its minimum
    over W is reached at an end of W, at a part end, or where one family's
    falling edge crosses the other's rising edge: midway between a part's hi
    and the lo of the other family's part that holds it (a part that does
    not hold it adds a harmless point).  `min_margin` is that minimum and ok
    is min_margin >= eps_geom; when not ok, `witness` is the leftmost point
    where the minimum is reached.
    """
    w = p.overlap
    # A sentinel part at -inf in each family holds no point of W.
    (flo, fhi), (glo, ghi) = ((np.append(-math.inf, s.los), np.append(-math.inf, s.his))
                              for s in (r.r_f, r.r_g))
    mids = [0.5 * (his + los[np.searchsorted(los, his, side="right") - 1])
            for his, los in ((fhi, glo), (ghi, flo))]
    xs = np.concatenate([flo, fhi, glo, ghi, *mids])
    xs = np.concatenate([[w.lo], np.unique(xs[(w.lo < xs) & (xs < w.hi)]), [w.hi]])
    f_depth, g_depth = _depth(flo, fhi, xs), _depth(glo, ghi, xs)
    g0_in, f1_in = bool(f_depth[0] >= TOL.eps_geom), bool(g_depth[-1] >= TOL.eps_geom)
    g_depth[0] = f_depth[-1] = -math.inf
    clearance = np.maximum(np.maximum(f_depth, g_depth), 0.0)
    k = int(np.argmin(clearance))
    ok = bool(clearance[k] >= TOL.eps_geom)
    return CaReport(ok, g0_in, f1_in, None if ok else float(xs[k]), float(clearance[k]))


# ---------------------------------------------------------------------------
# Boundary points
# ---------------------------------------------------------------------------


def boundary_sets(p: IFSPair, h: HolePair, r: RuinationRegions) -> tuple[float, ...]:
    """b_f ∪ b_g, sorted and without repeats, where
    b_f = boundary(h_f ∪ (r_f ∩ r_g)) ∪ boundary(F1), symmetric for g.

    Assembled from normalized part endpoints of the truncated sets; every
    reported point is an endpoint of a part of the operand sets.
    """
    def bdry(base: Interval) -> list[float]:
        s = IntervalSet([base]).union(r.rfrg)
        return [float(v) for v in np.concatenate([s.los, s.his])]

    return tuple(sorted(set(bdry(h.h_f) + bdry(h.h_g) + [p.f1.lo, p.f1.hi, p.g1.lo, p.g1.hi])))


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
    mu_target: float,
) -> AxiomReport:
    """Class-A is assumed already validated for `p`; runs So, Ho, Ee, Ca in
    order.  A failing So or Ho stops the run; Ee and Ca both run once the
    hole is found, so a failing Ee still reports Ca."""
    so = check_so(p)
    if not so.ok:
        return AxiomReport(so, None, None, None, None, None, None)
    try:
        hole = find_hole(p, hole_seed)
    except HOLE_VERDICTS as e:
        return AxiomReport(so, None, str(e), None, None, None, None)
    ee = check_ee(p, hole, mu_target)
    ruin = ruination_regions(p, hole)
    ca = check_ca(p, ruin)
    advisory = p.f.deriv(0.0) < 1.0 and p.g.deriv(1.0) < 1.0
    return AxiomReport(so, hole, None, ee, ruin, ca, advisory)
