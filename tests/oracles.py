"""Reference implementations and test tools that no command runs.

Each one checks a library result by an independent route: brute-force
enumeration, a grid scan, an equivalent formulation or a second certifier.
They live with the tests so that `src/` holds only what the commands and the
benchmark run.
"""

from __future__ import annotations

import math
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from cantorifs.axioms import (EeCell, ExpansionReport, HolePair, RuinationRegions, _inverse_orbit,
                              _oriented, induced_discontinuities)
from cantorifs.construct import AppendixParams, ClassCBuilder, epsilon_family_specs, lambda_sequence
from cantorifs.errors import (CertificateError, ClassificationError, DomainError, IterationCapError,
                              RangeError, SpecError)
from cantorifs.gapfinder import (
    WALK_VERDICTS, CaseTag, CertifyReport, GapCertificate, TerminalReason, TraceStep)
from cantorifs.ifs import (ORBIT_CAP, IFSPair, OrbitCloud, _dedup_sorted, fundamental_domain,
                           minimal_set_cover, orbit)
from cantorifs.intervals import TOL, Interval, IntervalSet, grid_cells_meeting
from cantorifs.maps import Affine, MapSpec, Segment, iterate_interval


# -- memory ----------------------------------------------------------------------


def traced_peak(fn) -> int:
    """fn's peak of traced memory, in bytes, over what it started with."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- class A ---------------------------------------------------------------------


def diagonal_gap_scan(s: Segment, n: int = 20_001) -> float:
    """The least of y - s(y) at n evenly spaced points of the segment, each
    s(y) by `segment_value`'s Horner run on arrays."""
    c0, c1, c2, c3 = segment_coeffs(s)
    ys = np.linspace(s.x_lo, s.x_hi, n)
    t = ys - s.x_lo
    return float(np.min(ys - (((c3 * t + c2) * t + c1) * t + c0)))


# -- interval sets -------------------------------------------------------------


def contains_points(s: IntervalSet, xs: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Vectorized membership for an array of points."""
    if s.is_empty():
        return np.zeros(np.shape(xs), dtype=bool)
    i = np.searchsorted(s.los, xs, side="right") - 1
    i_cl = np.clip(i, 0, s.los.size - 1)
    inside = (i >= 0) & (xs <= s.his[i_cl] + slack)
    # Points just left of a part start, within slack.
    j = np.clip(i + 1, 0, s.los.size - 1)
    near_next = (i + 1 < s.los.size) & (xs >= s.los[j] - slack) & (xs <= s.his[j] + slack)
    return inside | near_next


def dilate(s: IntervalSet, r: float, clip: Interval = Interval(0.0, 1.0)) -> IntervalSet:
    if r < 0:
        raise SpecError("dilate needs r >= 0")
    return IntervalSet(
        los=np.maximum(s.los - r, clip.lo),
        his=np.minimum(s.his + r, clip.hi),
    )


def widest_piece_by_intersection(j: Interval, s: IntervalSet) -> Interval | None:
    """The widest part of IntervalSet([j]) ∩ s, the first on a tie: the rule
    `gapfinder._widest_pieces` reads off one slice of s for every window."""
    inter = IntervalSet([j]).intersect(s)
    if inter.is_empty():
        return None
    k = int(np.argmax(inter.his - inter.los))
    return Interval(float(inter.los[k]), float(inter.his[k]))


def contained_in_interior(a: IntervalSet, b: IntervalSet) -> bool:
    """True iff every part of `a` sits inside int(b) with margin >= eps_geom.

    `b` is normalized, so its parts are maximal covering runs; interiority
    with margin is exactly containment in b contracted by eps_geom.
    """
    if a.is_empty():
        return True
    los, his = b.los + TOL.eps_geom, b.his - TOL.eps_geom
    keep = los <= his
    los, his = los[keep], his[keep]
    if los.size == 0:
        return False
    i = np.searchsorted(los, a.los, side="right") - 1
    if np.any(i < 0):
        return False
    return bool(np.all(a.his <= his[i]))


def ca_clearance(r: RuinationRegions, w: Interval, xs: np.ndarray) -> np.ndarray:
    """Each x's depth min(x - lo, hi - x) in the deepest part of r_f or r_g
    holding it, 0 where none does; r_g does not count at g(0) = w.lo nor r_f
    at f(1) = w.hi.  Brute force over every part of both families."""
    best = np.zeros(xs.shape)
    for fam, skipped in ((r.r_f, w.hi), (r.r_g, w.lo)):
        for lo, hi in zip(fam.los, fam.his):
            best = np.maximum(best, np.where(xs == skipped, 0.0, np.minimum(xs - lo, hi - xs)))
    return best


def _dist_to_set(xs: np.ndarray, s: IntervalSet) -> np.ndarray:
    """Distance from each point to the closed set s (exact)."""
    pts = np.stack([s.los, s.his], axis=1).ravel()  # sorted part endpoints
    i = np.clip(np.searchsorted(pts, xs), 1, pts.size - 1)
    d = np.minimum(np.abs(xs - pts[i - 1]), np.abs(xs - pts[i]))
    return np.where(contains_points(s, xs), 0.0, d)


def hausdorff_distance(a: IntervalSet, b: IntervalSet) -> float:
    """Hausdorff distance between two non-empty closed interval unions.

    sup_{x∈a} d(x, b) is attained either at a part endpoint of `a` or at a
    gap midpoint of `b` lying inside `a` (d(·, b) is piecewise V-shaped), so
    finitely many candidates give the exact value.
    """
    if a.is_empty() or b.is_empty():
        raise SpecError("hausdorff_distance needs non-empty sets")

    def one_sided(x: IntervalSet, y: IntervalSet) -> float:
        cands = [x.los, x.his]
        if y.n_parts > 1:
            gap_mids = 0.5 * (y.his[:-1] + y.los[1:])
            inside = contains_points(x, gap_mids)
            cands.append(gap_mids[inside])
        pts = np.concatenate(cands)
        return float(np.max(_dist_to_set(pts, y))) if pts.size else 0.0

    return max(one_sided(a, b), one_sided(b, a))


# -- vectorized kernels in their earlier form --------------------------------------


def measure_by_fsum(s: IntervalSet) -> float:
    """`IntervalSet.measure` as `math.fsum` over a Python list of the part
    lengths."""
    return math.fsum((s.his - s.los).tolist()) if s.los.size else 0.0


def normalize_by_reduceat(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`intervals._normalize` with each run's hi taken by
    `np.maximum.reduceat` over the run."""
    if los.size == 0:
        return los, his
    order = np.argsort(los, kind="stable")
    los, his = los[order], his[order]
    run_hi = np.maximum.accumulate(his)
    new_run = np.empty(los.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = los[1:] > run_hi[:-1]
    idx = np.flatnonzero(new_run)
    return los[idx], np.maximum.reduceat(his, idx)


def dedup_by_int_keys(pts: np.ndarray) -> np.ndarray:
    """`ifs._dedup_sorted` with the bucket keys cast to int64."""
    keys = np.floor(pts / TOL.eps_geom).astype(np.int64)
    first = np.empty(pts.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return pts[first]


# -- maps --------------------------------------------------------------------------


def apply_word(f: MapSpec, g: MapSpec, w: str, x: float) -> float:
    """The composition word `w` over {F, G} at x; the rightmost letter acts
    first, so "FG" is f(g(x))."""
    for ch in reversed(w):
        x = f.eval(x) if ch == "F" else g.eval(x)
    return x


def segment_coeffs(s: Segment) -> tuple[float, float, float, float]:
    """c0..c3 of s in t = x - x_lo, from its kind alone: an affine piece's
    value at x_lo and slope with c2 = c3 = 0, a Hermite piece's cubic
    through its end values and slopes."""
    k = s.kind
    if isinstance(k, Affine):
        return (k.slope * s.x_lo + k.intercept, k.slope, 0.0, 0.0)
    h = s.x_hi - s.x_lo
    delta = (k.y_hi - k.y_lo) / h
    return (k.y_lo, k.d_lo, (3.0 * delta - 2.0 * k.d_lo - k.d_hi) / h,
            (k.d_lo + k.d_hi - 2.0 * delta) / (h * h))


def segment_value(s: Segment, x: float) -> float:
    """s at x: Horner's run ((c3 t + c2) t + c1) t + c0, t = x - x_lo."""
    c0, c1, c2, c3 = segment_coeffs(s)
    t = x - s.x_lo
    return ((c3 * t + c2) * t + c1) * t + c0


def segment_deriv(s: Segment, x: float) -> float:
    """s' at x: (3c3 t + 2c2) t + c1, t = x - x_lo."""
    _, c1, c2, c3 = segment_coeffs(s)
    t = x - s.x_lo
    return (3.0 * c3 * t + 2.0 * c2) * t + c1


def segment_inverse(s: Segment, y: float) -> float:
    """The x with segment_value(s, x) = y: the quotient (y - intercept) /
    slope for an affine piece; for a Hermite one, Newton on
    `segment_value` and `segment_deriv` from the midpoint, kept inside the
    shrinking bracket by bisection, to a residual within eps_newton and a
    step within 4 ulp, an exact zero or a fixed point."""
    k = s.kind
    if isinstance(k, Affine):
        return (y - k.intercept) / k.slope
    a, b = s.x_lo, s.x_hi
    x = 0.5 * (a + b)
    for _ in range(TOL.max_iter):
        fx = segment_value(s, x) - y
        if fx == 0.0:
            return x
        if fx > 0:
            b = x
        else:
            a = x
        dfx = segment_deriv(s, x)
        step = fx / dfx if dfx > 0 else math.inf
        if abs(fx) <= TOL.eps_newton and abs(step) <= 4.0 * math.ulp(x):
            return x
        x_new = x - step
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if x_new == x:
            return x
        x = x_new
    if abs(segment_value(s, x) - y) > TOL.eps_newton:
        raise IterationCapError(f"inverse_eval stalled at y={y}")
    return x


def segment_ends(s: Segment) -> tuple[float, float]:
    """s at x_lo by `segment_value`, and at x_hi by its kind: a Hermite
    one's y_hi, an affine one's slope * x_hi + intercept."""
    k = s.kind
    y_hi = k.slope * s.x_hi + k.intercept if isinstance(k, Affine) else k.y_hi
    return segment_value(s, s.x_lo), y_hi


def break_values(m: MapSpec) -> list[float]:
    """The y_lo of every segment of m and the y_hi of the last, read from
    `m.segments`: the ends of its image are the first and the last."""
    return [segment_ends(s)[0] for s in m.segments] + [segment_ends(m.segments[-1])[1]]


def eval_by_segment(m: MapSpec, x: float) -> float:
    """`MapSpec.eval` as the picked segment's own `segment_value`, with
    the clamp written as min/max: the route its row table shortcuts."""
    if not (-TOL.eps_newton <= x <= 1.0 + TOL.eps_newton):
        raise DomainError(f"x={x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    j = max(bisect_left([s.x_lo for s in m.segments], x) - 1, 0)
    return segment_value(m.segments[j], x)


def inverse_by_segment(m: MapSpec, y: float) -> float:
    """`MapSpec.inverse_eval` as the picked segment's own
    `segment_inverse`, with clamps written as min/max."""
    ys = break_values(m)
    if not (ys[0] - TOL.eps_newton <= y <= ys[-1] + TOL.eps_newton):
        raise RangeError(f"y={y} outside image [{ys[0]}, {ys[-1]}]")
    y = min(max(y, ys[0]), ys[-1])
    j = min(max(bisect_left(ys, y) - 1, 0), len(m.segments) - 1)
    return segment_inverse(m.segments[j], y)


# -- construction ------------------------------------------------------------------


def x_of_full_pair(builder: ClassCBuilder, eps: float) -> float:
    """x(eps) = f_eps^{-1}(g_eps(0)) read off the whole pair at eps, built
    without class-A validation: at some eps the overlap is narrower than
    eps_geom, and a validated build fails."""
    p = IFSPair.of(*epsilon_family_specs(builder.f0, builder.params.k, eps))
    return p.f.inverse_eval(p.g.eval(0.0))


def h_prime(g: MapSpec, h_p: Interval) -> IntervalSet:
    """H'_p, the union of the forward images g^n(H_p): disjoint parts
    marching to 1, part 0 being H_p itself.  The paper's definition of the
    parameter set C reads it: eps is in C when x(eps) lies in H'_p.

    Ends with the first part shorter than eps_geom (kept), or at n = 10,000.
    """
    parts = [h_p]
    for _ in range(10_000):
        parts.append(g.image_of(parts[-1]))
        if parts[-1].length < TOL.eps_geom:
            break
    return IntervalSet(parts)


# -- orbits ------------------------------------------------------------------------


def orbit_bruteforce(p: IFSPair, seed: float, depth: int) -> np.ndarray:
    """Independent oracle: recursive enumeration over all <= 2^depth words."""
    out: list[float] = []

    def rec(x: float, d: int) -> None:
        out.append(x)
        if d == 0:
            return
        rec(p.f.eval(x), d - 1)
        rec(p.g.eval(x), d - 1)

    rec(seed, depth)
    return np.sort(np.asarray(out))


def orbit_by_sorted_copies(p: IFSPair, seed: float, depth: int) -> np.ndarray:
    """`ifs.orbit`'s points, each level sorted by `np.sort` into a copy."""
    level = np.array([seed])
    all_pts = level
    for _ in range(depth):
        level = np.concatenate([p.f.eval_array(level), p.g.eval_array(level)])
        all_pts = _dedup_sorted(np.sort(np.concatenate([all_pts, level]), kind="stable"))
        level = _dedup_sorted(np.sort(level, kind="stable"))
    return all_pts


def cloud_contains(cloud: OrbitCloud, x: float, slack: float) -> bool:
    i = int(np.searchsorted(cloud.points, x))
    for k in (i - 1, i):
        if 0 <= k < cloud.points.size and abs(cloud.points[k] - x) <= slack:
            return True
    return False


def min_distance(cloud: OrbitCloud, xs: np.ndarray) -> np.ndarray:
    i = np.clip(np.searchsorted(cloud.points, xs), 1, cloud.points.size - 1)
    return np.minimum(np.abs(xs - cloud.points[i - 1]), np.abs(xs - cloud.points[i]))


# -- axioms ------------------------------------------------------------------------


def check_so_containment_form(p: IFSPair) -> bool:
    """The equivalent containment form: W inside int(F1 ∪ G1)."""
    dom = IntervalSet([p.f1, p.g1])
    return contained_in_interior(IntervalSet([p.overlap]), dom)


def induced_map(p: IFSPair, which: Literal["F", "G"], x: float) -> float:
    return _inverse_orbit(p, which, x)[-1]


def induced_n_by_chain(p: IFSPair, x: float, which: Literal["F", "G"]) -> int:
    """`axioms.induced_n` by inverting x until it lands, not by the sites."""
    return len(_inverse_orbit(p, which, x)) - 1


def induced_discontinuities_by_scan(
    p: IFSPair, which: Literal["F", "G"], region: Interval
) -> list[float]:
    """The jump sites strictly inside `region`, by a scan of all of them."""
    sites = p.jumps_F if which == "F" else p.jumps_G
    return [x for x in sites if region.lo < x < region.hi]


def induced_n_by_bisect(p: IFSPair, x: float, which: Literal["F", "G"]) -> int:
    """`axioms.induced_n` with the sites bisected as a tuple: with i sites
    below x - eps_newton, n = i for F and len(sites) - i for G, and the
    inverse chain's n where a site lies within eps_newton of x, past the
    last site, at n >= max_iter and outside [f^2(1), g^2(0)]."""
    sites = _oriented(p, which)[4]
    i = bisect_left(sites, x - TOL.eps_newton)
    n, past = (i, len(sites)) if which == "F" else (len(sites) - i, 0)
    if (i != past and n < TOL.max_iter and i == bisect_right(sites, x + TOL.eps_newton)
            and p.f1.lo <= x <= p.g1.hi):
        return n
    return induced_n_by_chain(p, x, which)


def induced_step(p: IFSPair, which: Literal["F", "G"], iv: Interval) -> tuple[int, Interval]:
    """(n, image): n at iv's midpoint (`induced_n_by_bisect`), and the image
    of iv under return^{-n} after first^{-1} from its two ends'
    `inverse_eval` chains.  When an end's inversion fails, the midpoint's
    chain runs first and its error, if any, is raised instead of the
    end's, as in two passes."""
    n = induced_n_by_bisect(p, iv.mid, which)
    a, b, _, _, _ = _oriented(p, which)
    try:
        lo, hi = a.inverse_eval(iv.lo), a.inverse_eval(iv.hi)
        for _ in range(n):
            lo, hi = b.inverse_eval(lo), b.inverse_eval(hi)
    except (RangeError, IterationCapError):
        _inverse_orbit(p, which, iv.mid)
        raise
    return n, Interval(lo, hi)


def induced_step_two_pass(
    p: IFSPair, which: Literal["F", "G"], iv: Interval
) -> tuple[int, Interval]:
    """n from the midpoint's inverse orbit, then the n-fold inverse image of
    iv: `induced_step` reads the same n off the jump sites."""
    n = induced_n_by_chain(p, iv.mid, which)
    first, ret = (p.f, p.g) if which == "F" else (p.g, p.f)
    lo, hi = first.inverse_eval(iv.lo), first.inverse_eval(iv.hi)
    for _ in range(n):
        lo, hi = ret.inverse_eval(lo), ret.inverse_eval(hi)
    return n, Interval(lo, hi)


def pull_back_by_intervals(p: IFSPair, steps: Sequence[TraceStep], iv: Interval) -> Interval:
    """`gapfinder.pull_back` with an Interval built after every map."""
    for s in reversed(steps):
        if s.op == "F":
            iv = p.f.image_of(iterate_interval(p.g, s.n, iv))
        elif s.op == "G":
            iv = p.g.image_of(iterate_interval(p.f, s.n, iv))
        elif s.op in ("invpow_f", "invpow_g"):
            iv = iterate_interval(p.f if s.op == "invpow_f" else p.g, s.n, iv)
        elif s.op != "shrink":
            raise CertificateError(f"unknown op {s.op!r}")
    return iv


def hole_chain(p: IFSPair, seed: Interval) -> list[Interval]:
    """The nested images seed, f(g(seed)), f(g(f(g(seed)))), ... as
    `image_of` chains, up to the first whose ends both moved less than
    eps_newton, or 200 steps: the hole limit is the last one when it
    converged."""
    chain = [seed]
    while len(chain) <= 200:
        prev, nxt = chain[-1], p.f.image_of(p.g.image_of(chain[-1]))
        chain.append(nxt)
        if abs(nxt.lo - prev.lo) < TOL.eps_newton and abs(nxt.hi - prev.hi) < TOL.eps_newton:
            break
    return chain


def ruination_family(p: IFSPair, h: HolePair, which: Literal["f", "g"]) -> Iterator[Interval]:
    """The parts of one ruination family in order n = 0, 1, 2, ...:
    Q_n = f(g^n(h_g)) for the f-family, P_n = g(f^n(h_f)) for the g-family.
    Endless, so a reader picks its own floor below eps_geom."""
    outer, inner, cur = (p.f, p.g, h.h_g) if which == "f" else (p.g, p.f, h.h_f)
    while True:
        yield outer.image_of(cur)
        cur = inner.image_of(cur)


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



# -- eventual expansion, one cell at a time ----------------------------------------
# The per-cell enclosure by the scalar route: each domain D_j from
# `fundamental_domain` and each maximum from the scalar `MapSpec.max_deriv`,
# with its own copies of the rounding and bisection rules.


def _ee_down(x: float) -> float:
    return math.nextafter(x, 0.0)


def _ee_padded(a: float, b: float) -> tuple[float, float]:
    return min(a, b) - TOL.eps_newton, max(a, b) + TOL.eps_newton


def _ee_first_bound(first: MapSpec, chain: float, lo: float, hi: float) -> float:
    ya, yb = first.inverse_eval(lo), first.inverse_eval(hi)
    return _ee_down(chain / first.max_deriv(*_ee_padded(ya, yb)))


def ee_cells_by_domain(
    p: IFSPair, which: Literal["F", "G"], hole: Interval
) -> tuple[list[EeCell], EeCell | None]:
    """One branch's cells and accumulation cell of `axioms.expansion_cells`,
    one scalar `max_deriv` per map per domain."""
    first, ret, dom, _, _ = _oriented(p, which)
    sites = induced_discontinuities(p, which, dom)
    if which == "F":
        fixed, acc_end, edges = 1.0, dom.hi, [dom.lo, *sites]
    else:
        fixed, acc_end, edges = 0.0, dom.lo, [dom.hi, *sites[::-1]]
    ret_name: Literal["f", "g"] = "g" if which == "F" else "f"
    cells: list[EeCell] = []
    chain = 1.0
    for j in range(1, len(edges)):
        lo, hi = sorted((edges[j - 1], edges[j]))
        d = fundamental_domain(p, ret_name, j)
        d_j = _ee_padded(d.lo, d.hi)
        if hi <= hole.lo or lo >= hole.hi:
            bound = (_ee_first_bound(first, chain, lo, hi) if j == 1
                     else _ee_down(chain / first.max_deriv(*d_j)))
            cells.append(EeCell(lo, hi, j - 1, chain, bound))
        else:
            for a, b in ((lo, hole.lo), (hole.hi, hi)):
                if a < b:
                    cells.append(EeCell(a, b, j - 1, chain, _ee_first_bound(first, chain, a, b)))
        chain = _ee_down(chain / ret.max_deriv(*d_j))
    big_j = len(edges)
    lo, hi = sorted((edges[-1], acc_end))
    bound, low = math.inf, chain
    for k in range(big_j, big_j + TOL.max_iter):
        d = fundamental_domain(p, ret_name, k)
        d_k = _ee_padded(d.lo, d.hi)
        rest = _ee_padded(d.lo if which == "F" else d.hi, fixed)
        if ret.max_deriv(*rest) <= 1.0:
            bound = min(bound, _ee_down(chain / first.max_deriv(*rest)))
            return cells, EeCell(lo, hi, big_j - 1, low, bound)
        bound = min(bound, _ee_down(chain / first.max_deriv(*d_k)))
        chain = _ee_down(chain / ret.max_deriv(*d_k))
        low = min(low, chain)
    return cells, None


def _ee_bisect(first: MapSpec, cell: EeCell, mu_target: float) -> tuple[list[EeCell], bool]:
    stack, done = [cell], []
    while stack:
        c = stack.pop()
        if c.bound > mu_target:
            done.append(c)
        elif c.hi - c.lo <= TOL.eps_geom:
            return done + stack + [c], True
        else:
            m = c.mid
            halves = [EeCell(a, b, c.n, c.chain, _ee_first_bound(first, c.chain, a, b))
                      for a, b in ((c.lo, m), (m, c.hi))]
            stack.extend(sorted(halves, key=lambda h: h.bound, reverse=True))
    return done, False


def check_ee_by_domain(p: IFSPair, h: HolePair, mu_target: float) -> ExpansionReport:
    """`axioms.check_ee` over the cells of `ee_cells_by_domain`."""
    pieces: list[tuple[EeCell, str]] = []
    tails: list[tuple[EeCell, str]] = []
    for which, hole in (("F", h.h_f), ("G", h.h_g)):
        cells, tail = ee_cells_by_domain(p, which, hole)
        pieces += [(c, which) for c in cells]
        if tail is not None:
            tails.append((tail, which))
    cover: list[tuple[EeCell, str]] = []
    failed = False
    for cell, which in sorted(pieces, key=lambda cw: cw[0].bound):
        if failed or cell.bound > mu_target:
            cover.append((cell, which))
            continue
        subs, failed = _ee_bisect(_oriented(p, which)[0], cell, mu_target)
        cover += [(c, which) for c in subs]
    cover += tails
    worst, branch = min(cover, key=lambda cw: cw[0].bound)
    enclosed = len(tails) == 2
    return ExpansionReport(worst.bound > mu_target > 1.0 and enclosed, worst.bound, mu_target,
                           len(cover), worst.mid, branch, enclosed)

# -- hole avoidance ----------------------------------------------------------------


@dataclass(frozen=True)
class HoleDisjointReport:
    depth: int
    orbit_size: int
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_text(self) -> str:
        return (f"hole_disjoint_depth: {self.depth}\n"
                f"hole_disjoint_orbit_size: {self.orbit_size}\n"
                f"hole_disjoint_violations: {self.violations}\n")


def verify_hole_disjoint(p: IFSPair, h: HolePair, depth: int) -> HoleDisjointReport:
    """Count orbit(0, depth) points strictly inside int(h_f ∪ h_g), margin
    eps_geom.  Hole invariance forces zero; a shifted hole is the negative
    control."""
    cloud = orbit(p, 0.0, depth)
    bad = 0
    for hole in (h.h_f, h.h_g):
        bad += int(_orbit_points_inside(cloud, hole.lo, hole.hi, TOL.eps_geom))
    return HoleDisjointReport(depth, cloud.size, bad)


# -- the construction's rescaling --------------------------------------------------


def phi_rescale(w_from: Interval, w_to: Interval, x: float) -> float:
    """The unique orientation-preserving affine map between two overlap
    regions, applied to a point."""
    if w_from.length <= 0 or w_to.length <= 0:
        raise DomainError("phi_rescale needs non-degenerate intervals")
    if not w_from.contains(x, slack=TOL.eps_newton):
        raise DomainError(f"{x} outside {w_from}")
    t = (x - w_from.lo) / w_from.length
    return w_to.lo + t * w_to.length


def phi_rescale_interval(w_from: Interval, w_to: Interval, iv: Interval) -> Interval:
    return Interval(phi_rescale(w_from, w_to, iv.lo), phi_rescale(w_from, w_to, iv.hi))


def grid_cells(cover: IntervalSet, resolution: float) -> tuple[int, list[Interval]]:
    """`grid_cells_meeting` with each meeting cell as an Interval."""
    n_grid, lo, hi = grid_cells_meeting(cover, resolution)
    return n_grid, [Interval(a, z) for a, z in zip(lo.tolist(), hi.tolist())]


# -- the appendix pair's second certifier ------------------------------------------


@dataclass(frozen=True)
class ComplementCertifyReport:
    resolution: float
    depth: int
    n_meeting: int
    n_certified: int
    n_skipped: int

    @property
    def all_certified(self) -> bool:
        return self.n_certified == self.n_meeting

    def to_text(self) -> str:
        return (f"complement_resolution: {self.resolution:.17g}\n"
                f"complement_depth: {self.depth}\n"
                f"complement_meeting: {self.n_meeting}\n"
                f"complement_certified: {self.n_certified}\n"
                f"complement_skipped: {self.n_skipped}\n")


def certify_cantor_by_complement(
    pair: IFSPair, params: AppendixParams, resolution: float, depth: int
) -> ComplementCertifyReport:
    """Gap certification for the appendix mechanism: every grid interval
    meeting the orbit cover contains a sub-interval in the complement of
    some Lambda_d, d <= depth, which is disjoint from the minimal set
    because K ⊂ Lambda_d for every d."""
    cover = minimal_set_cover(pair, depth, resolution)
    seq = lambda_sequence(pair, params, depth)
    n_grid, cells = grid_cells(cover, resolution)
    certified = 0
    for J in cells:
        jset = IntervalSet([J])
        for s in seq:
            gap = jset.difference(s)
            if not gap.is_empty() and float(np.max(gap.his - gap.los)) > 10 * TOL.eps_geom:
                certified += 1
                break
    return ComplementCertifyReport(resolution, depth, len(cells), certified, n_grid - len(cells))


# -- the gap walk, one window at a time --------------------------------------------


def middle_third(iv: Interval) -> Interval:
    third = iv.length / 3.0
    return Interval(iv.lo + third, iv.hi - third)


def _middle_third(comp: Interval | None) -> Interval | None:
    """The middle third of a piece of the current interval, if the piece is
    at least 3*eps_newton long."""
    if comp is None or comp.length < 3.0 * TOL.eps_newton:
        return None
    return middle_third(comp)


def _boundary_hits(J: Interval, b: tuple[float, ...]) -> tuple[float, ...]:
    """The boundary points strictly inside J, eps_geom away from both ends;
    `b` is sorted, so they are one slice of it."""
    eps = TOL.eps_geom
    return b[bisect_right(b, J.lo + eps):bisect_left(b, J.hi - eps)]


def _beside(lo: float, hi: float, p: IFSPair) -> tuple[bool, bool]:
    """(left, right): the window's midpoint lies left (right) of F1 ∪ G1 and
    the window reaches at most eps_geom into it, so the walk cannot start
    from it."""
    eps, mid = TOL.eps_geom, 0.5 * (lo + hi)
    return (hi <= p.f1.lo + eps and mid <= p.f1.lo), (lo >= p.g1.hi - eps and mid >= p.g1.hi)


def _orbit_points_inside(cloud: OrbitCloud, lo: float, hi: float, margin: float) -> int:
    """The orbit points strictly inside [lo + margin, hi - margin]: one slice
    of the sorted cloud."""
    pts = cloud.points
    return max(int(pts.searchsorted(hi - margin)) - int(pts.searchsorted(lo + margin, "right")), 0)


def _boundary_lemma(p: IFSPair, h: HolePair, r: RuinationRegions,
                    cur: Interval) -> tuple[list[TraceStep], Interval, TerminalReason] | None:
    """`gapfinder._boundary_lemma` of one window, as the scalar rule: the
    middle third of cur ∩ h_f, else of cur ∩ h_g; else of cur's widest piece
    in r_f ∩ r_g; else, for cur containing f^2(1) (then g^2(0)), of the
    widest such piece of its pull-back by f (g), which then contains f(1)
    (g(0)).  Returns (extra steps, U, reason) with U in the space after the
    extra steps, or None if no piece is usable (the walk then splits)."""
    for hole in (h.h_f, h.h_g):
        u = _middle_third(cur.intersection(hole))
        if u is not None:
            return [], u, TerminalReason.HOLE
    u = _middle_third(widest_piece_by_intersection(cur, r.rfrg))
    if u is not None:
        return [], u, TerminalReason.RUINATION_OVERLAP
    for corner, m, op in ((p.f1.lo, p.f, "invpow_f"), (p.g1.hi, p.g, "invpow_g")):
        if cur.lo < corner < cur.hi:
            # the corner lies strictly inside both cur and m's range
            ys = break_values(m)
            in_range = cur.intersection(Interval(ys[0], ys[-1]))
            pulled = Interval(m.inverse_eval(in_range.lo), m.inverse_eval(in_range.hi))
            u = _middle_third(widest_piece_by_intersection(pulled, r.rfrg))
            if u is not None:
                step = TraceStep(CaseTag.BOUNDARY_HIT, op, 1, pulled)
                return [step], u, TerminalReason.RUINATION_OVERLAP
    return None


def _split_at(cur: Interval, pts: Sequence[float]) -> Interval:
    """The longest piece of cur between consecutive cuts at pts, the first
    on a tie."""
    cuts = sorted([cur.lo] + [float(x) for x in pts] + [cur.hi])
    pieces = [Interval(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    return max(pieces, key=lambda iv: iv.length)


def locate_power_domain(p: IFSPair, j: Interval, which: Literal["f", "g"]) -> tuple[int, Interval]:
    """Smallest N >= 2 with F_N (resp. G_N) holding j's midpoint, by a scan
    from N = 2; returns (N, that domain)."""
    for n in range(2, 5000):
        dom = fundamental_domain(p, which, n)
        if dom.lo <= j.mid <= dom.hi:
            return n, dom
    raise ClassificationError(f"could not locate a fundamental domain for {j}")


def _check_core(J: Interval, p: IFSPair, mu: float) -> None:
    """The faults of a window the walk cannot start from."""
    if J.length < 10.0 * TOL.eps_geom:
        raise DomainError(f"input {J} shorter than 10*eps_geom")
    if any(_beside(J.lo, J.hi, p)):
        raise DomainError(f"{J} does not meet F1 ∪ G1; use find_gap")
    if mu <= 1.0:
        raise DomainError("find_gap_core needs mu > 1")


def enter_window(J: Interval, p: IFSPair, mu: float) -> tuple[TraceStep | None, Interval]:
    """`gapfinder._enter` of one window, as the loop that shrank it until
    it fit one domain: (the pull-back step or None, the window the walk
    starts from).  Each pass locates the domain by `locate_power_domain`
    and keeps the `_split_at` piece; the start is pulled back by an
    Interval per inversion and must pass `_check_core`."""
    left, right = _beside(J.lo, J.hi, p)
    if not (left or right):
        _check_core(J, p, mu)
        return None, J
    which: Literal["f", "g"]
    if left:
        which, op, fixed, away = "f", "invpow_f", 0.0, Interval(J.mid, J.hi)
    else:
        which, op, fixed, away = "g", "invpow_g", 1.0, Interval(J.lo, J.mid)
    near_fixed = abs(J.lo - fixed) < TOL.eps_geom or abs(J.hi - fixed) < TOL.eps_geom
    work = away if near_fixed else J
    for _ in range(200):
        n, domain = locate_power_domain(p, work, which)
        cuts = [c for c in (domain.lo, domain.hi) if work.lo < c < work.hi]
        if not cuts:
            break
        work = _split_at(work, cuts)
    else:
        raise ClassificationError(f"could not fit {J} inside one fundamental domain")
    m, start = (p.f if which == "f" else p.g), work
    for _ in range(n - 1):
        start = Interval(m.inverse_eval(start.lo), m.inverse_eval(start.hi))
    _check_core(start, p, mu)
    return TraceStep(CaseTag.PULLBACK_FN, op, n - 1, work), start


def classify_window(J: Interval, p: IFSPair, h: HolePair, r: RuinationRegions,
                    b: tuple[float, ...]) -> CaseTag:
    """`gapfinder.classify` of one window by the scalar predicates: Interval
    containment widened by eps_geom and `IntervalSet.part_containing`; a
    window that fits no case raises the walk's ClassificationError."""
    if J.length <= 0:
        raise DomainError("classify needs positive length")
    eps = TOL.eps_geom

    def in_part(s: IntervalSet) -> bool:
        part = s.part_containing(J.mid)
        return part is not None and part.contains_interval(J, -eps)

    if _boundary_hits(J, b):
        return CaseTag.BOUNDARY_HIT
    if any(_beside(J.lo, J.hi, p)):
        return CaseTag.PULLBACK_FN
    if h.h_f.contains_interval(J, -eps):
        return CaseTag.IN_HF
    if h.h_g.contains_interval(J, -eps):
        return CaseTag.IN_HG
    if p.overlap.contains_interval(J, -eps):
        for s, tag in ((r.rfrg, CaseTag.IN_W_OVERLAP), (r.r_f, CaseTag.IN_W_RF),
                       (r.r_g, CaseTag.IN_W_RG)):
            if in_part(s):
                return tag
        raise ClassificationError(f"{J} in W fits no ruination case (truncation too shallow?)")
    if p.f1_free.contains_interval(J, -eps):
        return CaseTag.IN_F1_FREE
    if p.g1_free.contains_interval(J, -eps):
        return CaseTag.IN_G1_FREE
    raise ClassificationError(f"{J} fits no case region")


def _pull_back_checked(p: IFSPair, steps: Sequence[TraceStep], u: Interval, window: Interval,
                       cloud: OrbitCloud | None, where: str) -> Interval:
    out = pull_back_by_intervals(p, steps, u)
    clipped = out.intersection(window)
    if clipped is None or clipped.length <= 0:
        raise CertificateError(f"pullback {out} escaped the input {window}")
    if clipped.lo <= 0.0 or clipped.hi >= 1.0:
        raise CertificateError(f"{where.format(clipped)} reaches the fixed point 0 or 1")
    bad = 0 if cloud is None else int(_orbit_points_inside(cloud, clipped.lo, clipped.hi,
                                                           TOL.eps_geom))
    if bad:
        raise CertificateError(f"{bad} orbit points inside {where.format(clipped)}")
    return clipped


def walk_window(J: Interval, p: IFSPair, h: HolePair, r: RuinationRegions,
                b: tuple[float, ...], mu: float, cloud: OrbitCloud | None) -> GapCertificate:
    """`gapfinder.find_gap_core` as the loop that walked one window at a
    time: per step `classify_window`, the scalar `_boundary_lemma`, a shrink at
    `induced_discontinuities` and one `induced_step`, and at the end a
    pull-back by Intervals, clipped to J and checked against the cloud."""
    _check_core(J, p, mu)
    bound = math.ceil(math.log(max(p.f1.length / J.length, 1.0)) / math.log(mu)) + 50
    steps: list[TraceStep] = []
    cur = J

    def finish(u: Interval, reason: TerminalReason) -> GapCertificate:
        out = _pull_back_checked(p, steps, u, J, cloud, "certified output {}")
        return GapCertificate(J, out, tuple(steps), reason, bound)

    for _ in range(bound):
        if cur.length < 3.0 * TOL.eps_newton:
            raise ClassificationError(f"interval collapsed to {cur} during walk")
        tag = classify_window(cur, p, h, r, b)
        if tag is CaseTag.BOUNDARY_HIT:
            got = _boundary_lemma(p, h, r, cur)
            if got is not None:
                extra, u, reason = got
                steps.extend(extra)
                return finish(u, reason)
            inside = cur.intersection(Interval(p.f1.lo, p.g1.hi))
            cur = _split_at(inside, _boundary_hits(cur, b))
            steps.append(TraceStep(tag, "shrink", 0, cur))
            continue
        if tag is CaseTag.IN_W_OVERLAP:
            steps.append(TraceStep(tag, "shrink", 0, cur))
            return finish(cur, TerminalReason.RUINATION_OVERLAP)
        if tag is CaseTag.PULLBACK_FN:
            raise ClassificationError(f"{cur} left F1 ∪ G1 mid-walk")
        which = "G" if tag in (CaseTag.IN_HG, CaseTag.IN_W_RF, CaseTag.IN_G1_FREE) else "F"
        in_hole = tag in (CaseTag.IN_HF, CaseTag.IN_HG)
        if not in_hole:
            window = Interval(cur.lo + TOL.eps_newton, cur.hi - TOL.eps_newton)
            sites = induced_discontinuities(p, which, window)
            if sites:
                cur = _split_at(cur, sites)
                steps.append(TraceStep(tag, "shrink", 0, cur))
        n, img = induced_step(p, which, cur)
        steps.append(TraceStep(tag, which, n, img))
        if in_hole:
            return finish(img, TerminalReason.HOLE)
        cur = img
    raise IterationCapError(
        f"gap walk exceeded its bound of {bound} steps; trace: "
        + " ".join(f"{s.tag.value}:{s.op}{s.n}" for s in steps))


def find_gap_by_windows(J: Interval, p: IFSPair, h: HolePair, r: RuinationRegions,
                        b: tuple[float, ...], mu: float,
                        cloud: OrbitCloud | None) -> GapCertificate:
    """`gapfinder.find_gap` around `walk_window`: a window beside F1 ∪ G1
    is pulled back by `enter_window`'s step, walked, and its output is
    pulled back through the step, clipped to J and checked again."""
    step, start = enter_window(J, p, mu)
    core = walk_window(start, p, h, r, b, mu, cloud)
    if step is None:
        return core
    out = _pull_back_checked(p, (step,), core.output, J, cloud, "pulled-back output")
    return GapCertificate(J, out, (step, *core.trace), core.terminal_reason, core.iteration_bound)


def certify_by_windows(p: IFSPair, h: HolePair, r: RuinationRegions, b: tuple[float, ...],
                       resolution: float, depth: int, mu: float,
                       verification_depth: int = 18) -> CertifyReport:
    """`gapfinder.certify_cantor` as the sweep that ran `find_gap_by_windows`
    on one grid cell after another."""
    if resolution > 0 and 1.0 / resolution > ORBIT_CAP:
        raise AssertionError("the oracle sweep takes grids within the orbit cap")
    cloud = orbit(p, 0.0, verification_depth)
    n_grid, cells = grid_cells(minimal_set_cover(p, depth, resolution), resolution)
    failures: list[tuple[float, float, str]] = []
    lengths, n_steps, bound_ok = [], [0], True
    for J in cells:
        try:
            cert = find_gap_by_windows(J, p, h, r, b, mu, cloud)
        except WALK_VERDICTS as e:
            failures.append((J.lo, J.hi, f"{type(e).__name__}: {e}"))
            bound_ok = bound_ok and not isinstance(e, IterationCapError)
            continue
        lengths.append(cert.output.length)
        n_steps.append(cert.n_steps)
    return CertifyReport(
        resolution=resolution, depth=depth, verification_depth=verification_depth,
        n_grid=n_grid, n_meeting=len(cells), n_certified=len(cells) - len(failures),
        n_failed=len(failures), n_skipped=n_grid - len(cells), failures=tuple(failures),
        min_gap_length=min(lengths, default=0.0), max_gap_length=max(lengths, default=0.0),
        max_trace_steps=max(n_steps), bound_respected=bound_ok)
