"""Certified gap finding: given a small interval meeting the ambient region
of the minimal set, produce a sub-interval provably transported into a hole
or a ruination overlap, hence disjoint from the minimal set.

The walk applies the induced maps to the current interval, expanding it by
the certified factor mu each step, until it hits a terminal configuration:

* inside a hole            -> one induced application lands in the other hole;
* inside both ruination
  regions                  -> already disjoint from K;
* meets a boundary point   -> the boundary lemma's open sub-piece inside a
                              hole or r_f ∩ r_g, else a split inside F1 ∪ G1.

Soundness of every non-terminal step: if the current interval met the
minimal set, so would its image (backward-orbit lemma for the free regions,
the ruination dichotomy inside W).  Therefore a terminal interval disjoint
from K pulls back to a sub-interval of the input disjoint from K.

The induced maps are only piecewise continuous; where the iteration count
n(x) jumps inside the current interval, the walk shrinks to the largest
clean piece and records the shrink.  Restricting the interval is always
sound (any certified sub-interval of a sub-interval works).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Literal, Sequence

import numpy as np

from .errors import (CertificateError, ClassificationError, DomainError, IterationCapError,
                     ResourceCapError, SpecError)
from .intervals import TOL, Interval, IntervalSet, grid_cells_meeting
from .ifs import ORBIT_CAP, IFSPair, OrbitCloud, fundamental_domain, minimal_set_cover, orbit
from .axioms import (
    HolePair,
    RuinationRegions,
    induced_discontinuities,
    induced_step,
)
from .maps import MapSpec

#: The `find_gap` failures that are verdicts on a cell, reported as data by
#: `certify_cantor`; any other error is a fault and propagates.
WALK_VERDICTS = (ClassificationError, CertificateError, IterationCapError)


class CaseTag(str, Enum):
    BOUNDARY_HIT = "BOUNDARY_HIT"
    IN_HF = "IN_HF"
    IN_HG = "IN_HG"
    IN_W_RF = "IN_W_RF"
    IN_W_RG = "IN_W_RG"
    # Not in the five-way case split: the interval sits inside the interior
    # of r_f ∩ r_g, which is terminal outright (no orbit point can be there).
    IN_W_OVERLAP = "IN_W_OVERLAP"
    IN_F1_FREE = "IN_F1_FREE"
    IN_G1_FREE = "IN_G1_FREE"
    PULLBACK_FN = "PULLBACK_FN"


class TerminalReason(str, Enum):
    HOLE = "HOLE"
    RUINATION_OVERLAP = "RUINATION_OVERLAP"


@dataclass(frozen=True)
class TraceStep:
    """One operation of the walk.

    op encodes the applied forward map: "F"/"G" are the induced maps with the
    realized inverse count n; "invpow_f"/"invpow_g" are n-fold inverse
    applications (used by pullbacks); "shrink" restricts the interval and
    applies no map.  `interval` is the current interval after the step,
    except for the PULLBACK_FN step, which records the window before it is
    pulled back: the piece of the input that the walk starts from.
    """

    tag: CaseTag
    op: str
    n: int
    interval: Interval


@dataclass(frozen=True)
class GapCertificate:
    input: Interval
    output: Interval
    trace: tuple[TraceStep, ...]
    terminal_reason: TerminalReason
    iteration_bound: int

    @property
    def n_steps(self) -> int:
        return sum(1 for s in self.trace if s.op in ("F", "G"))


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------


def _in_part(j: Interval, s: IntervalSet) -> bool:
    """j lies in the part of s containing its midpoint, widened by eps_geom."""
    part = s.part_containing(j.mid)
    return part is not None and part.contains_interval(j, -TOL.eps_geom)


def _boundary_hits(J: Interval, b: tuple[float, ...]) -> tuple[float, ...]:
    """The boundary points strictly inside J, eps_geom away from both ends;
    `b` is sorted, so they are one slice of it."""
    eps = TOL.eps_geom
    return b[bisect_right(b, J.lo + eps):bisect_left(b, J.hi - eps)]


def _side_outside(J: Interval, p: IFSPair) -> Literal["f", "g"] | None:
    """"f" ("g") when J's midpoint lies left (right) of F1 ∪ G1 and J reaches
    at most eps_geom into it; None when the walk can start from J."""
    if J.hi <= p.f1.lo + TOL.eps_geom and J.mid <= p.f1.lo:
        return "f"
    return "g" if J.lo >= p.g1.hi - TOL.eps_geom and J.mid >= p.g1.hi else None


def classify(
    J: Interval, p: IFSPair, h: HolePair, r: RuinationRegions, b: tuple[float, ...]
) -> CaseTag:
    """Exactly one case tag for an interval of positive length.

    BOUNDARY_HIT when a boundary point lies strictly inside J; PULLBACK_FN
    when `_side_outside` places J beside F1 ∪ G1; else one of the five regions,
    with the W case refined through the ruination regions.
    """
    if J.length <= 0:
        raise DomainError("classify needs positive length")
    eps = TOL.eps_geom
    if _boundary_hits(J, b):
        return CaseTag.BOUNDARY_HIT
    if _side_outside(J, p):
        return CaseTag.PULLBACK_FN
    if h.h_f.contains_interval(J, -eps):
        return CaseTag.IN_HF
    if h.h_g.contains_interval(J, -eps):
        return CaseTag.IN_HG
    if p.overlap.contains_interval(J, -eps):
        if _in_part(J, r.rfrg):
            return CaseTag.IN_W_OVERLAP
        if _in_part(J, r.r_f):
            return CaseTag.IN_W_RF
        if _in_part(J, r.r_g):
            return CaseTag.IN_W_RG
        raise ClassificationError(
            f"{J} in W fits no ruination case (truncation too shallow?)")
    if p.f1_free.contains_interval(J, -eps):
        return CaseTag.IN_F1_FREE
    if p.g1_free.contains_interval(J, -eps):
        return CaseTag.IN_G1_FREE
    raise ClassificationError(f"{J} fits no case region")


# ---------------------------------------------------------------------------
# Step application and replay
# ---------------------------------------------------------------------------


def _backward_maps(p: IFSPair, s: TraceStep) -> list[MapSpec]:
    """The maps that undo one step, in the order they apply."""
    if s.op == "F":   # inverse of x -> g^{-n}(f^{-1}(x)) is y -> f(g^n(y))
        return [p.g] * s.n + [p.f]
    if s.op == "G":
        return [p.f] * s.n + [p.g]
    if s.op == "invpow_f":
        return [p.f] * s.n
    if s.op == "invpow_g":
        return [p.g] * s.n
    if s.op == "shrink":
        return []
    raise CertificateError(f"unknown op {s.op!r}")


def _apply_step_forward(p: IFSPair, s: TraceStep, iv: Interval) -> Interval:
    """Carry `iv` forward through one step: the maps that undo it
    (`_backward_maps`) are inverted, last first, on the two end floats, with
    the lo <= hi check of `pull_back`; a shrink step clips to its window."""
    if s.op == "shrink":
        inter = iv.intersection(s.interval)
        if inter is None:
            raise CertificateError("replay left the recorded shrink window")
        return inter
    lo, hi = iv.lo, iv.hi
    for m in reversed(_backward_maps(p, s)):
        lo, hi = m.inverse_eval(lo), m.inverse_eval(hi)
        if not lo <= hi:
            raise SpecError(f"interval needs lo <= hi, got [{lo}, {hi}]")
    return Interval(lo, hi)


def pull_back(p: IFSPair, steps: Sequence[TraceStep], iv: Interval) -> Interval:
    """Pull `iv`, in the space after `steps`, back to the space before them.

    The pull-back runs on the two end floats: each map that undoes a step
    costs one `eval` per end, and its result is checked lo <= hi with the
    SpecError an Interval would raise.  One Interval is built, at the end."""
    lo, hi = iv.lo, iv.hi
    for s in reversed(steps):
        for m in _backward_maps(p, s):
            lo, hi = m.eval(lo), m.eval(hi)
            if not lo <= hi:
                raise SpecError(f"interval needs lo <= hi, got [{lo}, {hi}]")
    return Interval(lo, hi)


def replay(p: IFSPair, cert: GapCertificate) -> Interval:
    """Map the certificate's output forward along its trace; the result must
    land inside the terminal disjointness witness (asserted by tests)."""
    iv = cert.output
    for s in cert.trace:
        iv = _apply_step_forward(p, s, iv)
    return iv


# ---------------------------------------------------------------------------
# The induction core
# ---------------------------------------------------------------------------


def _widest_component(j: Interval, s: IntervalSet) -> Interval | None:
    """The widest piece of j ∩ s (the first on a tie), or None.  The parts
    of s meeting j are one slice of it; only the slice's ends need clipping
    to j, and the positive gaps between parts keep the pieces apart."""
    a = int(np.searchsorted(s.his, j.lo, side="left"))
    z = int(np.searchsorted(s.los, j.hi, side="right"))
    if a >= z:
        return None
    los, his = s.los[a:z].copy(), s.his[a:z].copy()
    los[0], his[-1] = max(j.lo, los[0]), min(j.hi, his[-1])
    k = int(np.argmax(his - los))
    return Interval(float(los[k]), float(his[k]))


def _middle_third(comp: Interval | None) -> Interval | None:
    """Middle third of `comp` (a piece of the current interval), if at
    least 3*eps_newton long.

    The middle third keeps the output comfortably interior, which is what
    stabilizes the verification margins.
    """
    if comp is None or comp.length < 3.0 * TOL.eps_newton:
        return None
    return comp.middle_third()


def _boundary_lemma(
    p: IFSPair, h: HolePair, r: RuinationRegions, cur: Interval
) -> tuple[list[TraceStep], Interval, TerminalReason] | None:
    """The three sub-cases: meets a hole; meets the ruination overlap
    r_f ∩ r_g; contains f^2(1)/g^2(0), and its pull-back by f/g (which then
    contains f(1)/g(0)) meets the overlap.  Returns (extra steps, U, reason)
    with U in the space after the extra steps, or None if no usable open
    piece exists (the caller then splits and walks on)."""
    for hole in (h.h_f, h.h_g):
        u = _middle_third(cur.intersection(hole))
        if u is not None:
            return [], u, TerminalReason.HOLE
    u = _middle_third(_widest_component(cur, r.rfrg))
    if u is not None:
        return [], u, TerminalReason.RUINATION_OVERLAP
    for corner, m, op in ((p.f1.lo, p.f, "invpow_f"), (p.g1.hi, p.g, "invpow_g")):
        if cur.lo < corner < cur.hi:
            # the corner lies strictly inside both cur and m's range
            in_range = cur.intersection(Interval(m.y0, m.y1))
            pulled = Interval(m.inverse_eval(in_range.lo), m.inverse_eval(in_range.hi))
            u = _middle_third(_widest_component(pulled, r.rfrg))
            if u is not None:
                step = TraceStep(CaseTag.BOUNDARY_HIT, op, 1, pulled)
                return [step], u, TerminalReason.RUINATION_OVERLAP
    return None


def find_gap_core(
    J: Interval,
    p: IFSPair,
    h: HolePair,
    r: RuinationRegions,
    b: tuple[float, ...],
    mu: float,
    cloud: OrbitCloud | None = None,
) -> GapCertificate:
    """Run the case-driven induction for J meeting F1 ∪ G1.

    Each step classifies the current interval once.  An induced step
    (`induced_step`) reads n at the midpoint off the jump sites and inverts
    only the two ends, n + 1 times each.  A boundary hit ends in
    one of `_boundary_lemma`'s three sub-cases, or else splits at the hits
    and keeps the largest piece inside F1 ∪ G1.  The terminal piece is
    pulled back through the walk's steps and clipped to J; when `cloud` is
    given, the output is checked against it before returning.

    The iteration guard is ceil(log(|F1| / |J|) / log(mu)) + 50: eventual
    expansion guarantees finiteness but gives no bound, so the guard turns
    non-termination into a diagnosable error.
    """
    if J.length < 10.0 * TOL.eps_geom:
        raise DomainError(f"input {J} shorter than 10*eps_geom")
    if _side_outside(J, p):
        raise DomainError(f"{J} does not meet F1 ∪ G1; use find_gap")
    if mu <= 1.0:
        raise DomainError("find_gap_core needs mu > 1")
    bound = math.ceil(math.log(max(p.f1.length / J.length, 1.0)) / math.log(mu)) + 50

    steps: list[TraceStep] = []
    cur = J

    def finish(u: Interval, reason: TerminalReason) -> GapCertificate:
        out = _pull_back_into(p, steps, u, J, cloud, "certified output {}")
        return GapCertificate(
            input=J, output=out, trace=tuple(steps), terminal_reason=reason,
            iteration_bound=bound,
        )

    def shrink_to(piece: Interval, tag: CaseTag) -> None:
        nonlocal cur
        steps.append(TraceStep(tag, "shrink", 0, piece))
        cur = piece

    for _ in range(bound):
        if cur.length < 3.0 * TOL.eps_newton:
            raise ClassificationError(f"interval collapsed to {cur} during walk")
        tag = classify(cur, p, h, r, b)
        if tag is CaseTag.BOUNDARY_HIT:
            got = _boundary_lemma(p, h, r, cur)
            if got is not None:
                extra, u, reason = got
                steps.extend(extra)
                return finish(u, reason)
            # No usable open piece: split at the hits (all in F1 ∪ G1) and
            # walk on with the largest piece inside F1 ∪ G1.
            inside = cur.intersection(Interval(p.f1.lo, p.g1.hi))
            shrink_to(_split_at(inside, _boundary_hits(cur, b)), tag)
            continue
        if tag is CaseTag.IN_W_OVERLAP:
            steps.append(TraceStep(tag, "shrink", 0, cur))
            return finish(cur, TerminalReason.RUINATION_OVERLAP)
        if tag is CaseTag.PULLBACK_FN:
            raise ClassificationError(f"{cur} left F1 ∪ G1 mid-walk")

        which: Literal["F", "G"] = (
            "G" if tag in (CaseTag.IN_HG, CaseTag.IN_W_RF, CaseTag.IN_G1_FREE) else "F")
        in_hole = tag in (CaseTag.IN_HF, CaseTag.IN_HG)
        if not in_hole:
            window = Interval(cur.lo + TOL.eps_newton, cur.hi - TOL.eps_newton)
            sites = induced_discontinuities(p, which, window)
            if sites:
                shrink_to(_split_at(cur, sites), tag)
        n, img = induced_step(p, which, cur)
        steps.append(TraceStep(tag, which, n, img))
        if in_hole:
            return finish(img, TerminalReason.HOLE)
        cur = img

    raise IterationCapError(
        f"gap walk exceeded its bound of {bound} steps; trace: "
        + " ".join(f"{s.tag.value}:{s.op}{s.n}" for s in steps))


def _split_at(cur: Interval, pts: Sequence[float]) -> Interval:
    cuts = sorted([cur.lo] + [float(x) for x in pts] + [cur.hi])
    pieces = [Interval(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    return max(pieces, key=lambda iv: iv.length)


def _pull_back_into(
    p: IFSPair, steps: Sequence[TraceStep], u: Interval, window: Interval,
    cloud: OrbitCloud | None, where: str,
) -> Interval:
    """Pull `u` back through `steps` and clip it to `window`; refuse it when
    it escapes the window or when orbit points lie inside.  `where` names
    the result in that refusal, and its `{}`, if any, is filled with it."""
    out = pull_back(p, steps, u)
    clipped = out.intersection(window)
    if clipped is None or clipped.length <= 0:
        raise CertificateError(f"pullback {out} escaped the input {window}")
    bad = 0 if cloud is None else _orbit_points_inside(cloud, clipped, TOL.eps_geom)
    if bad:
        raise CertificateError(f"{bad} orbit points inside {where.format(clipped)}")
    return clipped


def _orbit_points_inside(cloud: OrbitCloud, iv: Interval, margin: float) -> int:
    lo = int(np.searchsorted(cloud.points, iv.lo + margin, side="right"))
    hi = int(np.searchsorted(cloud.points, iv.hi - margin, side="left"))
    return max(hi - lo, 0)


# ---------------------------------------------------------------------------
# Outer entry point: pull back into F1 ∪ G1 first if needed
# ---------------------------------------------------------------------------


def find_gap(
    J: Interval,
    p: IFSPair,
    h: HolePair,
    r: RuinationRegions,
    b: tuple[float, ...],
    mu: float,
    cloud: OrbitCloud | None = None,
) -> GapCertificate:
    """find_gap_core, preceded when necessary by the fundamental-domain
    pullback: an interval beside F1 ∪ G1 lies (after shrinking away from the
    fixed points) inside a single F_N or G_N and is pulled back into F1 (G1)
    by one step.  find_gap_core walks that pulled-back window; its output is
    pulled back through the step, clipped to J and, with a cloud, checked a
    second time.  The trace is the pull-back step, then the core's."""
    if (which := _side_outside(J, p)) is None:
        return find_gap_core(J, p, h, r, b, mu=mu, cloud=cloud)

    # The side fixes the map, its fixed point, and the half kept when the
    # input touches that fixed point.
    if which == "f":  # left side: inside some F_N, N >= 2
        op, fixed, away = "invpow_f", 0.0, Interval(J.mid, J.hi)
    else:             # right side: inside some G_N
        op, fixed, away = "invpow_g", 1.0, Interval(J.lo, J.mid)
    near_fixed = abs(J.lo - fixed) < TOL.eps_geom or abs(J.hi - fixed) < TOL.eps_geom
    work = away if near_fixed else J

    # Shrink (largest piece each time) until work sits inside a single F_N /
    # G_N; domains shrink geometrically toward the fixed point, so this
    # terminates quickly.
    for _ in range(200):
        n, domain = _locate_power_domain(p, work, which)
        cuts = [c for c in (domain.lo, domain.hi) if work.lo < c < work.hi]
        if not cuts:
            break
        work = _split_at(work, cuts)
    else:
        raise ClassificationError(f"could not fit {J} inside one fundamental domain")

    pullback = TraceStep(CaseTag.PULLBACK_FN, op, n - 1, work)
    start = _apply_step_forward(p, pullback, work)
    core = find_gap_core(start, p, h, r, b, mu=mu, cloud=cloud)
    out = _pull_back_into(p, (pullback,), core.output, J, cloud, "pulled-back output")
    return GapCertificate(
        input=J, output=out, trace=(pullback, *core.trace),
        terminal_reason=core.terminal_reason, iteration_bound=core.iteration_bound,
    )


def _locate_power_domain(p: IFSPair, j: Interval, which: Literal["f", "g"]) -> tuple[int, Interval]:
    """Smallest N >= 2 with F_N (resp. G_N) holding j's midpoint; returns
    (N, that domain)."""
    for n in range(2, 5000):
        dom = fundamental_domain(p, which, n)
        if dom.lo <= j.mid <= dom.hi:
            return n, dom
    raise ClassificationError(f"could not locate a fundamental domain for {j}")


# ---------------------------------------------------------------------------
# The certification sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyReport:
    resolution: float
    depth: int
    verification_depth: int
    n_grid: int
    n_meeting: int
    n_certified: int
    n_failed: int
    n_skipped: int
    failures: tuple[tuple[float, float, str], ...]
    min_gap_length: float
    max_gap_length: float
    max_trace_steps: int
    bound_respected: bool

    @property
    def all_certified(self) -> bool:
        return self.n_failed == 0

    def to_text(self) -> str:
        lines = [
            f"certify_resolution: {self.resolution:.17g}",
            f"certify_depth: {self.depth}",
            f"certify_verification_depth: {self.verification_depth}",
            f"certify_grid_intervals: {self.n_grid}",
            f"certify_meeting_cover: {self.n_meeting}",
            f"certify_certified: {self.n_certified}",
            f"certify_failed: {self.n_failed}",
            f"certify_skipped: {self.n_skipped}",
            f"certify_min_gap_length: {self.min_gap_length:.17g}",
            f"certify_max_gap_length: {self.max_gap_length:.17g}",
            f"certify_max_trace_steps: {self.max_trace_steps}",
            f"certify_bound_respected: {self.bound_respected}",
        ]
        for lo, hi, msg in self.failures:
            lines.append(f"certify_failure: [{lo:.17g}, {hi:.17g}] {msg}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        head = "n_grid,n_meeting,n_certified,n_failed,n_skipped,min_gap,max_gap,max_steps\n"
        return head + (f"{self.n_grid},{self.n_meeting},{self.n_certified},"
                       f"{self.n_failed},{self.n_skipped},{self.min_gap_length:.17g},"
                       f"{self.max_gap_length:.17g},{self.max_trace_steps}\n")


def certify_cantor(
    p: IFSPair,
    h: HolePair,
    r: RuinationRegions,
    b: tuple[float, ...],
    resolution: float,
    depth: int,
    mu: float,
    verification_depth: int = 18,
) -> CertifyReport:
    """Sweep a resolution grid over [0, 1]; for every grid interval meeting
    the minimal-set cover, find a certified gap and verify it against the
    deep orbit cloud.  Per-interval errors are aggregated, not raised;
    `bound_respected` reads False exactly when some cell's walk stopped
    with IterationCapError, an iteration guard that ran out.

    A successful sweep witnesses total disconnectedness at grid scale: every
    neighborhood of a sampled minimal-set point contains a certified gap.
    The verdict is "no witness at the verification depth", not a proof.
    A grid of more than `ifs.ORBIT_CAP` cells is a ResourceCapError before
    anything is built.
    """
    # In floats, so 1/r = inf is refused; 0 and NaN reach the cover's DomainError.
    if resolution > 0 and 1.0 / resolution > ORBIT_CAP:
        raise ResourceCapError(f"resolution {resolution!r} makes a grid of more than "
                               f"{ORBIT_CAP} cells")
    cover = minimal_set_cover(p, depth, resolution)
    cloud = orbit(p, 0.0, verification_depth)
    n_grid, cells = grid_cells_meeting(cover, resolution)
    failures: list[tuple[float, float, str]] = []
    min_gap, max_gap, max_steps = math.inf, 0.0, 0
    bound_ok = True
    for J in cells:
        try:
            cert = find_gap(J, p, h, r, b, mu=mu, cloud=cloud)
        except WALK_VERDICTS as e:  # aggregate verdicts; faults propagate
            failures.append((J.lo, J.hi, f"{type(e).__name__}: {e}"))
            bound_ok = bound_ok and not isinstance(e, IterationCapError)
            continue
        min_gap = min(min_gap, cert.output.length)
        max_gap = max(max_gap, cert.output.length)
        max_steps = max(max_steps, cert.n_steps)
    return CertifyReport(
        resolution=resolution, depth=depth, verification_depth=verification_depth,
        n_grid=n_grid, n_meeting=len(cells), n_certified=len(cells) - len(failures),
        n_failed=len(failures), n_skipped=n_grid - len(cells), failures=tuple(failures),
        min_gap_length=0.0 if math.isinf(min_gap) else min_gap,
        max_gap_length=max_gap, max_trace_steps=max_steps,
        bound_respected=bound_ok,
    )
