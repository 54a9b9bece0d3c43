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

All the windows of a sweep enter together (`_enter`) and walk together,
in rounds (`_walk`), each array operation repeating the scalar one element
by element, so the floats are those of a walk of one interval at a time;
`find_gap` walks its one window the same way.  Every step goes into one
log of arrays (`_rows`): the pull-backs read their maps off it as letters
(`_undo_letters`), the sweep's report its step counts, and only
`find_gap`'s caller gets a window's steps as TraceSteps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Literal, NamedTuple

import numpy as np

from .errors import (CertificateError, ClassificationError, DomainError, IterationCapError,
                     RangeError, ResourceCapError)
from .intervals import TOL, Interval, IntervalSet, _disorder, _inside, _ordered, grid_cells_meeting
from .ifs import ORBIT_CAP, IFSPair, OrbitCloud, minimal_set_cover, orbit
from .axioms import HolePair, RuinationRegions, _inverse_orbit, _oriented, _site_counts, induced_n
from .maps import _FEW, MapSpec

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


class TraceStep(NamedTuple):
    """One operation of the walk; a tuple, since a certificate makes one per step.

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

#: `classify` answers with an index into CASES: the window's CaseTag, or,
#: for a window that fits no case, the end of its ClassificationError.
#: Each induced branch's cases come first, its hole leading, so a branch is
#: a range of indexes.
CASES: tuple[CaseTag | str, ...] = (
    CaseTag.IN_HF, CaseTag.IN_W_RG, CaseTag.IN_F1_FREE,
    CaseTag.IN_HG, CaseTag.IN_W_RF, CaseTag.IN_G1_FREE,
    CaseTag.BOUNDARY_HIT, CaseTag.IN_W_OVERLAP, CaseTag.PULLBACK_FN,
    "in W fits no ruination case (truncation too shallow?)", "fits no case region")
(_HF, _W_RG, _F1_FREE, _HG, _W_RF, _G1_FREE, _HIT, _W_OVERLAP, _BESIDE, _NO_RUINATION,
 _NO_CASE) = range(len(CASES))
#: `classify`'s tests in order, by case: the first that applies wins.
_FIRST_CASE = np.array([_HIT, _BESIDE, _HF, _HG, _W_OVERLAP, _W_RF, _W_RG, _NO_RUINATION,
                        _F1_FREE, _G1_FREE, _NO_CASE])


class CaseRegions(NamedTuple):
    """What `classify` reads, built once per walk (`case_regions`): the
    pair; the ends of W, h_f, h_g, F1 free and G1 free, widened by
    eps_geom; the boundary points; and the parts of r_f ∩ r_g, r_f and r_g:
    each set's los (`starts`), and in `parts` the columns lo - eps_geom,
    hi and hi + eps_geom, set s's part i in column first[s] + 1 + i, each
    set's parts followed by a column at +inf, which holds no point."""

    p: IFSPair
    ends: np.ndarray
    pts: np.ndarray
    starts: tuple[np.ndarray, ...]
    first: tuple[int, ...]
    parts: np.ndarray


def case_regions(p: IFSPair, h: HolePair, r: RuinationRegions, b) -> CaseRegions:
    """The `CaseRegions` of a walk, `b` its sorted boundary points."""
    eps, sets = TOL.eps_geom, (r.rfrg, r.r_f, r.r_g)
    ends = [(iv.lo - eps, iv.hi + eps) for iv in (p.overlap, h.h_f, h.h_g, p.f1_free, p.g1_free)]
    los, his = (np.concatenate([x for s in sets for x in (getattr(s, e), [math.inf])])
                for e in ("los", "his"))
    n0, n1 = sets[0].n_parts, sets[1].n_parts
    return CaseRegions(p, np.array(ends).T, np.array(b, dtype=float), tuple(s.los for s in sets),
                       (-1, n0, n0 + n1 + 1), np.array([los - eps, his, his + eps]))


def _beside(lo, hi, p: IFSPair):
    """(left, right), for floats or arrays: the window's midpoint lies left
    (right) of F1 ∪ G1 and the window reaches at most eps_geom into it, so
    the walk cannot start from it."""
    eps, mid = TOL.eps_geom, 0.5 * (lo + hi)
    return (hi <= p.f1.lo + eps) & (mid <= p.f1.lo), (lo >= p.g1.hi - eps) & (mid >= p.g1.hi)


def classify(lo, hi, c: CaseRegions) -> np.ndarray:
    """The case of each window [lo, hi] of positive length, as an index
    into CASES (one numpy integer for floats), read off `c`.

    The first that applies: BOUNDARY_HIT when a boundary point lies in it
    as `_inside` reads them; PULLBACK_FN when `_beside` places it
    beside F1 ∪ G1; a hole; W, refined through the part of r_f ∩ r_g, r_f
    or r_g holding its midpoint, else no ruination case; a free region;
    else no case.  Each containment is widened by eps_geom.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    positive = hi - lo > 0  # NaN fails too; once checked, the row that always applies
    if np.count_nonzero(positive) < positive.size:
        raise DomainError("classify needs positive length")
    mid, (w_lo, w_hi) = 0.5 * (lo + hi), c.ends
    in_w, in_hf, in_hg, in_f1, in_g1 = ((w_lo <= lo[..., None]) & (hi[..., None] <= w_hi)).T
    parts = [in_w] * 3
    if np.count_nonzero(in_w):
        i = np.array([x.searchsorted(mid, side="right") + f for x, f in zip(c.starts, c.first)])
        part_lo, top, part_hi = c.parts[:, i]
        parts = in_w & (mid <= top) & (part_lo <= lo) & (hi <= part_hi)
    left, right = _beside(lo, hi, c.p)
    a, z = _inside(c.pts, lo, hi, TOL.eps_geom)
    rows = np.array([a < z, left | right, in_hf, in_hg, *parts, in_w, in_f1, in_g1, positive])
    return _FIRST_CASE[rows.argmax(axis=0)]


# ---------------------------------------------------------------------------
# Step application and replay
# ---------------------------------------------------------------------------

#: The maps that undo a step, by op: (the map applied n times, the map
#: applied once after them), each named "f" or "g".  F is x ->
#: g^{-n}(f^{-1}(x)), so y -> f(g^n(y)) undoes it.  The step log holds an
#: op as its index in _OPS, _LETTERS its two maps as bytes, 0 for none, and
#: _PER_N how many times each applies per n.
_UNDO = {"F": ("g", "f"), "G": ("f", "g"), "invpow_f": ("f", ""), "invpow_g": ("g", ""),
         "shrink": ("", "")}
_OPS = tuple(_UNDO)
_F, _G, _INVPOW_F, _INVPOW_G, _SHRINK = range(len(_OPS))
_LETTERS = np.array([[ord(m or "\0") for m in maps] for maps in _UNDO.values()], dtype=np.uint8)
_PER_N = (_LETTERS > 0).astype(np.intp)


def _undo_letters(row: np.ndarray, op: np.ndarray, n: np.ndarray, size: int) -> np.ndarray:
    """The letter matrix, `size` rows, of the words that undo the steps
    (op, n), given in the order taken, step k in row row[k]: a row is its
    steps' `_UNDO` words, last step first, padded with 0."""
    k = row.size - 1 - row[::-1].argsort(kind="stable")  # by row, each row's steps last first
    row, op = row[k], op[k]
    counts = _PER_N[op]
    counts[:, 0] *= n[k]
    length = np.bincount(row.repeat(2), counts.ravel(), size)
    out = np.zeros((size, int(length.max(initial=1))), dtype=np.uint8)
    out[np.arange(out.shape[1]) < length[:, None]] = _LETTERS[op].ravel().repeat(counts.ravel())
    return out


def _apply_step_forward(p: IFSPair, s: TraceStep, iv: Interval) -> Interval:
    """Carry `iv` forward through one step: the maps that undo it (`_UNDO`)
    are inverted, last first, on the two end floats, each pair checked by
    `_ordered`; a shrink step clips to its window."""
    if s.op == "shrink":
        inter = iv.intersection(s.interval)
        if inter is None:
            raise CertificateError("replay left the recorded shrink window")
        return inter
    if s.op not in _UNDO:
        raise CertificateError(f"unknown op {s.op!r}")
    repeated, once = _UNDO[s.op]
    lo, hi = iv.lo, iv.hi
    for name in reversed(repeated * s.n + once):
        m = p.f if name == "f" else p.g
        lo, hi = _ordered(m.inverse_eval(lo), m.inverse_eval(hi))
    return Interval(lo, hi)


def pull_back(p: IFSPair, letters: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Pull each interval [lo[k], hi[k]] back through the maps of row k of
    `_undo_letters`' matrix, applied in the row's order.

    The intervals move in lockstep, one letter per pass.  A pass evaluates
    the ends of all intervals whose letter is "f" in one `eval_array` call,
    which is `eval` bit for bit, and those whose letter is "g" in another,
    and then checks lo <= hi (`_disorder`).  A few intervals (`maps._FEW`)
    go through `eval` one map at a time instead, each step checked by
    `_ordered`: for one interval a pass costs more than its two maps."""
    if len(letters) <= _FEW:
        ends = []
        for word, a, z in zip(letters.tolist(), np.ravel(lo).tolist(), np.ravel(hi).tolist()):
            for m in [p.f if x == ord("f") else p.g for x in word if x]:
                a, z = _ordered(m.eval(a), m.eval(z))
            ends.append((a, z))
        return tuple(np.array(ends, dtype=float).reshape(-1, 2).T)
    ends = np.empty(2 * len(letters))
    ends[0::2], ends[1::2] = lo, hi
    for column in letters.repeat(2, axis=0).T:
        for name, m in ((b"f", p.f), (b"g", p.g)):
            k = (column == ord(name)).nonzero()[0]
            if k.size:
                ends[k] = m.eval_array(ends[k])
        if (e := _disorder(ends[0::2], ends[1::2])) is not None:
            raise e
    return ends[0::2], ends[1::2]


def replay(p: IFSPair, cert: GapCertificate) -> Interval:
    """Map the certificate's output forward along its trace; the result must
    land inside the terminal disjointness witness (asserted by tests)."""
    iv = cert.output
    for s in cert.trace:
        iv = _apply_step_forward(p, s, iv)
    return iv


# ---------------------------------------------------------------------------
# The pieces of a round
# ---------------------------------------------------------------------------


def _thirds(a: np.ndarray, z: np.ndarray):
    """(usable, lo, hi): the middle third of each piece [a, z] of a current
    interval, usable when the piece is at least 3*eps_newton long.  The
    middle third keeps the output comfortably interior, which is what
    stabilizes the verification margins."""
    third = (z - a) / 3.0
    return z - a >= 3.0 * TOL.eps_newton, a + third, z - third


def _widest_pieces(lo: np.ndarray, hi: np.ndarray, s: IntervalSet) -> tuple[np.ndarray, ...]:
    """The widest piece of each window [lo, hi] ∩ s, the first on a tie;
    reversed or NaN ends where there is none.  The parts meeting a window
    are one slice of s, padded to one row length by repeating its last
    part, which then never wins; only the slice's ends need clipping to the
    window, and the positive gaps between parts keep the pieces apart."""
    if s.is_empty():
        return np.full(lo.shape, math.nan), np.full(lo.shape, math.nan)
    a, z = s.his.searchsorted(lo), s.los.searchsorted(hi, side="right")
    k = np.minimum(a[:, None] + np.arange(max(int((z - a).max()), 1)), z[:, None] - 1)
    los, his = np.maximum(s.los[k], lo[:, None]), np.minimum(s.his[k], hi[:, None])
    w, rows = (his - los).argmax(axis=1), np.arange(lo.size)
    return los[rows, w], his[rows, w]


def _boundary_lemma(p: IFSPair, h: HolePair, r: RuinationRegions, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """The boundary lemma for each window [lo, hi] meeting a boundary point:
    the `_thirds` of the first usable of five pieces, each tried only by the
    windows no earlier one took: the window ∩ h_f, ∩ h_g, its widest piece
    in r_f ∩ r_g (`_widest_pieces`) and, for a window holding f^2(1) (then
    g^2(0)), that of its pull-back by f (g), which holds f(1) (g(0)).
    Reversed pull-back ends raise their `_disorder`, f's corner first.
    Returns (the piece taken, -1 to split; the thirds; the pull-back)."""
    took = np.full(lo.size, -1)
    out = np.full((4, lo.size), math.nan)  # the thirds' lo and hi, the pull-back's lo and hi

    def keep(piece: int, k: np.ndarray, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        ok, u_lo, u_hi = _thirds(a, z)
        t = k[ok]
        took[t], out[0, t], out[1, t] = piece, u_lo[ok], u_hi[ok]
        return k[~ok]

    k = np.arange(lo.size)
    for piece, hole in enumerate((h.h_f, h.h_g)):
        if k.size:
            k = keep(piece, k, np.maximum(lo[k], hole.lo), np.minimum(hi[k], hole.hi))
    if k.size:
        k = keep(2, k, *_widest_pieces(lo[k], hi[k], r.rfrg))
    for piece, corner, m in ((3, p.f1.lo, p.f), (4, p.g1.hi, p.g)):
        c = k[(lo[k] < corner) & (corner < hi[k])] if k.size else k
        if c.size:
            y_lo, y_hi = m._image
            b_lo, b_hi = m.inverse_array(np.stack([np.maximum(lo[c], y_lo),
                                                   np.minimum(hi[c], y_hi)], 1)).T
            if (e := _disorder(b_lo, b_hi)) is not None:
                raise e
            out[2, c], out[3, c] = b_lo, b_hi
            keep(piece, c, *_widest_pieces(b_lo, b_hi, r.rfrg))
            k = k[took[k] < 0]
    return took, *out


def _largest_pieces(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray, a: np.ndarray,
                    z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each window [lo, hi] cut at the points pts[a:z], sorted and none
    outside it: the longest piece between consecutive cuts, the first on a
    tie.  A row's cuts are padded with its hi; the empty pieces that adds,
    or a cut at an end, never win."""
    j = np.arange(int((z - a).max()))
    inner = np.where(j < (z - a)[:, None], pts[np.minimum(a[:, None] + j, pts.size - 1)],
                     hi[:, None])
    cuts = np.concatenate([lo[:, None], inner, hi[:, None]], axis=1)
    k = np.diff(cuts, axis=1).argmax(axis=1)
    rows = np.arange(lo.size)
    return cuts[rows, k], cuts[rows, k + 1]


def _invert_ends(first: MapSpec, ret: MapSpec, n: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each window's ends through first^{-1}, then through ret^{-1} n[k]
    times, every window at once; the caller checks lo <= hi.  Pass k
    inverts the ends of the windows with n >= k, so no end is inverted more
    than n + 1 times.  One window runs the same passes; `inverse_array`
    sends a few points through `inverse_eval`."""
    ends = np.empty(2 * n.size)
    ends[0::2], ends[1::2] = lo, hi
    ends = first.inverse_array(ends)
    more = n.repeat(2)
    for k in range(1, int(n.max(initial=0)) + 1):
        again = more >= k
        ends[again] = ret.inverse_array(ends[again])
    return ends[0::2], ends[1::2]


def _invert_checked(first: MapSpec, ret: MapSpec, n: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, chain) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """`_invert_ends` of the batch: the ends, and each window's error by
    position.  When an inversion fails or some ends come out reversed, each
    window runs alone: one whose inversion fails runs `chain(j)` first, whose
    error wins, and reversed ends get their `_disorder`, held, not raised."""
    try:
        i_lo, i_hi = _invert_ends(first, ret, n, lo, hi)
        if _disorder(i_lo, i_hi) is None:
            return i_lo, i_hi, {}
    except (RangeError, IterationCapError):
        i_lo, i_hi = np.empty_like(lo), np.empty_like(hi)
    errors = {}
    for j in range(n.size):
        try:
            try:
                (i_lo[j],), (i_hi[j],) = _invert_ends(first, ret, n[j:j + 1], lo[j:j + 1],
                                                      hi[j:j + 1])
            except (RangeError, IterationCapError):
                chain(j)
                raise
        except (RangeError, IterationCapError, DomainError) as e:
            errors[j] = e
        if j not in errors and (e := _disorder(i_lo[j], i_hi[j])) is not None:
            errors[j] = e
    return i_lo, i_hi, errors


def _pull_back_into(
    p: IFSPair, letters: np.ndarray, lo: np.ndarray, hi: np.ndarray, w_lo: np.ndarray,
    w_hi: np.ndarray, cloud: OrbitCloud | None, where: str,
) -> tuple[np.ndarray, np.ndarray, dict[int, CertificateError]]:
    """Pull each [lo[k], hi[k]] back through letters[k] and clip it to its
    window [w_lo[k], w_hi[k]] (`Interval.intersection`, the pulled-back end
    on a tie).  Returns the clipped ends and, by position, the refusal of
    each one that escapes its window, reaches the fixed point 0 or 1 (both
    in K) or holds orbit points; `where` names the result in that refusal,
    and its `{}`, if any, is filled with it."""
    o_lo, o_hi = pull_back(p, letters, lo, hi)
    c_lo = np.where(w_lo > o_lo, w_lo, o_lo)
    c_hi = np.where(w_hi < o_hi, w_hi, o_hi)
    escaped = ~(c_hi - c_lo > 0)
    refused = {k: CertificateError(
        f"pullback {Interval(o_lo[k], o_hi[k])} escaped the input {Interval(w_lo[k], w_hi[k])}"
        if escaped[k] else
        f"{where.format(Interval(c_lo[k], c_hi[k]))} reaches the fixed point 0 or 1")
        for k in (escaped | (c_lo <= 0.0) | (c_hi >= 1.0)).nonzero()[0].tolist()}
    if refused:
        escaped[list(refused)] = True
    if cloud is not None:
        a, z = _inside(cloud.points, c_lo, c_hi, TOL.eps_geom)
        bad = z - a  # the orbit points strictly inside, where positive
        for k in (~escaped & (bad > 0)).nonzero()[0].tolist():
            refused[k] = CertificateError(
                f"{bad[k]} orbit points inside {where.format(Interval(c_lo[k], c_hi[k]))}")
    return c_lo, c_hi, refused


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


#: A window's terminal reason, by the index into it that the walk holds.
_REASONS = (TerminalReason.HOLE, TerminalReason.RUINATION_OVERLAP)


class _Walked(NamedTuple):
    """A batch's walk, by window number: the output ends, the terminal
    reason (an index into _REASONS, -1 for a verdict), the iteration guard
    and the verdicts; and the step log's `_rows`."""

    lo: np.ndarray
    hi: np.ndarray
    reason: np.ndarray
    bound: np.ndarray
    verdicts: dict[int, Exception]
    rows: tuple[np.ndarray, ...]


#: A batch of no rows, which gives every column of `_rows` its dtype.
_NO_ROWS = (np.zeros(0, dtype=np.intp),) * 4 + (np.zeros(0),) * 2


def _rows(log: list[tuple]) -> tuple[np.ndarray, ...]:
    """The step log's columns window, case, op, n, lo and hi, a row per
    step in the order taken.

    The step log is a list of batches of rows, one batch per stage of a
    round, each window at most once in a batch.  A batch's window, lo and
    hi are arrays, and its case, op and n arrays or one value each."""
    log = [_NO_ROWS, *log]
    sizes = [len(b[0]) for b in log]
    return tuple(np.concatenate([x if isinstance(x, np.ndarray) else np.full(size, x)
                                 for x, size in zip(column, sizes)]) for column in zip(*log))


def _core_faults(lo: np.ndarray, hi: np.ndarray, beside: bool, mu: float) -> dict[int, DomainError]:
    """By position, the fault of each window the walk cannot start from:
    short, else beside F1 ∪ G1 as its caller found, else mu <= 1."""
    short = hi - lo < 10.0 * TOL.eps_geom
    return {k: DomainError(f"input {J} shorter than 10*eps_geom" if short[k] else
                           f"{J} does not meet F1 ∪ G1; use find_gap" if beside
                           else "find_gap_core needs mu > 1")
            for k in (short | beside | (mu <= 1.0)).nonzero()[0].tolist()
            for J in [Interval(float(lo[k]), float(hi[k]))]}


def _power_domains(p: IFSPair, which: Literal["f", "g"], mid: np.ndarray):
    """(N, lo, hi) of F_N (G_N) for each midpoint: the least N >= 2 whose
    domain holds it, so a tie goes to the smaller N, and N = -1 where no
    N < 5000 does.  The ladder f^n(1) falls (g^n(0) rises), so after it is
    grown past every midpoint one searchsorted reads N off it."""
    xs, s = p.ladder(which, 3), (-1.0 if which == "f" else 1.0)
    far = float((s * mid).max())
    while len(xs) < 5001 and s * xs[-1] < far:
        p.ladder(which, len(xs))
    ladder = np.array([*xs, math.nan])  # a NaN rung sorts last and holds no midpoint
    j = 3 + (s * ladder[3:]).searchsorted(s * mid)  # the first rung N + 1 at or past mid
    d_lo, d_hi = (ladder[j], ladder[j - 1]) if which == "f" else (ladder[j - 1], ladder[j])
    return np.where((d_lo <= mid) & (mid <= d_hi), j - 1, -1), d_lo, d_hi


def _enter(w_lo: np.ndarray, w_hi: np.ndarray, p: IFSPair, mu: float):
    """(the step log, the verdicts, the windows that start, and the starts'
    lo and hi), each by window number, for the windows [w_lo, w_hi].  A
    window meeting F1 ∪ G1 is its own start.  One beside it lies, after
    shrinking away from the fixed point, inside a single F_N or G_N, and is
    pulled back into F1 (G1) by f^{-(N-1)} (g^{-(N-1)}); the log's first
    rows are these PULLBACK_FN steps, each recording the window before the
    pull-back.  Each of up to 200 passes reads the domain of every window
    still unfitted (`live`) off the ladder (`_power_domains`) and keeps its
    `_largest_pieces` between the domain's ends.  Every start, none beside
    F1 ∪ G1 now, must pass `_core_faults`; the lowest-numbered fault raises."""
    lo, hi = np.array(w_lo, dtype=float), np.array(w_hi, dtype=float)
    a, z, n = lo.copy(), hi.copy(), np.zeros(lo.size, dtype=np.intp)
    log, got, faults = [], {}, {}
    left, right = _beside(lo, hi, p)  # left wins where F1 ∪ G1 leaves room for both
    for which, m, op, fixed, side in (("f", p.f, _INVPOW_F, 0.0, left),
                                      ("g", p.g, _INVPOW_G, 1.0, right & ~left)):
        live = side.nonzero()[0]
        if not live.size:
            continue
        # A window touching the fixed point keeps its half away from it.
        near = live[(abs(lo[live] - fixed) < TOL.eps_geom) | (abs(hi[live] - fixed) < TOL.eps_geom)]
        (a if which == "f" else z)[near] = 0.5 * (lo[near] + hi[near])
        for _ in range(200):
            N, d_lo, d_hi = _power_domains(p, which, 0.5 * (a[live] + z[live]))
            for c in live[N < 0].tolist():
                got[c] = ClassificationError(
                    f"could not locate a fundamental domain for {Interval(a[c], z[c])}")
            fit = (d_lo <= a[live]) & (z[live] <= d_hi)  # it holds the midpoint: no end inside
            n[live[fit]] = N[fit]
            # The domain's ends clipped to the window; a clipped end cuts an empty piece.
            ends = np.stack([np.maximum(d_lo, a[live]), np.minimum(d_hi, z[live])], 1)
            live, ends = live[~fit & (N >= 0)], ends[~fit & (N >= 0)].ravel()
            if not live.size:
                break
            r = 2 * np.arange(live.size)
            a[live], z[live] = _largest_pieces(a[live], z[live], ends, r, r + 2)
        for c in live.tolist():
            J = Interval(float(w_lo[c]), float(w_hi[c]))
            got[c] = ClassificationError(f"could not fit {J} inside one fundamental domain")
        k = (side & (n > 0)).nonzero()[0]
        lo[k], hi[k], errors = _invert_checked(m, m, n[k] - 2, a[k], z[k], lambda j: None)
        log.append((k, _BESIDE, op, n[k] - 1, a[k], z[k]))
        for j, e in errors.items():
            (got if isinstance(e, WALK_VERDICTS) else faults)[int(k[j])] = e
    stopped = [*got, *faults]
    live = np.setdiff1d(np.arange(lo.size), stopped) if stopped else np.arange(lo.size)
    faults.update((int(live[j]), e) for j, e in _core_faults(lo[live], hi[live], False, mu).items())
    if faults:
        raise faults[min(faults)]
    return log, got, live, lo, hi


def _walk(
    p: IFSPair, h: HolePair, r: RuinationRegions, b: tuple[float, ...], mu: float,
    cloud: OrbitCloud | None, w_lo: np.ndarray, w_hi: np.ndarray,
) -> _Walked:
    """Walk every window [w_lo[c], w_hi[c]] at once into a `_Walked`; the
    first fault met raises.

    Every window enters through `_enter`, and its iteration guard is
    ceil(log(max(|F1| / |start|, 1)) / log(mu)) + 50, since eventual
    expansion guarantees finiteness but gives no bound.  Each window's
    ends, guard and terminal reason are held by its number, and `live`
    lists the windows still walking, in ascending order.  What the rounds
    read of the pair (`case_regions`, the jump sites) is built once.  Each
    round moves every live window one step, writes its ends back in place
    and appends its steps to the log, a batch per stage:

    * past its guard it stops with IterationCapError, its trace read off
      the log's `_rows` after the rounds; shorter than 3*eps_newton, with
      ClassificationError;
    * one `classify` call gives every window its case;
    * the BOUNDARY_HITs take one `_boundary_lemma` call, and each ends in
      the piece it takes or is cut at its hits (all in F1 ∪ G1) and walks
      on with its largest piece inside F1 ∪ G1;
    * IN_W_OVERLAP ends at once; each case after it in CASES is a verdict;
    * the other cases take one step of their induced branch: outside a
      hole the window shrinks to its largest piece between the jump sites,
      n is read at its midpoint off the sites (`_site_counts`, or
      `induced_n`'s chain), and both ends are inverted n + 1 times
      (`_invert_checked`; one window at a time after a failure, each
      running its midpoint's chain first, as in two passes).  A hole case
      ends there.

    The windows that end are pulled back together (`_pull_back_into`), by
    one letter matrix read off the rows (`_undo_letters`): through the
    walk's steps into the start, where the cloud, if given, is checked;
    then, for a pulled-back window, through the entry step into the
    window, where it is checked again.  When several windows fault in one
    stage (the entry, one branch's inversions, one corner of the boundary
    lemma or one pull-back), the lowest-numbered one's fault raises.
    """
    log, got, live, s_lo, s_hi = _enter(w_lo, w_hi, p, mu)
    entered = sum(len(batch[0]) for batch in log)  # the log's first rows are the entry steps
    lo, hi = s_lo.copy(), s_hi.copy()
    guard = np.zeros(lo.size, dtype=np.intp)
    guard[live] = np.ceil(np.log(np.maximum(p.f1.length / (hi[live] - lo[live]), 1.0))
                          / math.log(mu)) + 50
    reason = np.full(lo.size, -1)  # once the window ends, its index into _REASONS
    regions = case_regions(p, h, r, b)
    pts = regions.pts
    sites = {which: _oriented(p, which)[4] for which in "FG"}

    rnd, capped = 0, []
    while live.size:
        l_lo, l_hi = lo[live], hi[live]
        out = (guard[live] <= rnd) | (l_hi - l_lo < 3.0 * TOL.eps_newton)
        if np.count_nonzero(out):
            for c in live[out].tolist():
                if guard[c] <= rnd:
                    capped.append(c)
                else:
                    got[c] = ClassificationError(
                        f"interval collapsed to {Interval(float(lo[c]), float(hi[c]))} during walk")
            live, l_lo, l_hi = live[~out], l_lo[~out], l_hi[~out]
        code = classify(l_lo, l_hi, regions)
        walks_on = np.zeros(lo.size, dtype=bool)
        # windows by code // 3: F's cases, G's, BOUNDARY_HIT to PULLBACK_FN, no case
        sizes = np.bincount(branch := code // 3, minlength=4).tolist()

        k = live[code == _HIT] if sizes[2] else live[:0]
        if k.size:
            took, t_lo, t_hi, b_lo, b_hi = _boundary_lemma(p, h, r, lo[k], hi[k])
            for piece, op in ((3, _INVPOW_F), (4, _INVPOW_G)):  # a pull-back by f or g
                j = (took == piece).nonzero()[0]
                if j.size:
                    log.append((k[j], _HIT, op, 1, b_lo[j], b_hi[j]))
            ends = took >= 0
            lo[k[ends]], hi[k[ends]] = t_lo[ends], t_hi[ends]
            reason[k[ends]] = took[ends] >= 2  # a piece in r_f ∩ r_g, not in a hole
            k = k[~ends]
            if k.size:
                a, z = _inside(pts, lo[k], hi[k], TOL.eps_geom)
                c_lo, c_hi = _largest_pieces(np.maximum(lo[k], p.f1.lo),
                                             np.minimum(hi[k], p.g1.hi), pts, a, z)
                lo[k], hi[k] = c_lo, c_hi
                log.append((k, _HIT, _SHRINK, 0, c_lo, c_hi))
                walks_on[k] = True
        if sizes[2] + sizes[3]:
            k = live[code == _W_OVERLAP]
            if k.size:
                log.append((k, _W_OVERLAP, _SHRINK, 0, lo[k], hi[k]))
                reason[k] = 1
            stops = code > _W_OVERLAP
            for c, case in zip(live[stops].tolist(), code[stops].tolist()):
                why = "left F1 ∪ G1 mid-walk" if case == _BESIDE else CASES[case]
                got[c] = ClassificationError(f"{Interval(float(lo[c]), float(hi[c]))} {why}")

        for which, hole, op, size in (("F", _HF, _F, sizes[0]), ("G", _HG, _G, sizes[1])):
            if not size:
                continue
            on = branch == hole // 3
            k, codes, k_lo, k_hi = live[on], code[on], l_lo[on], l_hi[on]
            a, z = _inside(sites[which], k_lo, k_hi, TOL.eps_newton)
            cut = (codes != hole) & (a < z)
            if np.count_nonzero(cut):
                c_lo, c_hi = _largest_pieces(k_lo[cut], k_hi[cut], sites[which], a[cut], z[cut])
                k_lo[cut], k_hi[cut] = c_lo, c_hi
                log.append((k[cut], codes[cut], _SHRINK, 0, c_lo, c_hi))
            # n at the midpoint off the sites, or from its chain where they cannot decide
            mid, failed = 0.5 * (k_lo + k_hi), {}
            n = _site_counts(p, which, sites[which], mid)
            for j in (n < 0).nonzero()[0].tolist():
                try:
                    n[j] = induced_n(p, float(mid[j]), which)
                except WALK_VERDICTS as e:
                    n[j], failed[j] = 0, e
            i_lo, i_hi, errors = _invert_checked(*_oriented(p, which)[:2], n, k_lo, k_hi,
                                                 lambda j: _inverse_orbit(p, which, float(mid[j])))
            for j, e in errors.items():  # a verdict is kept, the first fault raises
                if j not in failed:
                    if not isinstance(e, WALK_VERDICTS):
                        raise e
                    failed[j] = e
            if failed:
                got.update((int(k[j]), e) for j, e in failed.items())
                ok = np.ones(k.size, dtype=bool)
                ok[list(failed)] = False
                k, codes, n, i_lo, i_hi = k[ok], codes[ok], n[ok], i_lo[ok], i_hi[ok]
            lo[k], hi[k] = i_lo, i_hi
            log.append((k, codes, op, n, i_lo, i_hi))
            at_hole = codes == hole
            reason[k[at_hole]] = 0
            walks_on[k] = ~at_hole

        live = walks_on.nonzero()[0]
        rnd += 1

    rows = win, case, op, n, _, _ = _rows(log)
    for c in capped:  # its trace, the entry left out
        j = ((win == c) & (case != _BESIDE)).nonzero()[0]
        trace = "".join(f" {CASES[t].value}:{_OPS[o]}{m}"
                        for t, o, m in zip(case[j].tolist(), op[j].tolist(), n[j].tolist()))
        got[c] = IterationCapError(
            f"gap walk exceeded its bound of {guard[c]} steps; trace:{trace}")
    # One letter matrix: row i holds the walk's steps of ends[i], row m + i its entry step
    ends = (reason >= 0).nonzero()[0]
    j = (reason[win] >= 0).nonzero()[0]
    m = ends.size
    letters = _undo_letters(ends.searchsorted(win[j]) + m * (j < entered), op[j], n[j], 2 * m)
    stages = ((ends, 0, s_lo, s_hi, "certified output {}"),
              (np.sort(win[:entered]), m, w_lo, w_hi, "pulled-back output"))
    for k, row, b_lo, b_hi, where in stages:  # k ascending, for searchsorted
        k = k[reason[k] >= 0]
        if not k.size:
            continue
        lo[k], hi[k], refused = _pull_back_into(
            p, letters[row + ends.searchsorted(k)], lo[k], hi[k], b_lo[k], b_hi[k], cloud, where)
        if refused:
            got.update((int(k[j]), e) for j, e in refused.items())
            reason[k[list(refused)]] = -1
    return _Walked(lo, hi, reason, guard, got, rows)


def _certificate(walked: _Walked, c: int, J: Interval) -> GapCertificate:
    """The certificate of window c's walk, J, or its verdict raised."""
    if c in walked.verdicts:
        raise walked.verdicts[c]
    j = (walked.rows[0] == c).nonzero()[0]
    return GapCertificate(
        input=J, output=Interval(float(walked.lo[c]), float(walked.hi[c])),
        trace=tuple(TraceStep(CASES[t], _OPS[o], n, Interval(a, z))
                    for t, o, n, a, z in zip(*(x[j].tolist() for x in walked.rows[1:]))),
        terminal_reason=_REASONS[walked.reason[c]], iteration_bound=int(walked.bound[c]),
    )


def find_gap_core(
    J: Interval,
    p: IFSPair,
    h: HolePair,
    r: RuinationRegions,
    b: tuple[float, ...],
    mu: float,
    cloud: OrbitCloud | None,
) -> GapCertificate:
    """Run the case-driven induction for J meeting F1 ∪ G1: the rounds of
    `_walk` on J alone.  The terminal piece is pulled back through the
    walk's steps and clipped to J; unless `cloud` is None, the output is
    checked against it before returning.  The iteration guard is
    ceil(log(max(|F1| / |J|, 1)) / log(mu)) + 50, which turns
    non-termination into a diagnosable error.
    """
    if any(_beside(J.lo, J.hi, p)):  # refused, not pulled back; `_enter` checks the rest
        raise _core_faults(np.array([J.lo]), np.array([J.hi]), True, mu)[0]
    return _certificate(_walk(p, h, r, b, mu, cloud, np.array([J.lo]), np.array([J.hi])), 0, J)


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
    cloud: OrbitCloud | None,
) -> GapCertificate:
    """find_gap_core, preceded when J lies beside F1 ∪ G1 by `_enter`'s
    one-step pull-back into F1 (G1), which `_walk` runs itself.  The walk
    starts from the pulled-back window; its output is pulled back through
    the step, clipped to J and, unless `cloud` is None, checked a second
    time.  The trace is the pull-back step, then the walk's."""
    return _certificate(_walk(p, h, r, b, mu, cloud, np.array([J.lo]), np.array([J.hi])), 0, J)


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
    deep orbit cloud.  All the cells walk at once, in the rounds of `_walk`,
    and each gets the certificate or the verdict that `find_gap` gives it
    alone.  Verdicts are aggregated, not raised, in cell order;
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
    n_grid, lo, hi = grid_cells_meeting(cover, resolution)
    walked = _walk(p, h, r, b, mu, cloud, lo, hi)
    failures = tuple((float(lo[c]), float(hi[c]), f"{type(e).__name__}: {e}")
                     for c, e in sorted(walked.verdicts.items()))
    ok = walked.reason >= 0
    gaps = (walked.hi - walked.lo)[ok]
    win, _, op, *_ = walked.rows
    steps = np.bincount(win[op <= _G], minlength=lo.size)[ok]  # the F and G steps
    return CertifyReport(
        resolution=resolution, depth=depth, verification_depth=verification_depth,
        n_grid=n_grid, n_meeting=lo.size, n_certified=lo.size - len(failures),
        n_failed=len(failures), n_skipped=n_grid - lo.size, failures=failures,
        min_gap_length=float(gaps.min()) if gaps.size else 0.0,
        max_gap_length=float(gaps.max(initial=0.0)), max_trace_steps=int(steps.max(initial=0)),
        bound_respected=not any(isinstance(e, IterationCapError)
                                for e in walked.verdicts.values()),
    )
