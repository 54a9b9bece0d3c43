import math
from types import SimpleNamespace

import numpy as np
import pytest

from cantorifs import gapfinder
from cantorifs.errors import (
    CertificateError, ClassificationError, DomainError, IterationCapError, RangeError,
    ResourceCapError, SpecError,
)
from cantorifs.intervals import TOL, Interval, IntervalSet, _inside
from cantorifs.ifs import (IFSPair, OrbitCloud, fundamental_domain, minimal_set_cover, orbit,
                           validate_class_a)
from cantorifs.maps import MapSpec, affine_spec
from cantorifs.gapfinder import (
    CASES,
    CaseTag,
    TerminalReason,
    TraceStep,
    _power_domains,
    _widest_pieces,
    certify_cantor,
    classify,
    find_gap,
    find_gap_core,
    pull_back,
    replay,
)
from cantorifs.axioms import HolePair

from oracles import (
    _boundary_hits,
    _boundary_lemma as scalar_boundary_lemma,
    certify_by_windows,
    enter_window,
    find_gap_by_windows,
    grid_cells,
    induced_step_two_pass,
    locate_power_domain,
    middle_third,
    pull_back_by_intervals,
    traced_peak,
    verify_hole_disjoint,
    widest_piece_by_intersection,
)

RNG = np.random.default_rng(777)


def _ctx(built_ctx):
    c = built_ctx
    return c["pair"], c["hole"], c["ruin"], c["bsets"], c["mu"]


def _case(J, pair, hole, ruin, bsets):
    """`classify` of the one window J, as its entry of CASES."""
    return CASES[classify(J.lo, J.hi, pair, hole, ruin, bsets)]


def _word(traces) -> np.ndarray:
    """`_undo_letters`' matrix for the step lists `traces`, a row each: the
    maps that undo a list's steps, last step first, as `pull_back` reads them."""
    steps = [s for trace in traces for s in trace]
    row = np.repeat(np.arange(len(traces)), [len(trace) for trace in traces])
    op = np.array([gapfinder._OPS.index(s.op) for s in steps], dtype=np.intp)
    return gapfinder._undo_letters(row, op, np.array([s.n for s in steps], dtype=np.intp),
                                   len(traces))


def _ends(windows) -> tuple[np.ndarray, np.ndarray]:
    """The windows' lo and hi, as `_enter` and `_walk` take them."""
    return np.array([J.lo for J in windows]), np.array([J.hi for J in windows])


def _pulled(pair, steps, iv: Interval) -> Interval:
    """`pull_back` of one interval through `steps`."""
    lo, hi = pull_back(pair, _word([steps]), [iv.lo], [iv.hi])
    return Interval(float(lo[0]), float(hi[0]))


# -- classification -----------------------------------------------------------


def test_classify_boundary_hit_at_f1(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    f1_hi = pair.f.eval(1.0)
    J = Interval(f1_hi - 1e-5, f1_hi + 1e-5)
    assert _case(J, pair, hole, ruin, bsets) is CaseTag.BOUNDARY_HIT


def test_boundary_hits_are_the_strict_eps_interior_points(built_ctx):
    """`classify` and the walk's split read one predicate: the points p
    with J.lo + eps < p < J.hi - eps.  Checked with interval ends exactly
    eps, and one ulp more or less, from each boundary point."""
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    eps, pts = TOL.eps_geom, bsets
    for pt in pts:
        los = [pt - eps, math.nextafter(pt - eps, -1.0), math.nextafter(pt - eps, 2.0), pt - 1e-3]
        his = [pt + eps, math.nextafter(pt + eps, -1.0), math.nextafter(pt + eps, 2.0), pt + 1e-3]
        for lo in los:
            for hi in his:
                J = Interval(lo, hi)
                expect = [p for p in pts if J.lo + eps < p < J.hi - eps]
                a, z = _inside(np.array(pts), J.lo, J.hi, eps)
                assert list(pts[a:z]) == list(_boundary_hits(J, bsets)) == expect
                if J.length > 0:
                    hit = _case(J, pair, hole, ruin, bsets) is CaseTag.BOUNDARY_HIT
                    assert hit == bool(expect)


def test_classify_inside_hole(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    assert _case(middle_third(hole.h_f), pair, hole, ruin, bsets) is CaseTag.IN_HF
    assert _case(middle_third(hole.h_g), pair, hole, ruin, bsets) is CaseTag.IN_HG


def test_classify_deep_domain_is_pullback(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    f3 = fundamental_domain(pair, "f", 3)
    J = Interval(f3.mid - 1e-6, f3.mid + 1e-6)
    assert _case(J, pair, hole, ruin, bsets) is CaseTag.PULLBACK_FN


def test_classify_free_regions(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    f1 = fundamental_domain(pair, "f", 1)
    J = Interval(f1.lo + 0.01, hole.h_f.lo - 0.01)
    assert _case(J, pair, hole, ruin, bsets) is CaseTag.IN_F1_FREE
    g1 = fundamental_domain(pair, "g", 1)
    J = Interval(hole.h_g.hi + 0.01, g1.hi - 0.01)
    assert _case(J, pair, hole, ruin, bsets) is CaseTag.IN_G1_FREE


def test_classify_w_overlap(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    rfrg = ruin.r_f.intersect(ruin.r_g)
    widest = max(rfrg.parts, key=lambda p: p.length)
    assert _case(middle_third(widest), pair, hole, ruin, bsets) is CaseTag.IN_W_OVERLAP


def test_classify_w_exclusive_sides(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    w = pair.overlap
    rfrg = ruin.r_f.intersect(ruin.r_g)
    found = {CaseTag.IN_W_RF: 0, CaseTag.IN_W_RG: 0}
    for fam, tag in ((ruin.r_f, CaseTag.IN_W_RF), (ruin.r_g, CaseTag.IN_W_RG)):
        only = fam.intersect(IntervalSet([w])).difference(rfrg)
        for part in only.parts:
            if part.length < 1e-7:
                continue
            got = _case(middle_third(part), pair, hole, ruin, bsets)
            if got is tag:
                found[tag] += 1
    assert found[CaseTag.IN_W_RF] > 0
    assert found[CaseTag.IN_W_RG] > 0


def test_classify_rejects_degenerate(built_ctx):
    pair, hole, ruin, bsets, _ = _ctx(built_ctx)
    with pytest.raises(DomainError):
        classify(0.3, 0.3, pair, hole, ruin, bsets)


# -- core terminal cases -------------------------------------------------------------


def test_core_hole_input_is_its_own_gap(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J = middle_third(hole.h_f)
    cert = find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    # already disjoint from K: the certified gap is J itself (up to the
    # inverse-evaluation roundtrip)
    assert cert.output.lo == pytest.approx(J.lo, abs=1e-12)
    assert cert.output.hi == pytest.approx(J.hi, abs=1e-12)
    assert cert.terminal_reason is TerminalReason.HOLE
    assert len(cert.trace) == 1 and cert.trace[0].op == "F"


def test_core_overlap_input_is_its_own_gap(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    rfrg = ruin.r_f.intersect(ruin.r_g)
    widest = max(rfrg.parts, key=lambda p: p.length)
    J = middle_third(widest)
    cert = find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert cert.output == J
    assert cert.terminal_reason is TerminalReason.RUINATION_OVERLAP


def test_core_rejects_tiny_input(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    with pytest.raises(DomainError):
        find_gap_core(Interval(0.3, 0.3 + 1e-10), pair, hole, ruin, bsets, mu=mu, cloud=None)


def test_core_walk_reaches_terminal_from_free_region(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f1 = fundamental_domain(pair, "f", 1)
    J = Interval(f1.lo + 0.013, f1.lo + 0.013 + 1e-4)
    cert = find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert cert.output.length > 0
    assert cert.output.lo >= J.lo - 1e-12 and cert.output.hi <= J.hi + 1e-12
    assert cert.n_steps <= cert.iteration_bound


# -- certificate soundness ------------------------------------------------------------


def test_certificates_on_random_intervals_verify_against_orbit(built_ctx, cloud18):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    from cantorifs.ifs import minimal_set_cover

    cover = minimal_set_cover(pair, 18, 1e-3)
    n_done = 0
    attempts = 0
    while n_done < 100 and attempts < 3000:
        attempts += 1
        lo = float(RNG.uniform(0.0, 1.0 - 1e-3))
        J = Interval(lo, lo + 1e-3)
        if not cover.intersect(IntervalSet([J])).measure() > 0:
            continue
        cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18)
        # verification already ran inside (cloud given); double-check here
        inside = np.sum((cloud18.points > cert.output.lo + 1e-9)
                        & (cloud18.points < cert.output.hi - 1e-9))
        assert inside == 0
        n_done += 1
    assert n_done == 100


def test_certificate_replay_lands_in_terminal_region(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    rfrg = ruin.r_f.intersect(ruin.r_g)
    targets = IntervalSet([hole.h_f, hole.h_g]).union(rfrg)
    f1 = fundamental_domain(pair, "f", 1)
    tested = 0
    for lo in np.linspace(f1.lo + 0.005, f1.hi - 0.02, 17):
        J = Interval(float(lo), float(lo) + 2e-4)
        cert = find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
        final = replay(pair, cert)
        part = targets.part_containing(final.mid)
        assert part is not None, f"replay of {J} ended at {final} off-target"
        assert part.lo - 1e-9 <= final.lo and final.hi <= part.hi + 1e-9
        tested += 1
    assert tested == 17


def test_walk_splits_at_a_boundary_point_no_lemma_case_takes(built_ctx, cloud18):
    """A boundary point inside F1's free part, away from the hole, meets none
    of `_boundary_lemma`'s cases: the walk splits J there and walks on with
    the larger side."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    x = (pair.f1.lo + hole.h_f.lo) / 2.0
    b = tuple(sorted(bsets + (x,)))
    J = Interval(x - 1e-4, x + 1e-4)
    cert = find_gap_core(J, pair, hole, ruin, b, mu=mu, cloud=cloud18)
    first = cert.trace[0]
    assert (first.tag, first.op) == (CaseTag.BOUNDARY_HIT, "shrink")
    assert first.interval in (Interval(J.lo, x), Interval(x, J.hi))
    assert J.lo <= cert.output.lo < cert.output.hi <= J.hi
    assert cert.terminal_reason is TerminalReason.HOLE
    final = replay(pair, cert)
    assert any(h.lo - 1e-9 <= final.lo and final.hi <= h.hi + 1e-9
               for h in (hole.h_f, hole.h_g)), f"replay ended at {final}, off the holes"


@pytest.mark.parametrize("corner", ["f(1)", "g(0)", "f^2(1)", "g^2(0)"])
def test_tight_windows_at_the_corner_points_certify(built_ctx, cloud18, corner):
    """Windows [e - a, e + b], at least 10*eps_geom long, around the points
    where the walk splits and pulls back.  The split keeps a piece inside
    F1 ∪ G1, so none of them leaves it mid-walk."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    e = {"f(1)": pair.overlap.hi, "g(0)": pair.overlap.lo,
         "f^2(1)": pair.f1.lo, "g^2(0)": pair.g1.hi}[corner]
    widths = (1.01e-9, 2e-9, 5e-9, 1.5e-8, 1e-7, 1e-6)
    windows = [J for a in widths for b in widths
               if (J := Interval(e - a, e + b)).length >= 10.0 * TOL.eps_geom]
    assert len(windows) > 25
    for J in windows:
        cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18)
        assert J.contains_interval(cert.output), J


def test_trace_growth_respects_expansion(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f1 = fundamental_domain(pair, "f", 1)
    grown = 0
    for lo in np.linspace(f1.lo + 0.004, f1.hi - 0.03, 11):
        J = Interval(float(lo), float(lo) + 1e-4)
        cert = find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
        cur = None
        for step in cert.trace:
            if step.op == "shrink":
                cur = step.interval
                continue
            if cur is not None and step.op in ("F", "G") and step is not cert.trace[-1]:
                assert step.interval.length >= mu * cur.length * (1 - 1e-9)
                grown += 1
            cur = step.interval
    assert grown > 0


def test_find_gap_determinism(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J = Interval(0.30, 0.301)
    c1 = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    c2 = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert c1 == c2


# -- pullback cases -----------------------------------------------------------------------


def test_pullback_from_f3(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f3 = fundamental_domain(pair, "f", 3)
    J = Interval(f3.mid - 1e-5, f3.mid + 1e-5)
    cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert cert.trace[0].tag is CaseTag.PULLBACK_FN
    assert cert.trace[0].op == "invpow_f" and cert.trace[0].n == 2  # N = 3
    assert J.contains_interval(cert.output)


@pytest.mark.parametrize("side", ["f", "g"])
def test_window_reaching_eps_into_f1_g1_is_pulled_back(built_ctx, cloud18, side):
    """A window that reaches less than eps_geom into F1 ∪ G1 is beside it
    for `classify`, `find_gap` and the walk's entry check alike: it is
    pulled back first, where the core walk once took it and failed on its
    first step.  One shorter than 10*eps_geom whose midpoint is inside
    F1 ∪ G1 stays the walk's input fault."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    if side == "f":
        J = Interval(pair.f1.lo - 1e-6, pair.f1.lo + 5e-10)
        tiny = Interval(pair.f1.lo - 1e-10, pair.f1.lo + 3e-10)
    else:
        J = Interval(pair.g1.hi - 5e-10, pair.g1.hi + 1e-6)
        tiny = Interval(pair.g1.hi - 3e-10, pair.g1.hi + 1e-10)
    with pytest.raises(DomainError, match="shorter than 10"):
        find_gap(tiny, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert _case(J, pair, hole, ruin, bsets) is CaseTag.PULLBACK_FN
    with pytest.raises(DomainError):
        find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18)
    first = cert.trace[0]
    assert (first.tag, first.op, first.n) == (CaseTag.PULLBACK_FN, f"invpow_{side}", 1)
    assert J.contains_interval(cert.output)


def test_locate_power_domain_matches_fundamental_domain(built_ctx):
    """The ladder lookup gives, for every midpoint at once, the domain that a
    scan from N = 2 finds first: on a tie at a shared end, the smaller N.
    A midpoint past F_2 (G_2) reads N = -1, where the scan finds none."""
    pair = built_ctx["pair"]
    for which in ("f", "g"):
        ends = [fundamental_domain(pair, which, n) for n in (2, 3, 7, 20)]
        dist = 2.0 ** -np.linspace(2.0, 40.0, 57)  # distance to the fixed point
        mids = list(dist) if which == "f" else list(1.0 - dist)
        mids += [x for d in ends for x in (d.lo, d.hi, d.mid)]
        n, lo, hi = _power_domains(pair, which, np.array(mids))
        for x, k, a, z in zip(mids, n.tolist(), lo.tolist(), hi.tolist()):
            assert (k, Interval(a, z)) == locate_power_domain(pair, Interval(x, x), which), x
        past = ends[0].hi if which == "f" else ends[0].lo
        assert _power_domains(pair, which, np.array([past]))[0].tolist() == [2]
        beyond = math.nextafter(past, 1.0 if which == "f" else 0.0)
        assert _power_domains(pair, which, np.array([beyond]))[0].tolist() == [-1]
        with pytest.raises(ClassificationError):
            locate_power_domain(pair, Interval(beyond, beyond), which)


def _entered(windows, pair, mu):
    """`gapfinder._enter` of the batch, as each window's (pull-back step or
    None, start) or verdict."""
    log, got, _, lo, hi = gapfinder._enter(*_ends(windows), pair, mu)
    rows = gapfinder._rows(log)
    steps = {c: TraceStep(CASES[t], gapfinder._OPS[o], n, Interval(a, z))
             for c, t, o, n, a, z in zip(*(x.tolist() for x in rows))}
    return [got[c] if c in got else (steps.get(c), Interval(float(lo[c]), float(hi[c])))
            for c in range(len(windows))]


def _entered_one_by_one(windows, pair, mu):
    """The oracle's `enter_window` of each window in turn, with its verdict
    kept and its fault raised, as the loop over windows did."""
    out = []
    for J in windows:
        try:
            out.append(enter_window(J, pair, mu))
        except gapfinder.WALK_VERDICTS as e:
            out.append(e)
    return out


def _at(x: float, h: float) -> Interval:
    """[x - h', x + h'] for the first h' >= h (in steps of 2^-40 h) whose
    ends are exact, so that the window's midpoint is x itself."""
    for k in range(64):
        d = h * (1.0 + k * 2.0 ** -40)
        if (x + d) - x == x - (x - d) == d:
            break
    J = Interval(x - d, x + d)
    assert J.mid == x
    return J


def test_batched_entry_matches_the_one_window_entry(built_ctx):
    """One batch of windows on both sides of F1 ∪ G1 enters as each window
    entered alone: windows whose midpoint is a rung f^n(1) or g^n(0), where
    two domains meet and the smaller N holds it; windows touching 0 or 1;
    windows across three or more domains; and windows meeting F1 ∪ G1.
    The windows [x - h, x + h] at the rung x = f^n(1) with x/2 < h < x end
    in F_n when the tie goes to the smaller N and in F_{n-1} otherwise."""
    pair, _, _, _, mu = _ctx(built_ctx)
    rungs_f = [fundamental_domain(pair, "f", n).lo for n in (2, 3, 5, 9)]
    rungs_g = [fundamental_domain(pair, "g", n).hi for n in (2, 3, 5, 9)]
    windows = [_at(x, h * x) for x in rungs_f for h in (1e-3, 0.6, 0.75, 0.9)]
    windows += [_at(y, h * (1.0 - y)) for y in rungs_g for h in (1e-3, 0.6, 0.75, 0.9)]
    windows += [Interval(0.0, 0.01), Interval(0.5 * TOL.eps_geom, 0.02), Interval(0.0, 0.2),
                Interval(0.99, 1.0), Interval(0.98, 1.0 - 0.5 * TOL.eps_geom), Interval(0.8, 1.0),
                Interval(0.01, 0.24), Interval(0.76, 0.99), Interval(0.001, 0.002),
                Interval(0.3, 0.31), Interval(pair.f1.lo - 1e-6, pair.f1.lo + 5e-10),
                Interval(pair.g1.hi - 5e-10, pair.g1.hi + 1e-6)]
    windows = windows[::2] + windows[1::2][::-1]  # left and right windows mixed
    got, want = _entered(windows, pair, mu), _entered_one_by_one(windows, pair, mu)
    for J, g, w in zip(windows, got, want):
        assert g == w, J
    ns = {(step.op, step.n) for step, _ in got if step is not None}
    assert {("invpow_f", 1), ("invpow_g", 1), ("invpow_f", 8), ("invpow_g", 8)} <= ns


@pytest.mark.parametrize("which", ["f", "g"])
def test_batched_entry_gives_a_rung_to_the_smaller_domain(built_ctx, which):
    """A window of one point at the rung where F_n meets F_{n+1} (G_n meets
    G_{n+1}) enters through F_n (G_n): its start, f^{-(n-1)} of the point,
    is the one the fault names."""
    pair, _, _, _, mu = _ctx(built_ctx)
    for n in (2, 3, 6):
        d = fundamental_domain(pair, which, n)
        x = d.lo if which == "f" else d.hi
        with pytest.raises(DomainError) as got:
            gapfinder._enter(np.array([x]), np.array([x]), pair, mu)
        with pytest.raises(DomainError) as want:
            enter_window(Interval(x, x), pair, mu)
        assert str(got.value) == str(want.value)
        start = x
        for _ in range(n - 1):
            start = (pair.f if which == "f" else pair.g).inverse_eval(start)
        assert str(got.value) == f"input {Interval(start, start)} shorter than 10*eps_geom"


def test_batched_entry_raises_the_first_windows_fault():
    """On a slow pair (slopes 0.9), a window at 1e-250 lies past F_4999 and
    is a verdict; a short window meeting F1 ∪ G1 or pulled back into it is a
    fault.  The batch keeps the verdict and raises the lowest-indexed
    window's fault, as the loop over windows did."""
    pair = validate_class_a(affine_spec(0.9, 0.0), affine_spec(0.9, 0.1)).as_pair()
    lost, walked = Interval(1e-250, 3e-250), Interval(0.1, 0.85)
    short_g, short_f = Interval(0.85, 0.85 + 1e-12), Interval(0.4, 0.4 + 1e-12)
    got, want = _entered([lost, walked], pair, 2.0), _entered_one_by_one([lost, walked], pair, 2.0)
    assert [str(g) for g in got] == [str(w) for w in want]
    assert isinstance(got[0], ClassificationError) and "could not locate" in str(got[0])
    for batch in ([lost, short_g, short_f], [lost, walked, short_f, short_g], [short_f, lost]):
        with pytest.raises(DomainError) as err:
            gapfinder._enter(*_ends(batch), pair, 2.0)
        with pytest.raises(DomainError) as one_by_one:
            _entered_one_by_one(batch, pair, 2.0)
        assert str(err.value) == str(one_by_one.value)
        assert "shorter than 10*eps_geom" in str(err.value)


def test_find_gap_identical_to_core_inside_f1(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f1 = fundamental_domain(pair, "f", 1)
    J = Interval(f1.lo + 0.02, f1.lo + 0.0205)
    assert find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None) == \
        find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)


def test_pullback_right_side_g_domains(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    g3 = fundamental_domain(pair, "g", 3)
    J = Interval(g3.mid - 1e-5, g3.mid + 1e-5)
    cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert cert.trace[0].op == "invpow_g"
    assert J.contains_interval(cert.output)


def test_pullback_checks_cloud_in_walk_space(built_ctx):
    # A point just inside the walk-space output of an F_3 input maps under
    # f^2 to within eps_geom of the final output's edge: only the check in
    # walk space sees it, and it must still reject the certificate.
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f3 = fundamental_domain(pair, "f", 3)
    J = Interval(f3.mid - 1e-5, f3.mid + 1e-5)
    cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    pullback = cert.trace[0]
    start = Interval(*(pair.f.inverse_eval(pair.f.inverse_eval(y))
                       for y in (pullback.interval.lo, pullback.interval.hi)))
    walk_out = find_gap_core(start, pair, hole, ruin, bsets, mu=mu, cloud=None).output
    eps = TOL.eps_geom
    x = walk_out.lo + 1.5 * eps
    y = pair.f.eval(pair.f.eval(x))
    assert walk_out.lo + eps < x < walk_out.hi - eps
    assert not cert.output.lo + eps < y < cert.output.hi - eps
    cloud = OrbitCloud(np.array([x]))
    with pytest.raises(CertificateError, match="certified output") as err:
        find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud)
    assert str(err.value) == f"1 orbit points inside certified output {walk_out}"
    # a point inside the final output but outside the walk-space one
    mid = cert.output.mid
    cloud = OrbitCloud(np.array([mid]))
    with pytest.raises(CertificateError) as err:
        find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud)
    assert str(err.value) == "1 orbit points inside pulled-back output"


ESCAPED = Interval(0.9, 0.95)  # off every window the escape tests pull back into


def _escape_on_call(monkeypatch, stage: int) -> None:
    """Make call number `stage` of `gapfinder.pull_back` (1 is the first)
    return ESCAPED for its one window; the others pull back as before."""
    calls = []
    plain = gapfinder.pull_back

    def escaping(p, words, lo, hi):
        calls.append(1)
        if len(calls) == stage:
            return np.array([ESCAPED.lo]), np.array([ESCAPED.hi])
        return plain(p, words, lo, hi)

    monkeypatch.setattr(gapfinder, "pull_back", escaping)


def test_core_refuses_an_output_that_escapes_its_window(built_ctx, monkeypatch):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J = Interval(0.30, 0.31)
    _escape_on_call(monkeypatch, 1)
    with pytest.raises(CertificateError) as err:
        find_gap_core(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    assert str(err.value) == f"pullback {ESCAPED} escaped the input {J}"


@pytest.mark.parametrize("stage", [1, 2])
def test_find_gap_refuses_an_output_that_escapes_either_window(built_ctx, monkeypatch, stage):
    """On an F_3 window, the walk's pull-back (call 1) must stay in the
    pulled-back window and the pull-back step's (call 2) in J."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    f3 = fundamental_domain(pair, "f", 3)
    J = Interval(f3.mid - 1e-5, f3.mid + 1e-5)
    first = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None).trace[0]
    start = gapfinder._apply_step_forward(pair, first, first.interval)
    _escape_on_call(monkeypatch, stage)
    with pytest.raises(CertificateError) as err:
        find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
    window = start if stage == 1 else J
    assert str(err.value) == f"pullback {ESCAPED} escaped the input {window}"


def test_gap_near_fixed_point_zero(built_ctx, cloud18):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J = Interval(0.0, 0.01)  # contains the fixed point 0 ∈ K
    cert = find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18)
    assert J.contains_interval(cert.output)


def test_hole_case_symmetry_on_precastration_pair(builder, built_report):
    """For the symmetric (uncastrated) pair, reflected hole inputs produce
    reflected certificates."""
    from cantorifs.axioms import find_hole, ruination_regions, boundary_sets

    alpha = built_report.alphas[built_report.n_final]
    pair0 = builder.pair_at(alpha).as_pair()
    hole0 = find_hole(pair0, builder.params.j_p)
    ruin0 = ruination_regions(pair0, hole0)
    b0 = boundary_sets(pair0, hole0, ruin0)
    J = middle_third(hole0.h_f)
    J_ref = Interval(1.0 - J.hi, 1.0 - J.lo)
    c1 = find_gap_core(J, pair0, hole0, ruin0, b0, mu=2.0, cloud=None)
    c2 = find_gap_core(J_ref, pair0, hole0, ruin0, b0, mu=2.0, cloud=None)
    assert c2.output.lo == pytest.approx(1.0 - c1.output.hi, abs=1e-9)
    assert c2.output.hi == pytest.approx(1.0 - c1.output.lo, abs=1e-9)


# -- hole avoidance -------------------------------------------------------------------------


def test_verify_hole_disjoint_zero_violations(built_ctx):
    rep = verify_hole_disjoint(built_ctx["pair"], built_ctx["hole"], depth=14)
    assert rep.ok and rep.violations == 0


def test_verify_hole_disjoint_depth_zero(built_ctx):
    rep = verify_hole_disjoint(built_ctx["pair"], built_ctx["hole"], depth=0)
    assert rep.violations == 0  # the seed 0 is outside F1


def test_shifted_hole_negative_control(built_ctx):
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    shift = 0.01
    fake = HolePair(
        Interval(hole.h_f.lo + shift, hole.h_f.hi + shift),
        Interval(hole.h_g.lo + shift, hole.h_g.hi + shift),
        0.0)
    rep = verify_hole_disjoint(pair, fake, depth=14)
    assert rep.violations > 0


# -- certification sweep -----------------------------------------------------------------------


def test_certify_cantor_small_sweep(built_ctx):
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    rep = certify_cantor(pair, hole, ruin, bsets, resolution=2e-2, depth=12,
                         mu=mu, verification_depth=14)
    assert rep.all_certified, rep.to_text()
    assert rep.n_skipped + rep.n_meeting == rep.n_grid
    assert rep.bound_respected


def test_certify_cantor_propagates_faults(built_ctx, monkeypatch):
    # a fault in the walk's round is a crash, not a certify_failure row
    import cantorifs.gapfinder as gapfinder

    def broken(*args, **kwargs):
        raise TypeError("broken walk")

    monkeypatch.setattr(gapfinder, "classify", broken)
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    with pytest.raises(TypeError, match="broken walk"):
        certify_cantor(pair, hole, ruin, bsets, resolution=0.1, depth=8,
                       mu=mu, verification_depth=10)


@pytest.mark.parametrize("verdict, respected", [
    (IterationCapError, False), (ClassificationError, True)])
def test_certify_cantor_bound_respected_reads_iteration_caps(built_ctx, monkeypatch,
                                                             verdict, respected):
    """`bound_respected` is False exactly when a cell's walk ran out of its
    iteration guard; any other walk verdict leaves it True."""
    enter = gapfinder._enter

    def stopped(w_lo, w_hi, p, mu):
        log, _, _, lo, hi = enter(w_lo, w_hi, p, mu)
        none = np.zeros(0, dtype=np.intp)
        return log, {c: verdict("injected") for c in range(w_lo.size)}, none, lo, hi

    # every window enters the walk through `_enter`, which gives its verdict
    monkeypatch.setattr(gapfinder, "_enter", stopped)
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    rep = certify_cantor(pair, hole, ruin, bsets, resolution=0.1, depth=8,
                         mu=mu, verification_depth=10)
    assert rep.n_failed == rep.n_meeting > 0
    assert rep.bound_respected is respected
    assert f"certify_bound_respected: {respected}" in rep.to_text()


def test_certify_cantor_propagates_library_faults(built_ctx, monkeypatch):
    # a library error that is no verdict on the cell (here a RangeError from
    # inverse_eval) propagates too
    def no_preimage(self, y):
        raise RangeError(f"no preimage of {y}")

    monkeypatch.setattr(MapSpec, "inverse_eval", no_preimage)
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    with pytest.raises(RangeError, match="no preimage"):
        certify_cantor(pair, hole, ruin, bsets, resolution=0.1, depth=8,
                       mu=mu, verification_depth=10)


@pytest.mark.parametrize("resolution, error", [
    (1e-9, ResourceCapError), (5e-324, ResourceCapError),
    (0.0, DomainError), (math.nan, DomainError)])
def test_certify_cantor_refuses_a_bad_resolution_before_the_grid(built_ctx, monkeypatch,
                                                                  resolution, error):
    """A grid past `ifs.ORBIT_CAP` cells is refused before it is built; 0
    and NaN are the cover's DomainError."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(gapfinder, "grid_cells_meeting", no_grid)
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    with pytest.raises(error):
        certify_cantor(pair, hole, ruin, bsets, resolution=resolution, depth=8,
                       mu=mu, verification_depth=10)


def test_certify_skips_cells_off_the_cover(built_ctx):
    # at fine resolution the hole itself leaves grid cells off the cover
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    rep = certify_cantor(pair, hole, ruin, bsets, resolution=1e-3, depth=10,
                         mu=mu, verification_depth=12)
    assert rep.n_skipped > 0
    assert rep.n_skipped + rep.n_meeting == rep.n_grid
    assert rep.all_certified, rep.to_text()


# -- the walk reads the pair's geometry without building sets -----------------------------


def test_walk_builds_no_interval_sets(built_ctx, monkeypatch):
    """`find_gap` over every cell of a sweep constructs no IntervalSet; the
    cover is built before counting starts."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    _, cells = grid_cells(minimal_set_cover(pair, 12, 1e-2), 1e-2)
    ruin.rfrg  # cached on first read, before counting starts
    built = []
    plain_init = IntervalSet.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(IntervalSet, "__init__", counted)
    reasons = {find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None).terminal_reason for J in cells}
    monkeypatch.undo()
    assert len(cells) > 50 and reasons == {TerminalReason.HOLE, TerminalReason.RUINATION_OVERLAP}
    assert built == []


def test_certify_reads_its_report_off_the_step_log(built_ctx, monkeypatch):
    """The sweep at 1e-3 builds no TraceStep or GapCertificate and never
    replays a step (`_apply_step_forward`): its pull-backs and report read
    the walk's step log.  It builds no Interval either, as it has no
    failure message to write."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    sweep = lambda: certify_cantor(pair, hole, ruin, bsets, resolution=1e-3, depth=14, mu=mu)
    want = sweep()  # caches filled

    def refused(*args, **kwargs):
        raise AssertionError("the sweep built a trace object")

    for name in ("TraceStep", "GapCertificate", "_apply_step_forward"):
        monkeypatch.setattr(gapfinder, name, refused)
    monkeypatch.setattr(Interval, "__init__", refused)
    got = sweep()
    monkeypatch.undo()
    assert got == want and got.all_certified and got.n_meeting > 900


def _widest_checks(s: IntervalSet, rng: np.random.Generator, n: int):
    """Windows over s: random ones, ones whose ends sit exactly on part ends
    (degenerate touching pieces) and ones over all of s."""
    lo, hi = float(s.los[0]), float(s.his[-1])
    ends = np.concatenate([s.los, s.his])
    for _ in range(n):
        a, b = sorted(rng.uniform(lo - 1e-3, hi + 1e-3, 2))
        yield Interval(float(a), float(b))
        a, b = sorted(rng.choice(ends, 2))
        yield Interval(float(a), float(b))
        e = float(rng.choice(ends))
        yield Interval(e, e)
        yield Interval(e, min(e + float(rng.uniform(0, 1e-2)), 1.0))
        yield Interval(max(e - float(rng.uniform(0, 1e-2)), 0.0), e)
    yield Interval(lo, hi)


def _widest(windows, s: IntervalSet) -> list[Interval | None]:
    """`_widest_pieces` of the windows as one batch; None for reversed or NaN
    ends, which `_thirds` refuses."""
    lo, hi = np.array([(j.lo, j.hi) for j in windows], dtype=float).reshape(-1, 2).T
    return [Interval(a, b) if a <= b else None
            for a, b in zip(*[x.tolist() for x in _widest_pieces(lo, hi, s)])]


def test_widest_pieces_match_the_intersection_rule(built_ctx):
    rng = np.random.default_rng(31)
    rfrg = built_ctx["ruin"].rfrg
    raw = np.sort(rng.uniform(0.0, 1.0, 60))
    rand = IntervalSet(los=raw[0::2], his=raw[1::2])
    # equal widths (dyadic, exact): the first of the tied pieces wins
    ties = IntervalSet([(0.125, 0.25), (0.5, 0.625), (0.75, 0.875)])
    checked = 0
    for s in (rfrg, rand, ties):
        windows = list(_widest_checks(s, rng, 200))
        assert _widest(windows, s) == [widest_piece_by_intersection(j, s) for j in windows], s
        checked += len(windows)
    assert _widest([Interval(0.0, 1.0), Interval(0.25, 0.5), Interval(0.3, 0.4)], ties) == [
        Interval(0.125, 0.25), Interval(0.25, 0.25), None]
    assert _widest([Interval(0.0, 1.0)], IntervalSet()) == [None]
    assert checked == 3 * 1001


def _lemma_by_window(lemma, j: int):
    """Window j of `gapfinder._boundary_lemma`'s arrays, in the scalar
    lemma's form: (extra steps, U, reason), or None."""
    took, u_lo, u_hi, b_lo, b_hi = [x.tolist() for x in lemma]
    if took[j] < 0:
        return None
    extra = [TraceStep(CaseTag.BOUNDARY_HIT, ("invpow_f", "invpow_g")[took[j] - 3], 1,
                       Interval(b_lo[j], b_hi[j]))] if took[j] >= 3 else []
    reason = TerminalReason.HOLE if took[j] < 2 else TerminalReason.RUINATION_OVERLAP
    return extra, Interval(u_lo[j], u_hi[j]), reason


def test_batched_boundary_lemma_matches_the_scalar_lemma(built_ctx):
    """One batch of edge windows against the oracle's scalar lemma, on the
    built pair with holes and an r_f ∩ r_g placed so that each piece is
    taken: both holes usable (h_f wins), an exact tie of two r_f ∩ r_g
    pieces (the first wins), a window touching a part (a zero-length
    piece), a window holding f^2(1) whose pull-back misses r_f ∩ r_g, and
    one holding both corners, whose pull-backs both meet it (f's wins).
    With maps whose inverses reverse the ends, a batch raises the scalar
    lemma's SpecError of its fault window, also after a window that ends,
    and f's corner's fault before that of g^2(0) in an earlier window."""
    pair = built_ctx["pair"]
    corner_f, corner_g = pair.f1.lo, pair.g1.hi
    h = SimpleNamespace(h_f=Interval(0.78, 0.79), h_g=Interval(0.81, 0.82))
    r = SimpleNamespace(rfrg=IntervalSet([(0.05, 0.1), (0.125, 0.15625), (0.1875, 0.21875),
                                          (0.9, 0.95)]))
    windows = [
        Interval(0.785, 0.8),                            # h_f
        Interval(0.785, 0.815),                          # h_f and h_g both usable
        Interval(0.8, 0.815),                            # h_g
        Interval(0.140625, 0.203125),                    # two r_f ∩ r_g pieces 1/64 wide
        Interval(0.21875, 0.23),                         # touches r_f ∩ r_g: splits
        Interval(corner_f - 0.01, pair.f.eval(0.92)),    # f^2(1); its pull-back meets (0.9, 0.95)
        Interval(corner_f - 1e-3, corner_f + 1e-3),      # f^2(1); its pull-back misses: splits
        Interval(pair.g.eval(0.08), corner_g + 0.01),    # g^2(0); its pull-back meets the rest
        Interval(corner_f - 0.01, corner_g + 0.01),      # both corners
    ]
    lo, hi = np.array([(J.lo, J.hi) for J in windows]).T
    lemma = gapfinder._boundary_lemma(pair, h, r, lo, hi)
    assert lemma[0].tolist() == [0, 0, 1, 2, -1, 3, -1, 4, 3]
    assert [_lemma_by_window(lemma, j) for j in range(len(windows))] == [
        scalar_boundary_lemma(pair, h, r, J) for J in windows]

    # image [0, 1]: the library reads `_image`, the oracle the segments
    flip = SimpleNamespace(_image=(0.0, 1.0), segments=affine_spec(1.0, 0.0).segments,
                           inverse_eval=lambda y: 1.0 - y, inverse_array=lambda ys: 1.0 - ys)
    reversing = SimpleNamespace(f1=pair.f1, g1=pair.g1, f=flip, g=flip)
    for batch, fault in (([0, 6], 6), ([7, 6], 6)):
        with pytest.raises(SpecError) as want:
            scalar_boundary_lemma(reversing, h, r, windows[fault])
        with pytest.raises(SpecError) as got:
            gapfinder._boundary_lemma(reversing, h, r, lo[batch], hi[batch])
        assert str(got.value) == str(want.value)


# -- one-pass steps and float pull-backs ------------------------------------------


@pytest.fixture(scope="module")
def sweep_1e3(built_ctx, cloud18):
    """The certificates of the certify sweep at resolution 1e-3 and every
    induced step its walks made: (branch, window, n, image) of each window
    of every `_invert_ends` call."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    _, cells = grid_cells(minimal_set_cover(pair, 14, 1e-3), 1e-3)
    steps = []
    record = gapfinder._invert_ends

    def recording(first, ret, n, lo, hi):
        out = record(first, ret, n, lo, hi)
        if first is ret:  # the entry's pull-back, not an induced step
            return out
        which = "F" if first is pair.f else "G"
        steps.extend((which, Interval(a, z), k, Interval(c, d)) for a, z, k, c, d
                     in zip(lo.tolist(), hi.tolist(), n.tolist(), out[0].tolist(), out[1].tolist()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapfinder, "_invert_ends", recording)
        certs = [find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18) for J in cells]
    return certs, steps


def test_walk_steps_match_two_passes(built_ctx, sweep_1e3):
    pair = built_ctx["pair"]
    certs, steps = sweep_1e3
    assert len(certs) == 998 and len(steps) > 3000
    assert len(steps) == sum(s.op in ("F", "G") for c in certs for s in c.trace)
    for which, iv, n, img in steps:
        want_n, want = induced_step_two_pass(pair, which, iv)
        assert (n, img.lo.hex(), img.hi.hex()) == (want_n, want.lo.hex(), want.hi.hex())


def test_pull_back_matches_interval_route(built_ctx, sweep_1e3):
    """Every prefix of every trace, by the letters `_undo_letters` builds for
    it, pulls the interval recorded after it back to the same floats as an
    Interval per map would."""
    pair = built_ctx["pair"]
    certs, _ = sweep_1e3
    prefixes = [(cert.trace[:k], s.interval) for cert in certs
                for k, s in enumerate(cert.trace, 1)]
    lo, hi = pull_back(pair, _word([steps for steps, _ in prefixes]),
                       [iv.lo for _, iv in prefixes], [iv.hi for _, iv in prefixes])
    for (steps, iv), a, z in zip(prefixes, lo.tolist(), hi.tolist()):
        want = pull_back_by_intervals(pair, steps, iv)
        assert (a.hex(), z.hex()) == (want.lo.hex(), want.hi.hex())
    assert {s.op for steps, _ in prefixes for s in steps} == {
        "F", "G", "shrink", "invpow_f", "invpow_g"}


def test_rows_are_the_step_logs_columns_in_the_order_taken():
    """`_rows` joins batches whose case and n are arrays or one value each,
    and empty batches, into six columns of one row per step: window, case,
    op and n of integers, lo and hi of floats.  The empty log has no rows."""
    g, empty = gapfinder, np.zeros(0)
    log = [(np.array([3, 1]), g._BESIDE, g._INVPOW_F, np.array([4, 2]), np.array([0.1, 0.2]),
            np.array([0.15, 0.25])),
           (np.zeros(0, dtype=np.intp), g._BESIDE, g._INVPOW_G, np.zeros(0, dtype=np.intp), empty,
            empty),
           (np.array([1]), np.array([g._HF]), g._F, 0, np.array([0.3]), np.array([0.4])),
           (np.array([0, 3, 1]), g._HIT, g._SHRINK, 0, np.array([0.5, 0.6, 0.7]),
            np.array([0.55, 0.65, 0.75])),
           (np.array([3, 0]), np.array([g._W_RG, g._F1_FREE]), g._G, np.array([5, 6]),
            np.array([0.8, 0.9]), np.array([0.85, 0.95]))]
    want = [[3, 1, 1, 0, 3, 1, 3, 0],
            [g._BESIDE] * 2 + [g._HF] + [g._HIT] * 3 + [g._W_RG, g._F1_FREE],
            [g._INVPOW_F] * 2 + [g._F] + [g._SHRINK] * 3 + [g._G] * 2,
            [4, 2, 0, 0, 0, 0, 5, 6],
            [0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9],
            [0.15, 0.25, 0.4, 0.55, 0.65, 0.75, 0.85, 0.95]]
    for rows, columns in ((g._rows(log), want), (g._rows([]), [[]] * 6)):
        assert [x.tolist() for x in rows] == columns
        assert [x.dtype.kind for x in rows] == ["i"] * 4 + ["f"] * 2


def test_pulled_back_windows_are_walked_by_the_core(built_ctx, cloud18, sweep_1e3):
    """On every window `find_gap` pulls back, its certificate is the core
    walk's on the pulled-back window: the same trace after the pull-back
    step, terminal reason and iteration bound, and the core's output pulled
    back through that step and clipped to the window."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    certs, _ = sweep_1e3
    pulled = [c for c in certs if c.trace and c.trace[0].tag is CaseTag.PULLBACK_FN]
    assert len(pulled) == 500
    # the windows of the pull-back tests above: beside f^2(1) and g^2(0),
    # reaching 5e-10 into F1 ∪ G1, inside F_3 and G_3, and at the fixed point 0
    f3, g3 = fundamental_domain(pair, "f", 3), fundamental_domain(pair, "g", 3)
    for J in (Interval(pair.f1.lo - 1e-6, pair.f1.lo + 5e-10),
              Interval(pair.g1.hi - 5e-10, pair.g1.hi + 1e-6),
              Interval(f3.mid - 1e-5, f3.mid + 1e-5), Interval(g3.mid - 1e-5, g3.mid + 1e-5),
              Interval(0.0, 0.01)):
        pulled.append(find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=cloud18))
        assert pulled[-1].trace[0].tag is CaseTag.PULLBACK_FN, J
    for cert in pulled:
        first = cert.trace[0]
        start = gapfinder._apply_step_forward(pair, first, first.interval)
        core = find_gap_core(start, pair, hole, ruin, bsets, mu=mu, cloud=cloud18)
        assert cert.trace[1:] == core.trace
        assert cert.terminal_reason is core.terminal_reason
        assert cert.iteration_bound == core.iteration_bound
        assert cert.output == _pulled(pair, cert.trace[:1], core.output).intersection(cert.input)


def test_step_forward_checks_every_map():
    """Carrying an interval forward inverts the maps that undo the step, with
    `pull_back`'s check: an inverse that reverses the ends raises, from
    inside a step, the SpecError an Interval would."""
    rising = SimpleNamespace(inverse_eval=lambda y: y)
    falling = SimpleNamespace(inverse_eval=lambda y: 1.0 - y)
    pair = IFSPair(rising, falling, Interval(0.4, 0.6))
    iv = Interval(0.1, 0.2)
    with pytest.raises(SpecError) as want:
        Interval(0.9, 0.8)
    for op, n in (("F", 2), ("G", 0), ("invpow_g", 1)):
        with pytest.raises(SpecError) as got:
            gapfinder._apply_step_forward(pair, TraceStep(CaseTag.IN_F1_FREE, op, n, iv), iv)
        assert str(got.value) == str(want.value)
    for op, n in (("F", 0), ("invpow_f", 3)):
        assert gapfinder._apply_step_forward(pair, TraceStep(CaseTag.IN_F1_FREE, op, n, iv), iv) == iv
    with pytest.raises(CertificateError, match="unknown op"):
        gapfinder._apply_step_forward(pair, TraceStep(CaseTag.IN_HF, "bogus", 0, iv), iv)


def test_pull_back_checks_every_map():
    """A map that reverses the ends raises, from inside a step, the
    SpecError an Interval would."""
    rising = SimpleNamespace(eval=lambda x: x, eval_array=lambda xs: xs)
    falling = SimpleNamespace(eval=lambda x: 1.0 - x, eval_array=lambda xs: 1.0 - xs)
    pair = IFSPair(rising, falling, Interval(0.4, 0.6))
    iv = Interval(0.1, 0.2)
    with pytest.raises(SpecError) as want:
        Interval(0.9, 0.8)
    for op, n in (("F", 2), ("G", 0), ("invpow_g", 1)):
        with pytest.raises(SpecError) as got:
            _pulled(pair, [TraceStep(CaseTag.IN_F1_FREE, op, n, iv)], iv)
        assert str(got.value) == str(want.value)
        # and the same with the interval among many, pulled back in arrays
        with pytest.raises(SpecError) as got:
            pull_back(pair, _word([[TraceStep(CaseTag.IN_F1_FREE, op, n, iv)]] * 9),
                      [iv.lo] * 9, [iv.hi] * 9)
        assert str(got.value) == str(want.value)
    assert _pulled(pair, [TraceStep(CaseTag.IN_F1_FREE, "F", 0, iv)], iv) == iv


# -- the lockstep walk against the walk of one window at a time ----------------------


@pytest.mark.parametrize("resolution", [2e-2, 1e-3, 1 / 1013], ids=["2e-2", "1e-3", "1/1013"])
def test_certify_equals_the_window_by_window_sweep(built_ctx, resolution):
    """The lockstep sweep reports what the sweep that walked one cell after
    another reports, field for field, failure rows included."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    got = certify_cantor(pair, hole, ruin, bsets, resolution=resolution, depth=14, mu=mu)
    assert got == certify_by_windows(pair, hole, ruin, bsets, resolution, 14, mu)
    assert got.n_certified > 40


def _outcome(fn):
    try:
        return fn()
    except gapfinder.WALK_VERDICTS as e:
        return f"{type(e).__name__}: {e}"


def test_a_mixed_batch_keeps_each_windows_outcome(built_ctx):
    """In a batch where some windows end in a verdict, each window gets the
    certificate or the failure string that its walk alone gets.  A cloud
    with a point in every fifth window's output refuses those windows, and
    some others whose output in the walk's space holds such a point."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    _, cells = grid_cells(minimal_set_cover(pair, 14, 1e-3), 1e-3)
    marked = [find_gap_by_windows(J, pair, hole, ruin, bsets, mu, None).output.mid
              for J in cells[::5]]
    cloud = OrbitCloud(np.array(sorted(marked)))
    walked = gapfinder._walk(pair, hole, ruin, bsets, mu, cloud, *_ends(cells))
    failed = set()
    for c, J in enumerate(cells):
        want = _outcome(lambda: find_gap_by_windows(J, pair, hole, ruin, bsets, mu, cloud))
        assert _outcome(lambda: gapfinder._certificate(walked, c, J)) == want, J
        if isinstance(want, str):
            failed.add(want.split(" inside ")[1][:6])
    assert failed == {"certif", "pulled"}
    assert len(marked) <= len(walked.verdicts) < len(cells)


# -- memory ---------------------------------------------------------------------------------


def test_find_gap_walks_in_little_memory(built_ctx):
    """One window's walk, on the windows of the gap_a and gap_b artifacts."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    for J in (Interval(0.30, 0.31), Interval(0.41, 0.4101)):
        find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)  # caches filled
        assert traced_peak(lambda: find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None)) < 2 ** 18


def test_certify_peak_is_its_verification_orbit(built_ctx):
    """The lockstep sweep at 1e-3 adds at most 1 MiB to the peak that its
    depth-18 verification orbit sets on its own: its arrays are sized by
    the cells, not by the cloud or the iteration caps."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    sweep = lambda: certify_cantor(pair, hole, ruin, bsets, resolution=1e-3, depth=14, mu=mu,
                                   verification_depth=18)
    sweep()  # caches filled
    assert traced_peak(sweep) <= traced_peak(lambda: orbit(pair, 0.0, 18)) + 2 ** 20


@pytest.mark.parametrize("forced", ["chain", "reversed", "range"])
def test_the_walks_per_window_fallbacks_give_the_same_report(built_ctx, monkeypatch, forced):
    """The branches that leave the arrays give what the arrays give: every
    n from `induced_n`'s inverse chain, and every inversion one window at a
    time when a batch's ends come out reversed or an inversion raises."""
    from cantorifs import axioms

    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    sweep = lambda: certify_cantor(pair, hole, ruin, bsets, resolution=2e-2, depth=14, mu=mu)
    want = sweep()
    calls = []
    if forced == "chain":
        chain = gapfinder.induced_n
        no_sites = lambda p, which, sites, mid: np.full(np.shape(mid), -1)
        monkeypatch.setattr(gapfinder, "_site_counts", no_sites)
        monkeypatch.setattr(axioms, "_site_counts", no_sites)
        monkeypatch.setattr(gapfinder, "induced_n", lambda *a: calls.append(a) or chain(*a))
    else:
        invert = gapfinder._invert_ends

        def failing(first, ret, n, lo, hi):  # a batch fails, one window does not
            if n.size == 1:
                calls.append(n)
                return invert(first, ret, n, lo, hi)
            if forced == "range":
                raise RangeError("forced")
            return hi, lo

        monkeypatch.setattr(gapfinder, "_invert_ends", failing)
    assert sweep() == want
    assert len(calls) >= 60  # every induced step of the sweep


# -- the round's verdicts and faults, forced for one window of a batch ----------------------


@pytest.fixture(scope="module")
def cells_2e2(built_ctx):
    """The 50 cells of the sweep at 2e-2; cell 20, [0.4, 0.42], meets F1 ∪ G1
    and its first step is an induced F step, taken without a shrink."""
    return grid_cells(minimal_set_cover(built_ctx["pair"], 14, 2e-2), 2e-2)[1]


def test_a_lone_window_is_tested_beside_f1_g1_once(built_ctx, cells_2e2, monkeypatch):
    """A window in F1 ∪ G1 is tested beside it (`_beside`) once at entry
    and once per round by `classify`; `find_gap_core` tests its J once
    before that.  `_core_faults` takes its caller's verdict."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    beside, classify_, calls = gapfinder._beside, gapfinder.classify, []
    monkeypatch.setattr(gapfinder, "_beside", lambda *a: calls.append("b") or beside(*a))
    monkeypatch.setattr(gapfinder, "classify", lambda *a: calls.append("r") or classify_(*a))
    rounds = []
    for J in cells_2e2:
        if any(beside(J.lo, J.hi, pair)):
            continue
        for walk, extra in ((find_gap, 1), (find_gap_core, 2)):
            calls.clear()
            walk(J, pair, hole, ruin, bsets, mu=mu, cloud=None)
            assert calls.count("b") == calls.count("r") + extra, J
        rounds.append(calls.count("r"))
    assert len(rounds) > 20 and max(rounds) > 2


def _force_step(monkeypatch, *windows: Interval, ends=None, error=None) -> None:
    """Wrap `_invert_checked` so that the induced step of each window that
    enters it as one of `windows` gives `ends` in place of its image (the
    ends it entered with, for `ends="kept"`), or the `error`."""
    invert = gapfinder._invert_checked

    def forced(first, ret, n, lo, hi, chain):
        i_lo, i_hi, errors = invert(first, ret, n, lo, hi, chain)
        for J in windows:
            for j in ((lo == J.lo) & (hi == J.hi)).nonzero()[0].tolist():
                if ends is not None:
                    i_lo[j], i_hi[j] = (lo[j], hi[j]) if ends == "kept" else ends
                if error is not None:
                    errors[j] = error
        return i_lo, i_hi, errors

    monkeypatch.setattr(gapfinder, "_invert_checked", forced)


def _batch_outcome(built_ctx, cells, target: int, b=None) -> str:
    """The walk of the whole batch: every window but `target` gets what
    `find_gap_by_windows` gives it alone; returns the target's outcome."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    b = bsets if b is None else b
    walked = gapfinder._walk(pair, hole, ruin, b, mu, None, *_ends(cells))
    for c, J in enumerate(cells):
        if c != target:
            want = _outcome(lambda: find_gap_by_windows(J, pair, hole, ruin, b, mu, None))
            assert _outcome(lambda: gapfinder._certificate(walked, c, J)) == want, J
    return _outcome(lambda: gapfinder._certificate(walked, target, cells[target]))


@pytest.mark.parametrize("forced", ["own ends", "sliver", "beside F1", "no case"])
def test_a_forced_step_gives_one_window_of_a_batch_its_round_verdict(built_ctx, cells_2e2,
                                                                      monkeypatch, forced):
    """A step that returns the window's own ends walks it until its guard
    runs out; a sliver collapses; ends left of F1 leave F1 ∪ G1; ends
    across g(0), with g(0) left out of the boundary points, fit no case."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J, b = cells_2e2[20], bsets
    first = find_gap_by_windows(J, pair, hole, ruin, bsets, mu, None).trace[0]
    assert (first.tag, first.op) == (CaseTag.IN_F1_FREE, "F")
    if forced == "own ends":
        ends = (J.lo, J.hi)
        bound = math.ceil(math.log(pair.f1.length / J.length) / math.log(mu)) + 50
        want = (f"IterationCapError: gap walk exceeded its bound of {bound} steps; trace: "
                + " ".join([f"IN_F1_FREE:F{first.n}"] * bound))
    elif forced == "sliver":
        ends = (J.mid, J.mid + TOL.eps_newton)
        want = f"ClassificationError: interval collapsed to {Interval(*ends)} during walk"
    elif forced == "beside F1":
        ends = (0.2, 0.21)
        assert ends[1] < pair.f1.lo == bsets[0]
        want = f"ClassificationError: {Interval(*ends)} left F1 ∪ G1 mid-walk"
    else:
        g0 = pair.overlap.lo
        b = tuple(x for x in bsets if x != g0)
        ends = (g0 - 1e-6, g0 + 5e-7)
        assert len(b) == len(bsets) - 1 and not any(ends[0] <= x <= ends[1] for x in b)
        want = f"ClassificationError: {Interval(*ends)} fits no case region"
    _force_step(monkeypatch, J, ends=ends)
    assert _batch_outcome(built_ctx, cells_2e2, 20, b) == want


@pytest.mark.parametrize("first", ["BOUNDARY_HIT", "PULLBACK_FN"])
def test_a_capped_walks_trace_lists_every_step(built_ctx, cells_2e2, monkeypatch, first):
    """A window that splits at a boundary point, or one that enters by a
    pull-back and shrinks at the jump sites, and whose induced step then
    returns the ends it was given walks until its guard runs out.  The
    verdict's trace lists every step of the walk, the shrink first, and
    not the entry's pull-back, which the walk starts after."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    if first == "BOUNDARY_HIT":
        x = (hole.h_g.hi + pair.g1.hi) / 2.0
        b = tuple(sorted(bsets + (x,)))
        windows, target = [Interval(0.28, 0.3), Interval(x - 1e-4, x + 1e-4)], 1
    else:
        b, windows, target = bsets, cells_2e2, 9
    cert = find_gap_by_windows(windows[target], pair, hole, ruin, b, mu, None)
    entry = [s for s in cert.trace if s.tag is CaseTag.PULLBACK_FN]
    shrink, step = cert.trace[len(entry):len(entry) + 2]
    assert [s.op for s in entry] == ([] if first == "BOUNDARY_HIT" else ["invpow_f"])
    assert (shrink.tag.value, shrink.op) == ((first, "shrink") if first == "BOUNDARY_HIT"
                                             else ("IN_F1_FREE", "shrink"))
    assert step.op in ("F", "G") and step.tag is not CaseTag.BOUNDARY_HIT
    _force_step(monkeypatch, shrink.interval, ends=(shrink.interval.lo, shrink.interval.hi))
    bound = cert.iteration_bound
    # a boundary hit's round takes no induced step; a site shrink's round takes one
    n_induced = bound - 1 if first == "BOUNDARY_HIT" else bound
    want = (f"IterationCapError: gap walk exceeded its bound of {bound} steps; trace: "
            + " ".join([f"{shrink.tag.value}:shrink0"]
                       + [f"{step.tag.value}:{step.op}{step.n}"] * n_induced))
    assert _batch_outcome(built_ctx, windows, target, b) == want


def test_two_capped_walks_of_one_batch_keep_their_own_traces(built_ctx, cells_2e2, monkeypatch):
    """Cells 9 and 20 of the 2e-2 sweep take their induced F steps in the
    same batches.  Forced to keep their ends, both run out of their guards
    in one walk, and each verdict's trace lists its own window's steps only,
    in the order taken, without cell 9's entry pull-back."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    cert9, cert20 = (find_gap_by_windows(cells_2e2[c], pair, hole, ruin, bsets, mu, None)
                     for c in (9, 20))
    (entry, shrink, step9), step20 = cert9.trace[:3], cert20.trace[0]
    assert [(s.tag.value, s.op) for s in (entry, shrink, step9, step20)] == [
        ("PULLBACK_FN", "invpow_f"), ("IN_F1_FREE", "shrink"), ("IN_F1_FREE", "F"),
        ("IN_F1_FREE", "F")]
    _force_step(monkeypatch, shrink.interval, cells_2e2[20], ends="kept")
    walked = gapfinder._walk(pair, hole, ruin, bsets, mu, None, *_ends(cells_2e2))
    want = [f"IterationCapError: gap walk exceeded its bound of {cert.iteration_bound} steps; "
            "trace: " + " ".join(steps + [f"IN_F1_FREE:F{step.n}"] * cert.iteration_bound)
            for cert, steps, step in ((cert9, ["IN_F1_FREE:shrink0"], step9),
                                      (cert20, [], step20))]
    assert cert9.iteration_bound != cert20.iteration_bound
    assert [_outcome(lambda c=c: gapfinder._certificate(walked, c, cells_2e2[c]))
            for c in (9, 20)] == want


def test_a_window_longer_than_f1_gets_the_least_guard(built_ctx):
    """The guard's ratio |F1| / |start| is clamped at 1: a window longer
    than F1 gets the guard 50, also one longer than mu·|F1|, where the
    unclamped formula would give 49."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    for J in (Interval(0.26, 0.55), Interval(0.2, 0.8)):
        assert J.length > pair.f1.length
        assert find_gap(J, pair, hole, ruin, bsets, mu=mu, cloud=None).iteration_bound == 50
        assert find_gap_by_windows(J, pair, hole, ruin, bsets, mu, None).iteration_bound == 50
    unclamped = math.log(pair.f1.length / 0.6) / math.log(mu)
    assert math.ceil(unclamped) + 50 == 49


@pytest.mark.parametrize("forced", ["chain verdict", "step verdict", "step fault"])
def test_a_step_error_of_one_window_is_its_verdict_or_the_batchs_fault(built_ctx, cells_2e2,
                                                                     monkeypatch, forced):
    """A verdict from `induced_n`'s chain, or from the step's inversion, ends
    that window alone; a fault from the inversion raises."""
    J = cells_2e2[20]
    if forced == "chain verdict":
        sites, chain = gapfinder._site_counts, gapfinder.induced_n

        def no_sites(p, which, s, mid):
            n = sites(p, which, s, mid)
            n[mid == J.mid] = -1
            return n

        def failing_chain(p, x, which):
            if x == J.mid:
                raise IterationCapError("forced chain")
            return chain(p, x, which)

        monkeypatch.setattr(gapfinder, "_site_counts", no_sites)
        monkeypatch.setattr(gapfinder, "induced_n", failing_chain)
        assert _batch_outcome(built_ctx, cells_2e2, 20) == "IterationCapError: forced chain"
    elif forced == "step verdict":
        _force_step(monkeypatch, J, error=IterationCapError("forced step"))
        assert _batch_outcome(built_ctx, cells_2e2, 20) == "IterationCapError: forced step"
    else:
        _force_step(monkeypatch, J, error=RangeError("forced fault"))
        with pytest.raises(RangeError, match="forced fault"):
            _batch_outcome(built_ctx, cells_2e2, 20)


def test_reversed_ends_of_a_lone_window_raise_its_spec_error(built_ctx, cells_2e2, monkeypatch):
    """Ends that come out reversed in the batch, and again when the window
    is inverted alone, are the SpecError an Interval raises."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J, invert, alone = cells_2e2[20], gapfinder._invert_ends, []

    def reversing(first, ret, n, lo, hi):
        i_lo, i_hi = invert(first, ret, n, lo, hi)
        k = (lo == J.lo) & (hi == J.hi)
        i_lo[k], i_hi[k] = i_hi[k], i_lo[k]
        if n.size == 1 and k[0]:
            alone.append((i_lo[0], i_hi[0]))
        return i_lo, i_hi

    monkeypatch.setattr(gapfinder, "_invert_ends", reversing)
    with pytest.raises(SpecError) as err:
        gapfinder._walk(pair, hole, ruin, bsets, mu, None, *_ends(cells_2e2))
    assert len(alone) == 1
    assert str(err.value) == f"interval needs lo <= hi, got [{alone[0][0]}, {alone[0][1]}]"


def test_a_window_no_domain_holds_is_a_verdict_at_entry(built_ctx, cells_2e2, monkeypatch):
    """When every domain read for a window beside F1 lies just right of its
    midpoint, 200 shrinks leave it unfitted; the other windows enter and
    walk as they do alone."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    J, domains = cells_2e2[8], gapfinder._power_domains
    assert find_gap_by_windows(J, pair, hole, ruin, bsets, mu, None).trace[0].op == "invpow_f"

    def off_the_midpoint(p, which, mid):
        n, d_lo, d_hi = domains(p, which, mid)
        k = (J.lo <= mid) & (mid <= J.hi)
        return n, np.where(k, mid + 1e-9, d_lo), np.where(k, mid + 2e-9, d_hi)

    monkeypatch.setattr(gapfinder, "_power_domains", off_the_midpoint)
    want = f"ClassificationError: could not fit {J} inside one fundamental domain"
    assert _batch_outcome(built_ctx, cells_2e2, 8) == want


def test_the_lower_numbered_windows_fault_raises(built_ctx, monkeypatch):
    """Window 0 takes an F step and window 1 splits at a boundary point in
    round 0; in round 1 both take a G step, and when both inversions fault,
    window 0's fault raises, whatever their order in the batch."""
    pair, hole, ruin, bsets, mu = _ctx(built_ctx)
    x = (hole.h_g.hi + pair.g1.hi) / 2.0
    b = tuple(sorted(bsets + (x,)))
    windows = [Interval(0.28, 0.3), Interval(x - 1e-4, x + 1e-4)]
    walked = gapfinder._walk(pair, hole, ruin, b, mu, None, *_ends(windows))
    traces = [gapfinder._certificate(walked, c, J).trace for c, J in enumerate(windows)]
    assert [(t[0].tag, t[0].op) for t in traces] == [(CaseTag.IN_F1_FREE, "F"),
                                                     (CaseTag.BOUNDARY_HIT, "shrink")]
    # each window's interval as its first G step reads it: the one recorded just before
    g_los = [t[[s.op for s in t].index("G") - 1].interval.lo for t in traces]
    invert, batches = gapfinder._invert_checked, []

    def faulting(first, ret, n, lo, hi, chain):
        i_lo, i_hi, errors = invert(first, ret, n, lo, hi, chain)
        if first is pair.g:
            batches.append(lo.tolist())
            errors = {j: RangeError(f"fault at {a!r}") for j, a in enumerate(lo.tolist())}
        return i_lo, i_hi, errors

    monkeypatch.setattr(gapfinder, "_invert_checked", faulting)
    with pytest.raises(RangeError) as err:
        gapfinder._walk(pair, hole, ruin, b, mu, None, *_ends(windows))
    assert [sorted(lo) for lo in batches] == [sorted(g_los)]
    assert str(err.value) == f"fault at {g_los[0]!r}"
