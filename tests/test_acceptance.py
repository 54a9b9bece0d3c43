"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured quantities once its assertions hold."""

import time
from itertools import islice, takewhile

import numpy as np
import pytest

from cantorifs.intervals import Interval, IntervalSet
from cantorifs.maps import symmetry_residual
from cantorifs.ifs import (
    fundamental_domain,
    minimal_set_cover,
    orbit,
    validate_class_a,
)
from cantorifs.axioms import (
    HolePair,
    induced_deriv,
    induced_discontinuities,
    induced_n,
)
from cantorifs.gapfinder import certify_cantor
from cantorifs.construct import (
    AppendixParams,
    appendix_pair,
    bump_modify,
    check_measure_bound,
    ConstructionParams,
)

from oracles import (
    cloud_contains,
    dilate,
    hausdorff_distance,
    induced_map,
    middle_third,
    min_distance,
    orbit_bruteforce,
    phi_rescale_interval,
    ruination_family,
    ruination_gridscan,
    verify_hole_disjoint,
)

RNG = np.random.default_rng(20260810)


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_acceptance_1_appendix_measure_bound(appendix):
    pair, params = appendix
    assert params.eps == 0.01 and params.lam == 0.45
    rep = check_measure_bound(pair, params, n_max=20)
    assert rep.ok, "mu(Lambda_n) <= (2 lam)^n violated"
    assert rep.ratio_ok, "per-step ratio above 2 lam"
    mu10 = rep.rows[10][1]
    assert mu10 <= 0.34868
    _report("1 appendix measure bound",
            f"mu(L_10) = {mu10:.6f} <= 0.34868; all n <= 20 within (0.9)^n")


def test_acceptance_2_construction_pipeline(built, built_report):
    t0 = time.time()
    from cantorifs.construct import build_class_c_example

    pair, report, _ = build_class_c_example()
    elapsed = time.time() - t0
    assert elapsed <= 300.0, f"pipeline took {elapsed:.1f}s"
    assert validate_class_a(pair.f, pair.g).ok
    ax = report.axioms
    assert ax.so.ok and ax.so.margin_left >= 1e-9 and ax.so.margin_right >= 1e-9
    assert ax.hole is not None and ax.hole.swap_residual <= 1e-9
    assert ax.ee.ok and ax.ee.mu > 1.0
    assert ax.ca.ok and ax.ca.min_margin >= 1e-9
    _report("2 construction pipeline",
            f"n = {report.n_final}, mu = {ax.ee.mu:.4f}, "
            f"ca margin = {ax.ca.min_margin:.3g}, {elapsed:.1f}s")


def test_acceptance_3_hole_invariance_and_avoidance(built_ctx, cloud18):
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    img = pair.f.image_of(pair.g.image_of(hole.h_f))
    res = max(abs(img.lo - hole.h_f.lo), abs(img.hi - hole.h_f.hi))
    assert res <= 1e-9

    rep = verify_hole_disjoint(pair, hole, depth=18)
    assert rep.violations == 0

    shifted = HolePair(
        Interval(hole.h_f.lo + 0.01, hole.h_f.hi + 0.01),
        Interval(hole.h_g.lo + 0.01, hole.h_g.hi + 0.01), 0.0)
    bad = verify_hole_disjoint(pair, shifted, depth=18)
    assert bad.violations > 0
    _report("3 hole invariance and avoidance",
            f"fixed-interval residual {res:.2e}; 0 of {rep.orbit_size} orbit "
            f"points inside; shifted control flags {bad.violations}")


def test_acceptance_4_gap_certification(built_ctx):
    pair, hole, ruin, bsets = (built_ctx[k] for k in ("pair", "hole", "ruin", "bsets"))
    rep = certify_cantor(pair, hole, ruin, bsets, resolution=1e-2, depth=14,
                         mu=built_ctx["mu"], verification_depth=18)
    assert rep.n_meeting > 0
    assert rep.all_certified, rep.to_text()
    assert rep.bound_respected
    _report("4 gap certification",
            f"{rep.n_certified}/{rep.n_meeting} grid intervals certified, "
            f"max trace {rep.max_trace_steps} steps")


def test_acceptance_5_oracle_equivalences(built_ctx):
    pair, hole, ruin = built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"]
    f1 = fundamental_domain(pair, "f", 1)
    g1 = fundamental_domain(pair, "g", 1)

    # induced_n against a fresh brute-force scan n = 0..50
    def brute_n(x):
        for n in range(51):
            y = pair.f.inverse_eval(x)
            for _ in range(n):
                y = pair.g.inverse_eval(y)
            if g1.lo <= y <= g1.hi:
                return n
        raise AssertionError("scan exhausted")

    xs = RNG.uniform(f1.lo, f1.hi - 1e-6, 1000)
    for x in xs:
        assert induced_n(pair, float(x), "F") == brute_n(float(x))

    # orbit enumeration vs the independent recursive enumerator at depth 12
    cloud = orbit(pair, 0.0, 12)
    brute = orbit_bruteforce(pair, 0.0, 12)
    assert float(np.max(min_distance(cloud, brute))) <= 1e-9
    i = np.clip(np.searchsorted(brute, cloud.points), 1, brute.size - 1)
    d = np.minimum(np.abs(cloud.points - brute[i - 1]), np.abs(cloud.points - brute[i]))
    assert float(np.max(d)) <= 1e-9

    # ruination parts vs a 1e5-point membership grid scan
    scan = ruination_gridscan(pair, hole, "f", grid_n=100_000)
    cell = f1.length / 100_000
    sym_diff = (scan.difference(dilate(ruin.r_f, cell)).measure()
                + ruin.r_f.difference(dilate(scan, cell)).measure())
    assert sym_diff < 1e-4
    _report("5 oracle equivalences",
            f"induced_n 1000/1000 exact; orbit depth-12 set-equal at 1e-9; "
            f"ruination grid sym-diff {sym_diff:.2e} < 1e-4")


def test_acceptance_6_numerical_consistency(built, built_report):
    pair = built[0]
    builder = built[2]

    # map derivatives vs central differences, h = 1e-6, away from
    # breakpoints (narrow bridging segments are breakpoint neighborhoods)
    h = 1e-6
    checked = 0
    for m in (pair.f, pair.g):
        widths = {s.x_lo: s.width for s in m.segments}
        bps = np.asarray([0.0] + m.breakpoints() + [1.0])
        xs = RNG.uniform(h, 1.0 - h, 4000)
        near = np.min(np.abs(xs[:, None] - bps[None, :]), axis=1) < 2e-4
        for x in xs[~near]:
            x = float(x)
            fd = (m.eval(x + h) - m.eval(x - h)) / (2 * h)
            assert m.deriv(x) == pytest.approx(fd, rel=1e-6)
            checked += 1
    assert checked > 3000

    # induced map derivatives vs central differences, rel 1e-5
    f1 = fundamental_domain(pair, "f", 1)
    sites = induced_discontinuities(pair, "F", f1)
    hh = 1e-8
    done = 0
    for x in RNG.uniform(f1.lo + 1e-4, f1.hi - 1e-3, 4000):
        x = float(x)
        if any(abs(x - s) < 1e-4 for s in sites):
            continue
        if induced_n(pair, x - hh, "F") != induced_n(pair, x + hh, "F"):
            continue
        fd = (induced_map(pair, "F", x + hh) - induced_map(pair, "F", x - hh)) / (2 * hh)
        if abs(fd) < 1e-3:
            continue
        assert induced_deriv(pair, "F", x) == pytest.approx(fd, rel=1e-5)
        done += 1
        if done >= 1000:
            break
    assert done >= 1000

    # inverse roundtrip over 1e3 points
    for m in (pair.f, pair.g):
        xs = np.linspace(0.0, 1.0, 1000)
        for x in xs:
            y = m.eval(float(x))
            assert abs(m.inverse_eval(y) - float(x)) <= 1e-9

    # diagonal symmetry of the pre-castration constructed pairs
    params = ConstructionParams()
    f0, g0, _, _ = bump_modify(params)
    sym_bump = symmetry_residual(f0, g0)
    alpha = built_report.alphas[built_report.n_final]
    pre = builder.pair_at(alpha).as_pair()
    sym_eps = symmetry_residual(pre.f, pre.g)
    ap = appendix_pair(AppendixParams())
    sym_ap = symmetry_residual(ap.f, ap.g)
    assert max(sym_bump, sym_eps, sym_ap) <= 1e-9
    _report("6 numerical consistency",
            f"{checked} map-derivative points at 1e-6; {done} induced points "
            f"at 1e-5; roundtrips <= 1e-9; symmetry residual "
            f"{max(sym_bump, sym_eps, sym_ap):.2e}")


def test_acceptance_7_phi_equivariance(builder, built_report):
    from cantorifs.axioms import find_hole

    alphas = built_report.alphas

    def in_w_parts(alpha, fam):
        p = builder.pair_at(alpha).as_pair()
        h = find_hole(p, builder.params.j_p)
        # the family's parts down to a 1e-13 floor, finer than eps_geom
        kept = takewhile(lambda iv: iv.length >= 1e-13,
                         islice(ruination_family(p, h, fam), 10_001))
        s = IntervalSet(list(kept)).intersect(IntervalSet([p.overlap]))
        parts = s.parts
        return p.overlap, (parts[:5] if fam == "f" else parts[::-1][:5])

    worst = 0.0
    for m, n in [(0, 1), (0, 2), (1, 2)]:
        for fam in ("f", "g"):
            wm, pm = in_w_parts(alphas[m], fam)
            wn, pn = in_w_parts(alphas[n], fam)
            assert len(pm) == 5 and len(pn) == 5
            for a, b in zip(pm, pn):
                mapped = phi_rescale_interval(wm, wn, a)
                dist = max(abs(mapped.lo - b.lo), abs(mapped.hi - b.hi))
                assert dist <= 1e-7
                worst = max(worst, dist)
    _report("7 phi equivariance",
            f"3 index pairs x 2 families x 5 parts, worst Hausdorff {worst:.2e} <= 1e-7")


def test_acceptance_8_seed_agreement(built_pair, appendix):
    res = 1e-3
    worst = {}
    for name, pair in (("constructed", built_pair), ("appendix", appendix[0])):
        c0 = minimal_set_cover(pair, 16, res, seed=0.0)
        c1 = minimal_set_cover(pair, 16, res, seed=1.0)
        d = hausdorff_distance(c0, c1)
        assert d <= 2 * res
        worst[name] = d
    _report("8 seed agreement",
            f"depth-16 Hausdorff {worst['constructed']:.2e} (constructed), "
            f"{worst['appendix']:.2e} (appendix) <= {2 * res:.0e}")


def test_acceptance_9_lemma_properties(built_ctx, cloud18):
    pair, hole, ruin = built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"]
    f1 = fundamental_domain(pair, "f", 1)
    w = pair.overlap

    # backward-orbit membership: F(x) is again an orbit point
    pts = cloud18.points
    mask = (pts > f1.lo + 1e-9) & (pts < w.lo - 1e-9)
    candidates = pts[mask]
    assert candidates.size >= 1000
    sample = candidates[RNG.choice(candidates.size, 1000, replace=False)]
    for x in sample:
        y = induced_map(pair, "F", float(x))
        assert cloud_contains(cloud18, y, 1e-9), f"F({x}) = {y} missing from the orbit"

    # overlap-lemma intervals contain no depth-18 orbit points
    rfrg = ruin.r_f.intersect(ruin.r_g)
    assert not rfrg.is_empty()
    checked_parts = 0
    for part in rfrg.parts:
        core = middle_third(part)
        lo = np.searchsorted(cloud18.points, core.lo + 1e-9, side="right")
        hi = np.searchsorted(cloud18.points, core.hi - 1e-9, side="left")
        assert hi - lo <= 0
        checked_parts += 1
    assert checked_parts > 0

    # boundary points lie within cover resolution of the minimal-set cover
    from cantorifs.axioms import boundary_sets

    bsets = boundary_sets(pair, hole, ruin)
    res = 1e-3
    dists = min_distance(cloud18, np.asarray(bsets))
    assert float(np.max(dists)) <= res
    _report("9 lemma properties",
            f"1000 backward-orbit memberships; {checked_parts} overlap parts "
            f"orbit-free; max boundary-point distance to cover {float(np.max(dists)):.2e} <= {res}")
