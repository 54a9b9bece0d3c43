import numpy as np
import pytest

from cantorifs.errors import DomainError, ResourceCapError, SpecError
from cantorifs import ifs
from cantorifs.intervals import TOL, Interval, IntervalSet
from cantorifs.maps import (
    Affine,
    CubicHermite,
    MapSpec,
    Segment,
    _reflected_segments,
    affine_spec,
    cubic_extremes,
    identity_spec,
    iterate,
    symmetry_conjugate,
)
from cantorifs.ifs import (
    fundamental_domain,
    minimal_set_cover,
    orbit,
    validate_class_a,
)
from cantorifs.construct import (
    ConstructionParams,
    base_pair,
    build_class_c_example,
    bump_modify,
    epsilon_family_specs,
)

from oracles import (diagonal_gap_scan, dilate, hausdorff_distance, min_distance, orbit_bruteforce,
                     segment_coeffs)


# -- class-A validation -------------------------------------------------------


def test_base_pair_degenerate_overlap_rejected():
    f, g = base_pair()
    res = validate_class_a(f, g)
    assert not res.ok
    assert any(v.bullet == "0 < g(0) < f(1) < 1" for v in res.violations)
    # the witness values: g(0) = f(1) = 0.5
    assert f.eval(1.0) == g.eval(0.0) == 0.5


def test_epsilon_family_is_valid():
    params = ConstructionParams()
    f0, _, _, _ = bump_modify(params)
    pair = validate_class_a(*epsilon_family_specs(f0, k=0.005, eps=0.01)).as_pair()
    assert pair.overlap.lo == pytest.approx(0.49995, abs=1e-12)
    assert pair.overlap.hi == pytest.approx(0.50005, abs=1e-12)


@pytest.mark.parametrize("f_icpt, g_icpt, bullet, witness, detail", [
    (0.01, 0.5, "f(0) = 0", 0.0, "f(0) = 0.01"),
    (0.0, 0.49, "g(1) = 1", 1.0, "g(1) = 0.99"),
])
def test_class_a_fixed_point_bullets(f_icpt, g_icpt, bullet, witness, detail):
    res = validate_class_a(affine_spec(0.5, f_icpt), affine_spec(0.5, g_icpt))
    assert not res.ok and res.pair is None
    assert [(v.bullet, v.witness, v.detail) for v in res.violations] == [(bullet, witness, detail)]


def test_identity_pair_rejected_on_strict_inequality():
    res = validate_class_a(identity_spec(), identity_spec())
    assert not res.ok
    assert res.violations[0].bullet == "f(x) < x"


def _grid_miss_f() -> MapSpec:
    """x - f(x) is E = 1.2e-8 at both ends of (0.50001, 0.50009) and dips to
    E - s*h/4 = -8e-9 at its middle (h = 8e-5): no multiple of 1e-4 and no
    breakpoint lies inside, so a 10,000-cell grid sees only the ends."""
    e, s = 1.2e-8, 1e-3
    return MapSpec((
        Segment(0.0, 0.4, Affine(0.5, 0.0)),
        Segment(0.4, 0.50001, CubicHermite(0.2, 0.50001 - e, 0.5, 1.0 + s)),
        Segment(0.50001, 0.50009, CubicHermite(0.50001 - e, 0.50009 - e, 1.0 + s, 1.0 - s)),
        Segment(0.50009, 1.0, CubicHermite(0.50009 - e, 0.75, 1.0 - s, 0.5)),
    ))


def test_class_a_sees_a_dip_between_grid_points():
    f = _grid_miss_f()
    assert f.eval(0.50005) - 0.50005 == pytest.approx(8.0e-9, rel=1e-3)
    res = validate_class_a(f, symmetry_conjugate(f))
    assert [v.bullet for v in res.violations] == ["f(x) < x", "x < g(x)"]
    x_f, x_g = (v.witness for v in res.violations)
    assert 0.50001 < x_f < 0.50009 and x_f == pytest.approx(0.50005, abs=1e-9)
    assert x_g == pytest.approx(0.49995, abs=1e-9)
    assert res.violations[0].detail.startswith("x - f(x) = -8")


def test_class_a_rejects_an_identity_piece_at_the_fixed_point():
    f = MapSpec((Segment(0.0, 0.2, Affine(1.0, 0.0)),
                 Segment(0.2, 1.0, CubicHermite(0.2, 0.75, 1.0, 0.5))))
    res = validate_class_a(f, symmetry_conjugate(f))
    assert res.violations[0].bullet == "f(x) < x"
    assert res.violations[0].witness == 0.0


def test_class_a_admits_a_parabolic_fixed_point():
    """g'(1) = 1 = f'(0): on the segment at the fixed point, x - f(x) has
    the factor t twice, and the quotient -c2 - c3 t stays above eps_geom."""
    g = MapSpec((Segment(0.0, 0.5, Affine(0.5, 0.45)),
                 Segment(0.5, 1.0, CubicHermite(0.7, 1.0, 0.5, 1.0))))
    f = symmetry_conjugate(g)
    assert f.deriv(0.0) == 1.0 == g.deriv(1.0)
    assert validate_class_a(f, g).ok


@pytest.fixture(scope="module")
def n17_pair():
    return build_class_c_example(ConstructionParams(n_target=17))[0]


def test_segment_least_never_exceeds_a_dense_scan(built_pair, appendix, n17_pair):
    """Off the segment at the fixed point, the least of y - m(y) that class A
    reads from the cubic is no larger than a 20,001-point scan finds."""
    for pair in (built_pair, appendix[0], n17_pair):
        for segs in (pair.f.segments, _reflected_segments(pair.g)):
            for s in segs[1:]:
                c0, c1, c2, c3 = segment_coeffs(s)
                (least, t), _ = cubic_extremes((s.x_lo - c0, 1.0 - c1, -c2, -c3), 0.0, s.width)
                assert 0.0 <= t <= s.width
                assert least <= diagonal_gap_scan(s)


def test_class_a_builds_no_segment(built_pair, monkeypatch):
    """Class A reads g reflected about the diagonal as table rows made from
    g's kind data: on fresh maps it builds no `Segment`, so it runs no
    monotonicity check."""
    f, g = MapSpec(built_pair.f.segments), MapSpec(built_pair.g.segments)
    built = []
    post_init = Segment.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Segment, "__post_init__", counted)
    assert validate_class_a(f, g).ok
    assert built == []


def test_as_pair_raises_on_failure():
    f, g = base_pair()
    with pytest.raises(SpecError):
        validate_class_a(f, g).as_pair()


def test_validation_report_text(valid_affine):
    res = validate_class_a(valid_affine.f, valid_affine.g)
    text = res.to_text()
    assert "class_a: ok" in text and "overlap_W" in text


# -- fundamental domains ---------------------------------------------------------


def test_f0_is_right_edge(valid_affine):
    f0 = fundamental_domain(valid_affine, "f", 0)
    assert f0.lo == valid_affine.f.eval(1.0)
    assert f0.hi == 1.0


def test_f1_right_endpoint_for_epsilon_family():
    params = ConstructionParams()
    f0, _, _, _ = bump_modify(params)
    pair = validate_class_a(*epsilon_family_specs(f0, k=0.005, eps=0.01)).as_pair()
    f1 = fundamental_domain(pair, "f", 1)
    assert f1.hi == pytest.approx(0.50005, abs=1e-12)
    assert f1.lo == pytest.approx(pair.f.eval(0.50005), abs=1e-12)
    assert pair.f1 == f1
    assert pair.g1 == fundamental_domain(pair, "g", 1)


def test_free_parts_are_f1_and_g1_outside_w(built_pair):
    p = built_pair
    assert p.f1_free == Interval(p.f1.lo, p.overlap.lo)
    assert p.g1_free == Interval(p.overlap.hi, p.g1.hi)
    assert p.f1_free is p.f1_free and p.g1_free is p.g1_free  # computed once


def test_domains_telescope(valid_affine):
    # F_0 ∪ ... ∪ F_N ∪ [0, f^{N+1}(1)] = [0, 1]
    N = 12
    parts = [fundamental_domain(valid_affine, "f", n) for n in range(N + 1)]
    tail = Interval(0.0, parts[-1].lo)
    total = IntervalSet(parts + [tail])
    assert total.n_parts == 1
    assert total.parts[0] == Interval(0.0, 1.0)
    for a, b in zip(parts, parts[1:]):
        assert b.hi == a.lo  # consecutive domains abut


def test_g_domains_march_right(valid_affine):
    g1 = fundamental_domain(valid_affine, "g", 1)
    g2 = fundamental_domain(valid_affine, "g", 2)
    assert g1.hi == g2.lo
    assert g1.lo == valid_affine.g.eval(0.0)


def test_domain_rejects_negative_n(valid_affine):
    with pytest.raises(DomainError):
        fundamental_domain(valid_affine, "f", -1)


def test_domains_read_one_ladder(monkeypatch):
    """F_0..F_200 read twice cost one evaluation of f per iterate, 201 in
    all, and give the floats of iterating f from 1 afresh for each end."""
    pair = validate_class_a(affine_spec(0.55, 0.0), affine_spec(0.55, 0.45)).as_pair()
    evals = []
    plain_eval = MapSpec.eval

    def counted(self, x):
        if self is pair.f:
            evals.append(x)
        return plain_eval(self, x)

    monkeypatch.setattr(MapSpec, "eval", counted)
    for _ in range(2):
        doms = [fundamental_domain(pair, "f", n) for n in range(201)]
    assert len(evals) == 201
    monkeypatch.undo()
    assert doms == [Interval(iterate(pair.f, n + 1, 1.0), iterate(pair.f, n, 1.0))
                    for n in range(201)]
    assert [fundamental_domain(pair, "g", n) for n in (5, 0, 1)] == [
        Interval(iterate(pair.g, n, 0.0), iterate(pair.g, n + 1, 0.0)) for n in (5, 0, 1)]
    with pytest.raises(DomainError):
        fundamental_domain(pair, "h", 1)


# -- orbits ---------------------------------------------------------------------


def test_orbit_depth_zero(valid_affine):
    cloud = orbit(valid_affine, 0.0, 0)
    assert cloud.points.tolist() == [0.0]


def test_orbit_depth_one_f_fixes_zero(valid_affine):
    cloud = orbit(valid_affine, 0.0, 1)
    assert cloud.points.tolist() == [0.0, valid_affine.g.eval(0.0)]


def test_orbit_matches_bruteforce_enumerator_depth_12(built_pair):
    cloud = orbit(built_pair, 0.0, 12)
    brute = orbit_bruteforce(built_pair, 0.0, 12)
    # set equality at eps_geom: every point of each within eps of the other
    eps = 1e-9
    assert float(np.max(min_distance(cloud, brute))) <= eps
    i = np.clip(np.searchsorted(brute, cloud.points), 1, brute.size - 1)
    d = np.minimum(np.abs(cloud.points - brute[i - 1]), np.abs(cloud.points - brute[i]))
    assert float(np.max(d)) <= eps


def test_orbit_keeps_every_distinct_value_farther_apart_than_eps_geom(valid_affine):
    brute = np.unique(orbit_bruteforce(valid_affine, 0.0, 8))
    assert float(np.min(np.diff(brute))) > TOL.eps_geom  # nothing for dedup to merge
    assert orbit(valid_affine, 0.0, 8).points.tobytes() == brute.tobytes()


def test_orbit_monotone_in_depth(valid_affine):
    c5 = orbit(valid_affine, 0.0, 5)
    c6 = orbit(valid_affine, 0.0, 6)
    assert float(np.max(min_distance(c6, c5.points))) <= 1e-9


def test_orbit_invariance_under_one_application(valid_affine):
    c4 = orbit(valid_affine, 0.0, 4)
    c5 = orbit(valid_affine, 0.0, 5)
    fwd = np.concatenate([valid_affine.f.eval_array(c4.points),
                          valid_affine.g.eval_array(c4.points)])
    assert float(np.max(min_distance(c5, fwd))) <= 1e-9


def test_orbit_seed_endpoints_present(valid_affine):
    c1 = orbit(valid_affine, 1.0, 1)
    assert 1.0 in c1.points.tolist()
    assert valid_affine.f.eval(1.0) in c1.points.tolist()


def test_orbit_cap(valid_affine, monkeypatch):
    monkeypatch.setattr(ifs, "ORBIT_CAP", 1000)
    with pytest.raises(ResourceCapError):
        orbit(valid_affine, 0.0, 14)


def test_orbit_takes_no_dedup_radius_or_cap(valid_affine):
    with pytest.raises(TypeError):
        orbit(valid_affine, 0.0, 3, dedup_eps=1e-12)
    with pytest.raises(TypeError):
        orbit(valid_affine, 0.0, 3, cap=1000)


# -- minimal-set covers ------------------------------------------------------------


def test_cover_contained_in_dilated_lambda(appendix):
    from cantorifs.construct import lambda_sets

    pair, params = appendix
    res = 1e-4
    cover = minimal_set_cover(pair, 10, res)
    lam10 = dilate(lambda_sets(pair, params, 10), res)
    # every orbit ball sits inside the dilated recursion set
    assert cover.difference(lam10).measure() <= 1e-12


def test_cover_monotone_in_depth(valid_affine):
    c8 = minimal_set_cover(valid_affine, 8, 1e-3)
    c9 = minimal_set_cover(valid_affine, 9, 1e-3)
    assert c8.difference(c9).measure() <= 1e-12


def test_seed_agreement_decreases_with_depth(built_pair):
    res = 1e-3
    dists = []
    for depth in (6, 9, 12):
        c0 = minimal_set_cover(built_pair, depth, res, seed=0.0)
        c1 = minimal_set_cover(built_pair, depth, res, seed=1.0)
        dists.append(hausdorff_distance(c0, c1))
    assert dists[0] + 1e-12 >= dists[1] >= dists[2] - 1e-12


def test_cover_requires_positive_depth(valid_affine):
    with pytest.raises(DomainError):
        minimal_set_cover(valid_affine, 0, 1e-3)


@pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan")])
def test_cover_requires_positive_resolution(valid_affine, resolution):
    with pytest.raises(DomainError):
        minimal_set_cover(valid_affine, 3, resolution)
