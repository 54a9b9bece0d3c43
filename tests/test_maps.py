import json
import math

import numpy as np
import pytest

from cantorifs import intervals, maps
from cantorifs.errors import DomainError, RangeError, SpecError
from cantorifs.maps import (
    Affine,
    CubicHermite,
    MapSpec,
    Segment,
    affine_spec,
    conjugate_segment,
    cubic_extremes,
    hermite_linear_deriv,
    identity_spec,
    iterate,
    pair_from_json,
    pair_to_json,
    spec_from_dict,
    spec_to_dict,
    symmetry_conjugate,
    symmetry_residual,
)
from cantorifs.construct import base_pair, lambda_sequence
from cantorifs.ifs import orbit, validate_class_a
from cantorifs.intervals import TOL, IntervalSet

from oracles import (apply_word, break_values, eval_by_segment, inverse_by_segment, segment_coeffs,
                     segment_deriv, segment_ends, segment_inverse, segment_value)

RNG = np.random.default_rng(20260810)


@pytest.fixture(scope="module")
def bumpy():
    """A two-kind spec exercising Hermite segments."""
    seg1 = Segment(0.0, 0.4, Affine(0.5, 0.0))
    seg2 = hermite_linear_deriv(0.4, 0.7, 0.2, 0.5, 2.0)
    y = seg2.kind.y_hi
    seg3 = Segment(0.7, 1.0, Affine(2.0, y - 2.0 * 0.7))
    return MapSpec((seg1, seg2, seg3), label="bumpy")


# -- eval ----------------------------------------------------------------------


def test_eval_base_pair_values():
    f, g = base_pair()
    assert f.eval(1.0) == 0.5
    assert g.eval(0.0) == 0.5


def test_eval_identity():
    assert identity_spec().eval(0.37) == 0.37


def test_eval_domain_error():
    f, _ = base_pair()
    with pytest.raises(DomainError):
        f.eval(1.5)


def test_eval_array_matches_scalar(bumpy):
    xs = RNG.uniform(0, 1, 257)
    assert _bits(bumpy.eval_array(xs)) == _bits(bumpy.eval(float(x)) for x in xs)


def test_breakpoint_left_value_convention(bumpy):
    # at a breakpoint both sides agree within tolerance; the left segment wins
    x = 0.4
    left = segment_value(bumpy.segments[0], x)
    assert bumpy.eval(x) == left


# -- deriv --------------------------------------------------------------------


def test_deriv_base_slope():
    f, _ = base_pair()
    for x in (0.0, 0.3, 1.0):
        assert f.deriv(x) == 0.5


def test_deriv_identity():
    assert identity_spec().deriv(0.2) == 1.0


def test_deriv_finite_difference_oracle(bumpy):
    h = 1e-6
    xs = RNG.uniform(0.01, 0.99, 1000)
    xs = xs[np.all(np.abs(xs[:, None] - np.array([0.4, 0.7])[None, :]) > 1e-4, axis=1)]
    for x in xs:
        fd = (bumpy.eval(x + h) - bumpy.eval(x - h)) / (2 * h)
        assert bumpy.deriv(x) == pytest.approx(fd, rel=1e-6)


# -- inversion -----------------------------------------------------------------


def test_inverse_affine():
    f, g = base_pair()
    assert f.inverse_eval(0.25) == pytest.approx(0.5, abs=1e-15)
    assert g.inverse_eval(0.75) == pytest.approx(0.5, abs=1e-15)


def test_inverse_roundtrip_grid(bumpy):
    xs = np.linspace(0.0, 1.0, 1000)
    for x in xs:
        y = bumpy.eval(float(x))
        assert bumpy.inverse_eval(y) == pytest.approx(float(x), abs=1e-9)


def test_inverse_range_error(bumpy):
    with pytest.raises(RangeError):
        bumpy.inverse_eval(break_values(bumpy)[-1] + 0.1)


@pytest.mark.parametrize("at", [0, 5, 11])
def test_inverse_array_raises_the_range_error_of_its_point_outside(bumpy, at):
    """More than `maps._FEW` points, one of them outside the image: the
    array path raises the RangeError that `inverse_eval` raises there."""
    y0, *_, y1 = break_values(bumpy)
    for bad in (y0 - 0.1, y1 + 2.0 * TOL.eps_newton, math.nan):
        ys = np.linspace(y0, y1, maps._FEW + 4)
        ys[at] = bad
        with pytest.raises(RangeError) as want:
            bumpy.inverse_eval(bad)
        with pytest.raises(RangeError) as got:
            bumpy.inverse_array(ys)
        assert str(got.value) == str(want.value)


def test_inverse_array_matches_scalar(bumpy):
    y0, *_, y1 = break_values(bumpy)
    ys = RNG.uniform(y0, y1, 200)
    xs = bumpy.inverse_array(ys)
    for x, y in zip(xs, ys):
        assert x == bumpy.inverse_eval(float(y))


# -- cached lookups ---------------------------------------------------------------


@pytest.fixture(scope="module")
def real_maps(built_pair, appendix):
    """f and g of the built pair and of the appendix pair."""
    app, _ = appendix
    return [built_pair.f, built_pair.g, app.f, app.g]


def _bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


def _with_neighbours(points) -> list[float]:
    return sorted({q for p in points for q in (p, math.nextafter(p, -math.inf),
                                               math.nextafter(p, math.inf))})


def _orders(xs: list[float]) -> dict[str, np.ndarray]:
    """The points sorted, reversed, and shuffled with every point twice."""
    a = np.array(xs)
    rng = np.random.default_rng(len(xs))
    return {"sorted": a, "reversed": a[::-1], "shuffled": rng.permutation(np.concatenate([a, a]))}


def test_scalar_eval_deriv_match_array_path_bitwise(real_maps):
    for m in real_maps:
        xs = [x for x in _with_neighbours([0.0, 1.0, *m.breakpoints()]) if 0.0 <= x <= 1.0]
        for name, a in _orders(xs).items():
            assert _bits(m.eval(float(x)) for x in a) == _bits(m.eval_array(a)), name
        grid = _orders(xs)["shuffled"].reshape(2, -1)
        out = m.eval_array(grid)
        assert out.shape == grid.shape
        assert _bits(m.eval(float(x)) for x in grid.ravel()) == _bits(out.ravel())
        # deriv has no array form: take the segment the array path picks
        bps = [s.x_lo for s in m.segments]
        i = np.clip(np.searchsorted(bps, xs, side="left") - 1, 0, len(m.segments) - 1)
        assert _bits(m.deriv(x) for x in xs) == _bits(
            segment_deriv(m.segments[k], x) for k, x in zip(i, xs))


def test_scalar_lookup_takes_left_segment_at_breakpoint(real_maps):
    for m in real_maps:
        for k in range(1, len(m.segments)):
            b = m.segments[k].x_lo
            assert m._seg_index(b) == k - 1
            assert m.deriv(b) == segment_deriv(m.segments[k - 1], b)


def test_inverse_lookup_matches_searchsorted_rule(real_maps):
    for m in real_maps:
        breaks = break_values(m)
        ys = [y for y in _with_neighbours(breaks) if breaks[0] <= y <= breaks[-1]]
        # the numpy lookup the scalar path used before `bisect`
        j = np.clip(np.searchsorted(breaks, ys, side="left") - 1, 0, len(m.segments) - 1)
        assert _bits(m.inverse_eval(y) for y in ys) == _bits(
            segment_inverse(m.segments[k], y) for k, y in zip(j, ys))


def test_inverse_array_is_inverse_eval_bitwise(real_maps, bumpy):
    """At every break value and its neighbours, 0, 1, -0.0 and overshoots
    of eps_newton/2, in any order and in 0-d and 2-d input."""
    half = 0.5 * TOL.eps_newton
    signed_zero_checked = False
    for m in [*real_maps, bumpy, maps.symmetry_conjugate(bumpy)]:
        # -0.0 is added after the neighbours: a set keeps one of 0.0, -0.0
        breaks = break_values(m)
        y0, y1 = breaks[0], breaks[-1]
        ys = _with_neighbours([*breaks, 0.0, 1.0, y0 - half, y1 + half]) + [-0.0]
        ys = [y for y in ys if y0 - TOL.eps_newton <= y <= y1 + TOL.eps_newton]
        signed_zero_checked |= "-0x0.0p+0" in _bits(ys)
        want = {y.hex(): m.inverse_eval(y).hex() for y in ys}
        for name, a in _orders(ys).items():
            assert _bits(m.inverse_array(a)) == [want[y] for y in _bits(a)], name
        grid = _orders(ys)["shuffled"].reshape(2, -1)
        out = m.inverse_array(grid)
        assert out.shape == grid.shape
        assert _bits(out.ravel()) == [want[y] for y in _bits(grid.ravel())]
        for y in ys:
            point = m.inverse_array(np.array(y))
            assert point.shape == () and float(point).hex() == want[y.hex()]
    assert signed_zero_checked


def _outcome(fn, v) -> str:
    """The result's `float.hex`, or the type of the error raised."""
    try:
        return fn(v).hex()
    except (DomainError, RangeError) as e:
        return type(e).__name__


def test_scalar_kernels_match_segment_oracles_bitwise(real_maps, bumpy):
    """`eval` and `inverse_eval` read their row tables; the oracles take
    the picked segment's `segment_value`/`segment_inverse`.  Checked at
    every breakpoint and break value, their neighbours, the ends, -0.0,
    overshoots within and beyond eps_newton, and NaN; an error must have
    the oracle's type."""
    half, over = 0.5 * TOL.eps_newton, 2.0 * TOL.eps_newton
    bad = [math.nan, math.inf, -math.inf]
    checked = [*real_maps, bumpy, maps.symmetry_conjugate(bumpy)]
    assert all(any(isinstance(s.kind, CubicHermite) for s in m.segments) for m in checked[:2])
    for m in checked:
        # -0.0 is added after the neighbours: a set keeps one of 0.0, -0.0
        xs = _with_neighbours([0.0, 1.0, -half, 1.0 + half, *m.breakpoints()])
        xs += [-0.0, -over, 1.0 + over, *bad]
        got = [_outcome(m.eval, x) for x in xs]
        assert got == [_outcome(lambda x: eval_by_segment(m, x), x) for x in xs]
        assert got.count("DomainError") == 5
        breaks = break_values(m)
        y0, y1 = breaks[0], breaks[-1]
        ys = _with_neighbours([*breaks, y0 - half, y1 + half])
        ys += [-0.0, y0 - over, y1 + over, *bad]
        got = [_outcome(m.inverse_eval, y) for y in ys]
        assert got == [_outcome(lambda y: inverse_by_segment(m, y), y) for y in ys]
        assert got.count("RangeError") >= 5


def _row_bits(row) -> list[str]:
    return _bits(float(v) for v in row)


def test_table_holds_the_per_segment_formulas_bitwise(edge_maps, bumpy):
    """Each row holds its segment's own floats: x_lo, `width`,
    `segment_coeffs`, the derivative quadratic `segment_deriv` runs, the
    vertex `cubic_extremes` finds (NaN where it finds none),
    `segment_value` at x_lo, the kind's y_hi and
    the two flags, which differ on a flat Hermite segment.  The columns,
    the bisect keys and the image ends are the same floats."""
    flat_hermite = 0
    for name, m in {**edge_maps, "bumpy": bumpy}.items():
        assert len(m._rows) == len(m.segments), name
        for row, s in zip(m._rows, m.segments):
            x_lo, width, c0, c1, c2, c3, a1, a2, vertex, y_lo, y_hi, flat, affine, icpt = row
            assert _bits([x_lo, width, c0, c1, c2, c3]) == _bits(
                [s.x_lo, s.width, *segment_coeffs(s)])
            assert _bits([a1, a2]) == _bits([2.0 * c2, 3.0 * c3]), name
            for x in (s.x_lo, 0.5 * (s.x_lo + s.x_hi), s.x_hi):
                t = x - x_lo
                assert ((a2 * t + a1) * t + c1).hex() == segment_deriv(s, x).hex(), name
            # cubic_extremes' root of a1 + 2 a2 t where its discriminant is positive
            assert _bits([vertex]) == _bits([-a1 / (2.0 * a2) if a2 * a2 > 0.0 else math.nan])
            assert math.isnan(vertex) or abs(a1 + 2.0 * a2 * vertex) <= 1e-9 * abs(a1), name
            assert _bits([y_lo, y_hi]) == _bits(segment_ends(s)), name
            assert flat is (segment_coeffs(s)[2:] == (0.0, 0.0)), name
            assert affine is isinstance(s.kind, Affine), name
            assert _bits([icpt]) == _bits([s.kind.intercept if affine else math.nan]), name
            flat_hermite += flat and not affine
        assert [_bits(col) for col in m._cols] == [_bits(map(float, f)) for f in zip(*m._rows)]
        assert not any(col.flags.writeable for col in m._cols), name
        breaks = break_values(m)
        assert m._x_cuts == tuple(s.x_lo for s in m.segments[1:]), name
        assert _bits(m._y_cuts) == _bits(breaks[1:-1]), name
        assert _bits(m._image) == _bits([breaks[0], breaks[-1]]), name
    assert flat_hermite == 2


def test_reflected_rows_are_the_reflected_segments_rows(edge_maps, bumpy):
    """Class A's reflected rows, built from kind data alone, are the table
    of the map `_reflected_segments` gives, and its rows are those
    segments' x_lo, width and `segment_coeffs`."""
    for name, m in {**edge_maps, "bumpy": bumpy}.items():
        segs = maps._reflected_segments(m)
        rows = maps._reflected_rows(m)
        assert [_row_bits(r[:6]) for r in rows] == [
            _bits([s.x_lo, s.width, *segment_coeffs(s)]) for s in segs], name
        assert [_row_bits(r) for r in rows] == [_row_bits(r) for r in MapSpec(segs)._rows], name


def test_scalar_path_makes_no_numpy_call(built_pair, monkeypatch):
    f = MapSpec(built_pair.f.segments)  # fresh lookup tables
    monkeypatch.setattr(maps, "np", None)
    for x in (0.0, 0.3, 1.0, *f.breakpoints()):
        f.deriv(x)
        assert f.inverse_eval(f.eval(x)) == pytest.approx(x, abs=1e-9)


def test_sorted_callers_never_argsort(built_pair, appendix, monkeypatch):
    """The product feeds `eval_array` non-decreasing input (orbit levels,
    Λ endpoints, grids), so its sort-and-scatter branch stays cold; and
    interval sets, their unions and each Λ step are joined from their
    ends sorted in place, with no sorting permutation."""
    class NoArgsort:
        def __getattr__(self, name):
            if name == "argsort":
                raise AssertionError("argsort called")
            return getattr(np, name)

    f = MapSpec(built_pair.f.segments)  # fresh lookup tables
    xs = np.linspace(0.0, 1.0, 1001)
    monkeypatch.setattr(maps, "np", NoArgsort())
    monkeypatch.setattr(intervals, "np", NoArgsort())
    assert _bits(f.eval_array(xs)) == _bits(f.eval(float(x)) for x in xs)
    orbit(built_pair, 0.0, 12)
    orbit(built_pair, 1.0, 12)
    lambda_sequence(*appendix, 12)
    symmetry_residual(built_pair.f, built_pair.g)
    validate_class_a(built_pair.f, built_pair.g)
    # unsorted, nested and touching parts, and two sets that interleave
    s = IntervalSet(los=np.array([0.5, 0.1, 0.55, -0.0, 0.12, 0.4]),
                    his=np.array([0.8, 0.4, 0.6, 0.0, 0.2, 0.45]))
    t = IntervalSet([(0.0, 0.05), (0.42, 0.5), (0.7, 0.9)])
    assert s.union(t) == IntervalSet([(-0.0, 0.05), (0.1, 0.9)])
    with pytest.raises(AssertionError, match="argsort called"):
        f.eval_array(xs[::-1])


@pytest.mark.parametrize("method, arg, err", [
    ("eval", math.nan, DomainError),
    ("deriv", math.nan, DomainError),
    ("inverse_eval", math.nan, RangeError),
    ("eval_array", np.array([0.5, math.nan]), DomainError),
    ("inverse_array", np.array([0.5, math.nan]), RangeError),
])
def test_nan_is_rejected(bumpy, method, arg, err):
    with pytest.raises(err):
        getattr(bumpy, method)(arg)


def _constant_slope_spec(d: float) -> MapSpec:
    """Slope d throughout: affine on [0, 0.4], `hermite_linear_deriv` with
    d_lo == d_hi on [0.4, 0.7] and [0.7, 0.85], affine on [0.85, 1]."""
    a = Segment(0.0, 0.4, Affine(d, 0.0))
    h1 = hermite_linear_deriv(0.4, 0.7, segment_ends(a)[1], d, d)
    h2 = hermite_linear_deriv(0.7, 0.85, h1.kind.y_hi, d, d)
    return MapSpec((a, h1, h2, Segment(0.85, 1.0, Affine(d, h2.kind.y_hi - d * 0.85))))


@pytest.fixture(scope="module")
def edge_maps(built_pair, appendix, valid_affine):
    """The built pair, the appendix pair, `valid_affine` and two maps with
    linear-derivative Hermite segments: at slope 0.5 their cubic terms
    round to c2 = c3 = 0 (the multiply-add), at 0.7 they do not (Horner)."""
    flat, bent = _constant_slope_spec(0.5), _constant_slope_spec(0.7)
    assert all(segment_coeffs(s)[2:] == (0.0, 0.0) for s in flat.segments)
    assert all(segment_coeffs(s)[2:] != (0.0, 0.0) for s in bent.segments[1:3])
    app = appendix[0]
    return {"built f": built_pair.f, "built g": built_pair.g, "appendix f": app.f,
            "appendix g": app.g, "affine f": valid_affine.f, "affine g": valid_affine.g,
            "hermite c2 = c3 = 0": flat, "hermite c2 != 0": bent}


def test_eval_array_is_eval_bitwise_at_the_edges(edge_maps, monkeypatch):
    """-0.0, both ends and every breakpoint exactly and one ulp either side,
    sorted and reversed, in read-only arrays that come back unmodified: read
    in place while every point is in [0, 1], so -0.0 reaches its segment as
    it does in `eval`, and clamped once some lie within eps_newton below 0
    or above 1."""
    clipped = []

    class CountClip:
        def __getattr__(self, name):
            return getattr(np, name)

        def clip(self, *args):
            clipped.append(args[0].size)
            return np.clip(*args)

    monkeypatch.setattr(maps, "np", CountClip())
    eps = TOL.eps_newton
    below, above = [-eps, -0.5 * eps, -5e-324], [1.0 + 0.5 * eps, 1.0 + eps]
    grid = np.linspace(0.0, 1.0, maps._FEW + 1).tolist()
    for name, m in edge_maps.items():
        inside = [-0.0, *(x for x in _with_neighbours([*grid, *m.breakpoints()])
                          if 0.0 <= x <= 1.0)]
        for xs, clips in ((inside, 0), (inside + below, 1), (above + inside, 1)):
            for a in (np.array(xs), np.array(xs)[::-1]):
                a.setflags(write=False)
                before, n = a.tobytes(), len(clipped)
                got = m.eval_array(a)
                assert a.tobytes() == before and not np.shares_memory(got, a)
                assert len(clipped) - n == clips, name
                assert _bits(got) == _bits(m.eval(float(x)) for x in a), name


@pytest.mark.parametrize("bad", [math.nan, -math.inf, -2 * TOL.eps_newton,
                                 1.0 + 2 * TOL.eps_newton, math.inf])
def test_eval_array_rejects_a_point_outside_the_domain(edge_maps, bad):
    xs = np.linspace(0.0, 1.0, 2 * maps._FEW)
    xs[5] = bad
    for m in edge_maps.values():
        with pytest.raises(DomainError) as err:
            m.eval_array(xs)
        assert str(err.value) == "array evaluation outside [0, 1]"


# -- words ----------------------------------------------------------------------


def test_word_empty_is_identity():
    f, g = base_pair()
    assert apply_word(f, g, "", 0.37) == 0.37


def test_word_rightmost_first():
    f, g = base_pair()
    # FG means f(g(x)): f(g(0)) = f(0.5) = 0.25
    assert apply_word(f, g, "FG", 0.0) == 0.25
    # GF means g(f(0)) = g(0) = 0.5
    assert apply_word(f, g, "GF", 0.0) == 0.5


# -- symmetry ----------------------------------------------------------------------


def test_symmetry_base_pair():
    f, g = base_pair()
    conj = symmetry_conjugate(f)
    assert conj.segments == g.segments


def test_symmetry_involution(bumpy):
    back = symmetry_conjugate(symmetry_conjugate(bumpy))
    for a, b in zip(back.segments, bumpy.segments):
        assert a.x_lo == pytest.approx(b.x_lo, abs=1e-15)
        assert segment_value(a, a.x_lo) == pytest.approx(segment_value(b, b.x_lo), abs=1e-12)


def test_symmetry_identity():
    assert symmetry_conjugate(identity_spec()).segments == identity_spec().segments


def test_symmetry_residual_of_conjugate(bumpy):
    g = symmetry_conjugate(bumpy)
    assert symmetry_residual(bumpy, g) <= 1e-12


# -- iterate -------------------------------------------------------------------------


def test_iterate_f_star():
    f, _ = base_pair()
    assert iterate(f, 3, 1.0) == 0.125


def test_iterate_zero():
    f, _ = base_pair()
    assert iterate(f, 0, 0.77) == 0.77


def test_iterate_g_star():
    _, g = base_pair()
    assert iterate(g, 2, 0.0) == 0.75


# -- structural validation ----------------------------------------------------------


def test_rejects_gap_between_segments():
    with pytest.raises(SpecError):
        MapSpec((Segment(0.0, 0.4, Affine(1.0, 0.0)), Segment(0.5, 1.0, Affine(1.0, 0.0))))


@pytest.mark.parametrize("ends", [
    (0.0, 0.5, math.nextafter(0.5, 1.0), 1.0),   # a 1-ulp gap
    (0.0, 0.5, math.nextafter(0.5, 0.0), 1.0),   # a 1-ulp overlap
    (5e-324, 0.5, 0.5, 1.0),
    (0.0, 0.5, 0.5, 1.0 - 2.0 ** -53),
], ids=["gap", "overlap", "first_x_lo", "last_x_hi"])
def test_rejects_inexact_join_or_end(ends):
    """Joins and ends must be exact, not within a tolerance: the value and
    derivative checks pass on these identity pieces."""
    a_lo, a_hi, b_lo, b_hi = ends
    with pytest.raises(SpecError, match="segments 0 and 1 must join exactly|cover"):
        MapSpec((Segment(a_lo, a_hi, Affine(1.0, 0.0)), Segment(b_lo, b_hi, Affine(1.0, 0.0))))


def test_rejects_value_jump():
    with pytest.raises(SpecError):
        MapSpec((Segment(0.0, 0.5, Affine(0.5, 0.0)),
                 Segment(0.5, 1.0, Affine(0.5, 0.3))))


def test_rejects_a_nan_value_at_a_join():
    """The value check is written so that NaN fails it."""
    with pytest.raises(SpecError, match="value jump nan at x=0.5"):
        MapSpec((Segment(0.0, 0.5, Affine(0.5, 0.0)),
                 Segment(0.5, 1.0, Affine(0.5, math.nan))))


def test_rejects_derivative_jump():
    # C0-continuous but kinked: slope 0.5 -> 0.6
    with pytest.raises(SpecError):
        MapSpec((Segment(0.0, 0.5, Affine(0.5, 0.0)),
                 Segment(0.5, 1.0, Affine(0.6, -0.05))))


def test_rejects_nonmonotone_hermite():
    # forced overshoot: tiny rise with steep end slopes
    with pytest.raises(SpecError):
        Segment(0.0, 1.0, CubicHermite(0.0, 0.01, 3.0, 3.0))


def test_rejects_nonpositive_slope():
    with pytest.raises(SpecError):
        Segment(0.0, 1.0, Affine(-0.5, 1.0))


@pytest.mark.parametrize("kind", [Affine(math.nan, 0.0),
                                  CubicHermite(0.0, 1.0, math.nan, 1.0),
                                  CubicHermite(0.0, 1.0, 1.0, math.nan)])
def test_rejects_nan_segment(kind):
    with pytest.raises(SpecError):
        Segment(0.0, 1.0, kind)


# -- derivative maxima -----------------------------------------------------------------


def test_cubic_extremes_reads_ends_and_critical_points():
    # t^3 - 3t: -2 at t = 1 and 2 at t = -1 inside, 1.125 and 8.125 at the ends
    assert cubic_extremes((0.0, -3.0, 0.0, 1.0), -1.5, 2.5) == ((-2.0, 1.0), (8.125, 2.5))
    # (t - 1)^2: a quadratic's one critical point, its vertex
    assert cubic_extremes((1.0, -2.0, 1.0, 0.0), 0.0, 3.0) == ((0.0, 1.0), (4.0, 3.0))
    # t^3: the double critical point at 0 is an inflection, so the ends decide
    assert cubic_extremes((0.0, 0.0, 0.0, 1.0), -1.0, 2.0) == ((-1.0, -1.0), (8.0, 2.0))


def test_max_deriv_finds_interior_peak():
    # m'(x) = -3x^2 + 3x + 0.5: 0.5 at both ends, 1.25 at x = 0.5
    m = MapSpec((Segment(0.0, 1.0, CubicHermite(0.0, 1.0, 0.5, 0.5)),))
    assert m.max_deriv(0.0, 1.0) == 1.25
    assert m.max_deriv(0.0, 0.25) == m.deriv(0.25)
    assert m.max_deriv(0.75, 1.0) == m.deriv(0.75)


def test_max_deriv_bounds_a_dense_grid(real_maps):
    for m in real_maps:
        pts = sorted({0.0, 1.0, *m.breakpoints(), *RNG.uniform(0.0, 1.0, 20)})
        for a, b in zip(pts, pts[1:] + [1.0]):
            a, b = min(a, b), max(a, b)
            grid = max(m.deriv(float(x)) for x in np.linspace(a, b, 201))
            top = m.max_deriv(a, b)
            assert grid <= top <= grid * (1.0 + 1e-3)



def test_max_deriv_array_is_max_deriv_bit_for_bit(real_maps):
    """Every interval, lo == hi included, between two of 200 ends: 0, 1 and
    the breakpoints, each with the floats beside it, ends padded past 0 and
    1, and uniform draws; shuffled, whole and in every batch of 0 to
    _FEW + 1 intervals."""
    total = 0
    for m in real_maps:
        ends = sorted({*_with_neighbours([0.0, 1.0, *m.breakpoints()]),
                       -TOL.eps_newton, 1.0 + TOL.eps_newton, -1e-3, 1.0 + 1e-3})
        ends = np.sort([*ends, *RNG.uniform(0.0, 1.0, 200 - len(ends))])
        i, j = np.triu_indices(ends.size)
        order = RNG.permutation(i.size)
        los, his = ends[i[order]], ends[j[order]]
        scalar = np.array([m.max_deriv(a, b) for a, b in zip(los.tolist(), his.tolist())])
        assert _bits(m.max_deriv_array(los, his)) == _bits(scalar)
        for k in range(maps._FEW + 2):
            assert _bits(m.max_deriv_array(los[:k], his[:k])) == _bits(scalar[:k])
        total += los.size
    assert total >= 80_000

# -- affine conjugation ----------------------------------------------------------------


def test_conjugate_segment_matches_composition():
    seg = hermite_linear_deriv(0.2, 0.8, 0.1, 0.5, 2.0)
    a1, b1, a2, b2 = 3.0, 0.05, 0.5, 0.2
    out = conjugate_segment(seg, a1, b1, a2, b2)
    for x in np.linspace(out.x_lo, out.x_hi, 50):
        expect = a2 * segment_value(seg, a1 * x + b1) + b2
        assert segment_value(out, float(x)) == pytest.approx(expect, abs=1e-14)


# -- serialization ----------------------------------------------------------------------


def test_spec_dict_roundtrip(bumpy):
    assert spec_from_dict(spec_to_dict(bumpy)).segments == bumpy.segments


def test_pair_json_roundtrip(bumpy):
    g = symmetry_conjugate(bumpy)
    f2, g2 = pair_from_json(pair_to_json(bumpy, g))
    assert f2.segments == bumpy.segments
    assert g2.segments == g.segments
    doc = json.loads(pair_to_json(bumpy, g))
    assert doc["format"] == "cantorifs-pair"


def test_pair_json_rejects_other_documents():
    with pytest.raises(SpecError):
        pair_from_json(json.dumps({"format": "nope"}))
