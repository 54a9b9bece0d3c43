import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cantorifs.errors import SpecError
from cantorifs.intervals import (
    TOL,
    Interval,
    IntervalSet,
    _exact_sum,
    _normalize,
    from_csv,
    to_csv,
)

from oracles import contained_in_interior, contains_points, grid_cells, hausdorff_distance

GRID = np.linspace(0.0, 1.0, 10_001)


def S(*parts):
    return IntervalSet(list(parts))


def grid_membership(s: IntervalSet) -> np.ndarray:
    return contains_points(s, GRID)


# -- construction and normalization ----------------------------------------


def test_interval_rejects_reversed():
    with pytest.raises(SpecError):
        Interval(0.5, 0.4)


def test_degenerate_interval_allowed():
    iv = Interval(0.3, 0.3)
    assert iv.length == 0.0


def test_parts_sorted_and_merged():
    s = S((0.5, 0.6), (0.0, 0.2), (0.2, 0.3))
    assert [(p.lo, p.hi) for p in s.parts] == [(0.0, 0.3), (0.5, 0.6)]


@pytest.mark.parametrize("los,his,bad", [
    ([0.1, 0.5], [0.2, 0.4], "(0.5, 0.4)"),             # hi < lo
    ([0.1, float("nan")], [0.2, 0.6], "(nan, 0.6)"),    # NaN lo
    ([0.1, 0.5], [0.2, float("nan")], "(0.5, nan)"),    # NaN hi
])
def test_array_bounds_need_hi_at_least_lo(los, his, bad):
    with pytest.raises(SpecError) as err:
        IntervalSet(los=np.array(los), his=np.array(his))
    assert str(err.value) == f"bad part {bad}"


@pytest.mark.parametrize("part", [(0.5, 0.4), (float("nan"), 0.5), (0.5, float("nan"))])
def test_tuple_parts_need_hi_at_least_lo(part):
    with pytest.raises(SpecError, match="bad part"):
        S((0.0, 0.1), part)


def test_degenerate_and_signed_zero_parts_allowed():
    s = IntervalSet(los=np.array([0.0, 0.5]), his=np.array([-0.0, 0.5]))
    assert s.n_parts == 2 and s.measure() == 0.0


# -- union ------------------------------------------------------------------


def test_union_identity_element():
    assert S((0.0, 1.0)).union(S()) == S((0.0, 1.0))


def test_union_touching_parts_merge():
    assert S((0.0, 0.2)).union(S((0.2, 0.5))) == S((0.0, 0.5))


def test_union_grid_oracle():
    a = S((0.0, 0.1), (0.3, 0.4))
    b = S((0.05, 0.35))
    got = a.union(b)
    assert got == S((0.0, 0.4))
    np.testing.assert_array_equal(
        grid_membership(got), grid_membership(a) | grid_membership(b))


def _join_is_one_normalization(los, his, n):
    """`_of_runs` on copies of two runs laid end to end gives the bytes of
    `_normalize` on both, frozen; return the set and its buffers."""
    want = _normalize(los, his)
    buf = los.copy(), his.copy()
    got = IntervalSet._of_runs(*buf, n)
    assert (got.los.tobytes(), got.his.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    assert not got.los.flags.writeable and not got.his.flags.writeable
    return got, buf


@st.composite
def sets_sharing_ends(draw):
    """Two sets whose parts take their ends from one small pool, so they
    touch, nest, repeat ends and hold degenerate parts, at +-0.0 too."""
    pool = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=6))

    def one():
        ends = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=6))
        return IntervalSet([(min(x, y), max(x, y)) for x, y in ends])

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(sets_sharing_ends())
@example((S((0.0, 0.2), (0.5, 0.6)), S((0.2, 0.3), (0.6, 0.7))))   # touching ends
@example((S((0.0, 0.2), (0.3, 0.9)), S((0.4, 0.5), (0.6, 0.7))))   # nested in a part
@example((S((0.1, 0.1), (0.3, 0.3)), S((0.1, 0.2), (0.25, 0.25))))  # degenerate parts
@example((S((-0.0, 0.0), (0.5, 0.6)), S((0.0, -0.0), (0.6, 0.6))))  # -0.0 against 0.0
@example((S((0.0, 0.0)), S((-0.0, 0.3))))                          # tie on the first lo
@example((S((-0.0, 0.1)), S((-1.0, -0.5), (0.0, 0.2))))             # a tie inside the window
@example((S(), S((0.2, 0.3))))                                      # an empty operand
@example((S(), S()))
@example((S((0.0, 0.1), (0.2, 0.3)), S((0.4, 0.5), (0.9, 1.0))))   # disjoint: no window
@example((S((0.0, 0.2), (0.5, 0.6)), S((0.1, 0.3), (0.9, 1.0))))   # a window at the start
@example((S((0.0, 0.2), (0.5, 1.0)), S((0.3, 0.4), (0.6, 0.7))))   # a window at the end
@example((S((-0.0, -0.0)), S((-1.0, 0.0))))                         # zero hi's, last in lo order
@example((S((-0.5, 0.0)), S((-1.0, -0.0), (0.25, 0.5))))            # ... not last in input order
def test_union_is_one_normalization_of_both_bit_for_bit(sets):
    """The window merge gives the bytes of normalizing `self`'s parts and
    then `other`'s at once, in both operand orders; so does the join it
    runs, called on the two laid end to end (empty halves too), in the
    buffers it is given."""
    for a, b in (sets, sets[::-1]):
        got = a.union(b)
        want = IntervalSet(los=np.concatenate([a.los, b.los]), his=np.concatenate([a.his, b.his]))
        assert (got.los.tobytes(), got.his.tobytes()) == (want.los.tobytes(), want.his.tobytes())
        assert not got.los.flags.writeable and not got.his.flags.writeable
        got, buf = _join_is_one_normalization(np.concatenate([a.los, b.los]),
                                              np.concatenate([a.his, b.his]), a.n_parts)
        if got.n_parts:
            assert np.shares_memory(got.los, buf[0]) and np.shares_memory(got.his, buf[1])


def _grid_run(rng, size):
    """A normalized run on a coarse grid, so that two runs share ends;
    a run that starts at 0 starts at -0.0 half the time, and half of
    the others start with a part [-x, ±0.0], x 0 or on the grid."""
    ends = np.sort(rng.choice(np.arange(400) / 400.0, 2 * size, replace=False))
    los, his = ends[0::2].copy(), ends[1::2].copy()
    if los.size and los[0] == 0.0:
        if rng.random() < 0.5:
            los[0] = -0.0
    elif rng.random() < 0.5:
        los = np.insert(los, 0, -float(rng.integers(0, 3)) / 400.0)
        his = np.insert(his, 0, rng.choice([-0.0, 0.0]))
    return los, his


@pytest.mark.parametrize("seed", range(12))
def test_join_of_random_runs_and_non_runs(seed):
    """Runs of up to 150 parts on one grid, then the same with one half
    not a run: a part split in two that touch, a part repeated, or the
    half reversed, which the join normalizes whole."""
    rng = np.random.default_rng(20261020 + seed)
    (l1, h1), (l2, h2) = (_grid_run(rng, int(rng.integers(0, 150))) for _ in range(2))
    n = l1.size
    _join_is_one_normalization(np.concatenate([l1, l2]), np.concatenate([h1, h2]), n)
    if n:
        k = int(rng.integers(0, n))
        mid = 0.5 * (l1[k] + h1[k])
        broken = [(np.insert(l1, k + 1, mid), np.insert(h1, k, mid)),
                  (np.insert(l1, k, l1[k]), np.insert(h1, k, h1[k])), (l1[::-1], h1[::-1])]
        for bl, bh in broken:
            _join_is_one_normalization(np.concatenate([bl, l2]), np.concatenate([bh, h2]), bl.size)
            _join_is_one_normalization(np.concatenate([l2, bl]), np.concatenate([h2, bh]), l2.size)


@pytest.mark.parametrize("a, b, want", [
    (S((-0.0, -0.0)), S((-1.0, 0.0)), [(-1.0, -0.0)]),
    (S((-0.5, 0.0)), S((-1.0, -0.0), (0.25, 0.5)), [(-1.0, 0.0), (0.25, 0.5)]),
])
def test_zero_end_takes_the_sign_of_the_last_zero_hi_in_lo_order(a, b, want):
    """A part that ends at zero takes the sign of the zero hi whose part
    comes last in stable lo order, whichever operand holds it and in
    either operand order; a part's lo is its first in that order."""
    for x, y in ((a, b), (b, a)):
        got = x.union(y)
        assert (got.los.tobytes(), got.his.tobytes()) == (
            np.array([p[0] for p in want]).tobytes(), np.array([p[1] for p in want]).tobytes())


def test_join_merges_touching_parts_in_the_head_or_tail():
    """Halves that are not runs where no window reaches: parts touching in
    the first run's head, then in the second run's tail."""
    for los, his, n in [([0.0, 0.1, 0.5], [0.1, 0.2, 0.6], 2),
                        ([0.0, 0.2, 0.3], [0.1, 0.3, 0.4], 1)]:
        got, _ = _join_is_one_normalization(np.array(los), np.array(his), n)
        assert got.n_parts == 2


def test_join_rejects_a_bad_part_as_construction_does():
    los, his = np.array([0.1, 0.5, 0.2]), np.array([0.2, 0.4, 0.3])
    for bad in (his, np.array([0.2, np.nan, 0.3])):
        with pytest.raises(SpecError, match="bad part"):
            IntervalSet._of_runs(los.copy(), bad.copy(), 2)


def test_normalize_copies_input_that_is_already_normalized():
    for los, his in [(np.array([]), np.array([])), (np.array([0.3]), np.array([0.3])),
                     (np.array([-0.0, 0.2, 0.5]), np.array([0.1, 0.2, 1.0]))]:
        out = _normalize(los, his)
        assert (out[0].tobytes(), out[1].tobytes()) == (los.tobytes(), his.tobytes())
        assert not np.shares_memory(out[0], los) and not np.shares_memory(out[1], his)
        s = IntervalSet(los=los, his=his)
        assert not s.los.flags.writeable and not s.his.flags.writeable
        assert los.flags.writeable and his.flags.writeable
    # one touching pair, and one -0.0 end against a 0.0 start, still merge
    for his_1, lo_2 in [(0.2, 0.2), (-0.0, 0.0)]:
        los, his = _normalize(np.array([0.0, lo_2, 0.5]), np.array([his_1, 0.3, 0.6]))
        assert (los.tolist(), his.tolist()) == ([0.0, 0.5], [0.3, 0.6])


# -- intersect ----------------------------------------------------------------


def test_intersect_absorbing():
    assert S((0.0, 1.0)).intersect(S((0.3, 0.4))) == S((0.3, 0.4))


def test_intersect_disjoint():
    assert S((0.0, 0.2)).intersect(S((0.5, 1.0))).is_empty()


def test_intersect_grid_oracle():
    a = S((0.0, 0.3), (0.6, 1.0))
    b = S((0.2, 0.7))
    got = a.intersect(b)
    assert got == S((0.2, 0.3), (0.6, 0.7))
    np.testing.assert_array_equal(
        grid_membership(got), grid_membership(a) & grid_membership(b))


def test_construction_leaves_caller_arrays_writeable():
    """The set freezes its own arrays, never the caller's, empty or not,
    and leaves their contents as they were."""
    cases = [(np.linspace(0.0, 0.5, n), np.linspace(0.1, 0.6, n)) for n in (0, 1, 3)]
    # unsorted, with parts nested in others and one touching its neighbour
    cases.append((np.array([0.5, 0.1, 0.55, 0.0, 0.12, 0.4, 0.3]),
                  np.array([0.8, 0.4, 0.6, 0.05, 0.2, 0.45, 0.35])))
    for a, b in cases:
        before = a.tobytes(), b.tobytes()
        s = IntervalSet(los=a, his=b)
        assert (a.tobytes(), b.tobytes()) == before
        assert a.flags.writeable and b.flags.writeable
        assert not s.los.flags.writeable and not s.his.flags.writeable
        assert not np.shares_memory(s.los, a) and not np.shares_memory(s.his, b)
    assert s.parts == [Interval(0.0, 0.05), Interval(0.1, 0.45), Interval(0.5, 0.8)]


# -- measure -------------------------------------------------------------------


def test_exact_sum_is_fsum_over_many_exponents():
    """-0.0, zeros, subnormals and normals over 40+ binary exponents, in no
    order: `math.fsum`, bit for bit, and the input unchanged."""
    rng = np.random.default_rng(34)
    d = np.concatenate([[-0.0, 0.0, 5e-324], rng.uniform(0.0, 2.0 ** -1022, 500),
                        np.ldexp(rng.uniform(1.0, 2.0, 3000), rng.integers(-1060, 0, 3000))])
    rng.shuffle(d)
    assert np.unique(np.frexp(d)[1]).size > 40 and np.signbit(d).sum() == 1
    before = d.tobytes()
    assert _exact_sum(np.zeros_like(d), d).hex() == math.fsum(d.tolist()).hex()
    assert d.tobytes() == before


def test_measure_empty():
    assert S().measure() == 0.0


def test_measure_appendix_partition():
    e = 1.0 / 100.0
    s = S((0.0, 1 / 3 - e), (1 / 3 + e, 2 / 3 - e), (2 / 3 + e, 1.0))
    assert s.measure() == pytest.approx(0.96, abs=1e-15)


def test_measure_two_parts():
    assert S((0.1, 0.2), (0.4, 0.7)).measure() == pytest.approx(0.4, abs=1e-15)


# -- point lookup ----------------------------------------------------------------


def test_part_containing_at_ends_in_gaps_and_outside():
    s = S((0.1, 0.2), (0.4, 0.7), (0.9, 1.0))
    for x, part in [(0.1, (0.1, 0.2)), (0.15, (0.1, 0.2)), (0.2, (0.1, 0.2)),
                    (0.4, (0.4, 0.7)), (0.7, (0.4, 0.7)), (0.9, (0.9, 1.0)), (1.0, (0.9, 1.0))]:
        assert s.part_containing(x) == Interval(*part)
    gaps = [math.nextafter(0.2, 1.0), 0.3, math.nextafter(0.4, 0.0), 0.8]
    for x in [0.0, math.nextafter(0.1, 0.0), *gaps, 1.5, math.nan]:
        assert s.part_containing(x) is None
    assert S().part_containing(0.5) is None


# -- interiority -----------------------------------------------------------------


def test_interior_strictly_inside():
    assert contained_in_interior(S((0.4, 0.6)), S((0.3, 0.7)))


def test_interior_boundary_touch_fails():
    assert not contained_in_interior(S((0.3, 0.7)), S((0.3, 0.7)))


def test_interior_overlapping_cover():
    a = S((0.45, 0.55))
    b = S((0.40, 0.50), (0.49, 0.60))
    assert b.n_parts == 1  # parts merge into one covering run
    assert contained_in_interior(a, b)


# -- hausdorff -----------------------------------------------------------------


def test_hausdorff_self_zero():
    x = S((0.1, 0.2), (0.5, 0.9))
    assert hausdorff_distance(x, x) == 0.0


def test_hausdorff_two_points():
    assert hausdorff_distance(S((0.0, 0.0)), S((1.0, 1.0))) == 1.0


def test_hausdorff_brute_force_value():
    # sup over endpoint candidates: farthest is 0.3 from [0, 0.1] -> 0.2
    assert hausdorff_distance(S((0.0, 0.1)), S((0.05, 0.3))) == pytest.approx(0.2, abs=1e-15)


def test_hausdorff_interior_gap_midpoint_case():
    # the farthest point of [0,1] from {0} ∪ {1} is the gap midpoint 0.5
    a = S((0.0, 1.0))
    b = S((0.0, 0.0), (1.0, 1.0))
    assert hausdorff_distance(a, b) == pytest.approx(0.5, abs=1e-15)


def test_hausdorff_empty_raises():
    with pytest.raises(SpecError):
        hausdorff_distance(S(), S((0.0, 1.0)))


# -- randomized property suite ---------------------------------------------------


@st.composite
def interval_sets(draw, max_parts=6):
    # distinct endpoints: closed-set complement semantics drop
    # measure-zero components, so degenerate parts are excluded here
    n = draw(st.integers(0, max_parts))
    pts = sorted(draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=2 * n, max_size=2 * n, unique=True)))
    return IntervalSet([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(interval_sets(), interval_sets())
def test_union_intersect_commutative(a, b):
    np.testing.assert_array_equal(grid_membership(a.union(b)), grid_membership(b.union(a)))
    np.testing.assert_array_equal(
        grid_membership(a.intersect(b)), grid_membership(b.intersect(a)))


@settings(max_examples=40, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_union_intersect_associative(a, b, c):
    np.testing.assert_array_equal(
        grid_membership(a.union(b).union(c)), grid_membership(a.union(b.union(c))))
    np.testing.assert_array_equal(
        grid_membership(a.intersect(b).intersect(c)),
        grid_membership(a.intersect(b.intersect(c))))


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_union_intersect_idempotent(a):
    np.testing.assert_array_equal(grid_membership(a.union(a)), grid_membership(a))
    np.testing.assert_array_equal(grid_membership(a.intersect(a)), grid_membership(a))


@settings(max_examples=60, deadline=None)
@given(interval_sets(), interval_sets())
@example(S((0.0, 6e-293)), S((1e-12, 0.25), (0.328, 0.5)))
def test_inclusion_exclusion(a, b):
    lhs = a.union(b).measure() + a.intersect(b).measure()
    assert lhs == pytest.approx(a.measure() + b.measure(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_complement_involution(a):
    unit = Interval(0.0, 1.0)
    cc = a.complement(unit).complement(unit)
    np.testing.assert_array_equal(grid_membership(cc), grid_membership(a))


@settings(max_examples=40, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_hausdorff_symmetry_triangle(a, b, c):
    for s in (a, b, c):
        if s.is_empty():
            return
    dab = hausdorff_distance(a, b)
    assert dab == hausdorff_distance(b, a)
    assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12


# -- grid sweep -----------------------------------------------------------------


def _meeting_oracle(cover, resolution):
    """The cells whose intersection with `cover` has positive measure."""
    n_grid = int(math.ceil((1.0 - TOL.eps_geom) / resolution))
    cells = [Interval(i * resolution, 1.0 if i == n_grid - 1 else min((i + 1) * resolution, 1.0))
             for i in range(n_grid)]
    return n_grid, [J for J in cells if cover.intersect(IntervalSet([J])).measure() > 0]


@pytest.mark.parametrize("cover, resolution", [
    (S((0.25, 0.5)), 0.125),                    # touches two cells at their endpoints
    (S((0.1, 0.2), (0.3, 0.3), (0.655, 0.655)), 0.01),  # degenerate parts on and off an edge
    (S((0.05, 0.93)), 0.01),                     # spans many cells
    (S(), 0.01),                                 # empty cover
    (S((0.0, 0.05), (0.61, 0.62), (0.95, 1.0)), 0.3),  # 0.3 does not divide 1
    (S((0.0, 0.001), (0.4, 0.400001), (0.999, 1.0)), 1 / 997),
    (S((0.0, 1.0)), 1 / 1050),
    (S((0.0, 1.0)), 1 / 1013),                   # 1013 * (1/1013) rounds below 1
])
def test_grid_cells_meeting_matches_oracle(cover, resolution):
    assert grid_cells(cover, resolution) == _meeting_oracle(cover, resolution)


def test_grid_cells_meeting_skips_touching_cells():
    n_grid, cells = grid_cells(S((0.25, 0.5), (0.75, 0.75), (0.8, 0.8)), 0.125)
    assert n_grid == 8
    assert cells == [Interval(0.25, 0.375), Interval(0.375, 0.5)]


@settings(max_examples=60, deadline=None)
@given(interval_sets(), st.sampled_from([0.3, 0.1, 1 / 7, 0.01, 1 / 997]))
def test_grid_cells_meeting_random(cover, resolution):
    assert grid_cells(cover, resolution) == _meeting_oracle(cover, resolution)


def test_grid_at_one_over_n_has_n_cells():
    """perfbench's certify sweep draws N from 950..1050; the golden sweep
    runs 1/1013."""
    for n in range(950, 1051):
        n_grid, cells = grid_cells(S((0.0, 1.0)), 1.0 / n)
        assert n_grid == len(cells) == n, n
        assert cells[-1].hi == 1.0, n
        assert min(J.length for J in cells) >= TOL.eps_geom, n


# -- CSV --------------------------------------------------------------------------


def test_csv_roundtrip():
    s = S((0.1234567890123456, 0.2), (0.5, 1.0 / 3.0 + 0.5))
    text = to_csv(s)
    assert from_csv(text) == s
    assert all(len(line.split(",")) == 2 for line in text.strip().splitlines())
