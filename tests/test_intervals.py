import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cantorifs.errors import SpecError
from cantorifs.intervals import (
    Interval,
    IntervalSet,
    Tolerance,
    contained_in_interior,
    from_csv,
    hausdorff_distance,
    intersect,
    measure,
    to_csv,
    union,
)

GRID = np.linspace(0.0, 1.0, 10_001)


def S(*parts):
    return IntervalSet(list(parts))


def grid_membership(s: IntervalSet) -> np.ndarray:
    return s.contains_points(GRID)


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


def test_tolerance_invariant():
    with pytest.raises(SpecError):
        Tolerance(eps_geom=1e-2, eps_newton=1e-12)
    with pytest.raises(SpecError):
        Tolerance(eps_geom=1e-9, eps_newton=1e-8)


# -- union ------------------------------------------------------------------


def test_union_identity_element():
    assert union(S((0.0, 1.0)), S()) == S((0.0, 1.0))


def test_union_touching_parts_merge():
    assert union(S((0.0, 0.2)), S((0.2, 0.5))) == S((0.0, 0.5))


def test_union_grid_oracle():
    a = S((0.0, 0.1), (0.3, 0.4))
    b = S((0.05, 0.35))
    got = union(a, b)
    assert got == S((0.0, 0.4))
    np.testing.assert_array_equal(
        grid_membership(got), grid_membership(a) | grid_membership(b))


# -- intersect ----------------------------------------------------------------


def test_intersect_absorbing():
    assert intersect(S((0.0, 1.0)), S((0.3, 0.4))) == S((0.3, 0.4))


def test_intersect_disjoint():
    assert intersect(S((0.0, 0.2)), S((0.5, 1.0))).is_empty()


def test_intersect_grid_oracle():
    a = S((0.0, 0.3), (0.6, 1.0))
    b = S((0.2, 0.7))
    got = intersect(a, b)
    assert got == S((0.2, 0.3), (0.6, 0.7))
    np.testing.assert_array_equal(
        grid_membership(got), grid_membership(a) & grid_membership(b))


# -- measure -------------------------------------------------------------------


def test_measure_empty():
    assert measure(S()) == 0.0


def test_measure_appendix_partition():
    e = 1.0 / 100.0
    s = S((0.0, 1 / 3 - e), (1 / 3 + e, 2 / 3 - e), (2 / 3 + e, 1.0))
    assert measure(s) == pytest.approx(0.96, abs=1e-15)


def test_measure_two_parts():
    assert measure(S((0.1, 0.2), (0.4, 0.7))) == pytest.approx(0.4, abs=1e-15)


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
    np.testing.assert_array_equal(grid_membership(union(a, b)), grid_membership(union(b, a)))
    np.testing.assert_array_equal(
        grid_membership(intersect(a, b)), grid_membership(intersect(b, a)))


@settings(max_examples=40, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_union_intersect_associative(a, b, c):
    np.testing.assert_array_equal(
        grid_membership(union(union(a, b), c)), grid_membership(union(a, union(b, c))))
    np.testing.assert_array_equal(
        grid_membership(intersect(intersect(a, b), c)),
        grid_membership(intersect(a, intersect(b, c))))


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_union_intersect_idempotent(a):
    np.testing.assert_array_equal(grid_membership(union(a, a)), grid_membership(a))
    np.testing.assert_array_equal(grid_membership(intersect(a, a)), grid_membership(a))


@settings(max_examples=60, deadline=None)
@given(interval_sets(), interval_sets())
@example(S((0.0, 6e-293)), S((1e-12, 0.25), (0.328, 0.5)))
def test_inclusion_exclusion(a, b):
    lhs = measure(union(a, b)) + measure(intersect(a, b))
    assert lhs == pytest.approx(measure(a) + measure(b), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_complement_involution(a):
    cc = a.complement().complement()
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


# -- CSV --------------------------------------------------------------------------


def test_csv_roundtrip():
    s = S((0.1234567890123456, 0.2), (0.5, 1.0 / 3.0 + 0.5))
    text = to_csv(s)
    assert from_csv(text) == s
    assert all(len(line.split(",")) == 2 for line in text.strip().splitlines())
