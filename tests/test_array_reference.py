"""The vectorized path against its earlier form, kept here as the reference.

`eval_array` evaluates each segment on a slice of sorted points, `orbit`
sorts each level only where f's and g's images interleave and cuts buckets
where the key changes (a fixed seed's cloud is its last level, which on
these pairs has the merge's bytes), and `lambda_sequence` unions its two
images, re-normalizing only where they interleave.  The reference below is
the form they replaced: a per-point segment gather, `np.unique` dedup after
a stable sort (so signed zeros keep their order), and `f(Λ) ∪ g(Λ)` from
gathered images, each step also checked against one normalization of both
raw images.  Both must give the same bytes.

The last kernels to change are checked against their earlier bodies in
`oracles.py`: the measure by extraction rounds, its lengths formed a chunk
at a time, against `math.fsum`, the run-end max of `_normalize` against
`np.maximum.reduceat`, and the float dedup keys against int64 keys.  The
tracemalloc peaks of `_dedup_sorted`, `orbit`, `_exact_sum` and
`check_measure_bound` pin that each builds its large arrays once and frees
its temporaries before its results."""

import math

import numpy as np
import pytest

from cantorifs import intervals
from cantorifs.construct import AppendixParams, appendix_pair, check_measure_bound, lambda_sequence
from cantorifs.intervals import TOL, IntervalSet, _exact_sum, _normalize
from cantorifs.ifs import _dedup_sorted, orbit
from cantorifs.maps import _FEW, MapSpec

from oracles import (dedup_by_int_keys, measure_by_fsum, normalize_by_reduceat,
                     orbit_by_sorted_copies, segment_coeffs, traced_peak)


def gather_eval_array(m, xs):
    """Each point looks up its segment and gathers that segment's row of
    the (n, 4) coefficient table."""
    xc = np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)
    bps = np.array([s.x_lo for s in m.segments])
    i = np.clip(np.searchsorted(bps, xc, side="left") - 1, 0, len(m.segments) - 1)
    c = np.array([segment_coeffs(s) for s in m.segments])[i]
    t = xc - bps[i]
    return ((c[..., 3] * t + c[..., 2]) * t + c[..., 1]) * t + c[..., 0]


def _unique_dedup(pts, eps):
    keys = np.floor(pts / eps).astype(np.int64)
    _, first = np.unique(keys, return_index=True)
    return pts[first]


def reference_orbit(p, seed, depth):
    eps = TOL.eps_geom
    level = np.array([seed])
    all_pts = level
    for _ in range(depth):
        level = np.concatenate([gather_eval_array(p.f, level), gather_eval_array(p.g, level)])
        all_pts = _unique_dedup(np.sort(np.concatenate([all_pts, level]), kind="stable"), eps)
        level = _unique_dedup(np.sort(level, kind="stable"), eps)
    return all_pts


def _image(m, s):
    return IntervalSet(los=gather_eval_array(m, s.los), his=gather_eval_array(m, s.his))


def reference_lambda_sequence(pair, params, n):
    seq = [IntervalSet(params.blocks)]
    for _ in range(n):
        seq.append(_image(pair.f, seq[-1]).union(_image(pair.g, seq[-1])))
    return seq


_REFERENCE_CASES = [pytest.param(which, seed, 14, id=f"{seed}-{which}")
                    for which in ("built_pair", "valid_affine") for seed in (0.0, -0.0, 1.0, 0.37)]
# The depths certify, gap_query's gate and `cloud` build, from the last level.
_REFERENCE_CASES += [pytest.param("built_pair", seed, depth, id=f"{seed}-built_pair-{depth}")
                     for seed in (0.0, 1.0) for depth in (18, 20)]


@pytest.mark.parametrize("which, seed, depth", _REFERENCE_CASES)
def test_orbit_matches_reference_bytes(request, which, seed, depth):
    p = request.getfixturevalue(which)
    assert orbit(p, seed, depth).points.tobytes() == reference_orbit(p, seed, depth).tobytes()


@pytest.mark.parametrize("seed", [0.0, 1.0])
def test_fixed_seed_cloud_is_the_dedup_of_its_images(appendix, seed):
    """On the appendix pair, where a fixed seed's cloud is not the merge of
    all levels from depth 18, each cloud is exactly the eps_geom dedup of
    the stable-sorted f(cloud(d-1)) ∪ g(cloud(d-1)), one point per bucket."""
    p = appendix[0]
    prev = orbit(p, seed, 17).points
    for depth in (18, 19, 20):
        want = _dedup_sorted(np.sort(np.concatenate([p.f.eval_array(prev), p.g.eval_array(prev)]),
                                     kind="stable"))
        got = orbit(p, seed, depth).points
        assert got.tobytes() == want.tobytes(), depth
        keys = np.floor(got / TOL.eps_geom)
        assert np.all(keys[1:] > keys[:-1]), depth
        prev = got


_SORTED_COPY_CASES = [pytest.param(which, seed, 16, id=f"{seed}-{which}")
                      for which in ("built_pair", "valid_affine", "appendix")
                      for seed in (0.0, -0.0, 1.0, 0.37)]
# The `cloud` workload's own orbits.
_SORTED_COPY_CASES += [pytest.param("built_pair", seed, 20, id=f"{seed}-built_pair-20")
                       for seed in (0.0, 1.0)]


@pytest.mark.parametrize("which, seed, depth", _SORTED_COPY_CASES)
def test_orbit_sorts_levels_in_place_to_the_same_bytes(request, which, seed, depth):
    """Sorting only the window of each level where f's and g's images
    interleave gives the bytes of sorting a copy of the whole level, -0.0
    included."""
    p = request.getfixturevalue(which)
    p = p[0] if which == "appendix" else p
    want = orbit_by_sorted_copies(p, seed, depth)
    assert orbit(p, seed, depth).points.tobytes() == want.tobytes()
    assert np.signbit(want[0]) == np.signbit(seed)


def test_orbit_sorts_a_level_whole_when_a_run_is_out_of_order(monkeypatch, valid_affine):
    """Float evaluation of an increasing map can step down an ulp.  Where
    f's images come out with two of them swapped, the window proof does not
    hold and the level is sorted whole, as a copy would be: seed 0.0, whose
    cloud is its last level, shows the level's order."""
    eval_into = MapSpec._eval_into

    def swapped(self, xc, out):
        eval_into(self, xc, out)
        if self is valid_affine.f and out.size > 2:
            out[1:3] = out[2:0:-1].copy()

    monkeypatch.setattr(MapSpec, "_eval_into", swapped)
    want = orbit_by_sorted_copies(valid_affine, 0.0, 12)
    assert orbit(valid_affine, 0.0, 12).points.tobytes() == want.tobytes()


def test_lambda_sequence_matches_reference_bytes(appendix):
    seq = lambda_sequence(*appendix, 14)
    ref = reference_lambda_sequence(*appendix, 14)
    assert len(seq) == len(ref) == 15
    for s, r in zip(seq, ref):
        assert s.los.tobytes() == r.los.tobytes()
        assert s.his.tobytes() == r.his.tobytes()


def test_eval_array_matches_gather_on_any_order(built_pair, appendix):
    rng = np.random.default_rng(20261018)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 5000), [0.0, 1.0]])
    for m in (built_pair.f, built_pair.g, appendix[0].f, appendix[0].g):
        for a in (np.sort(xs), xs, xs.reshape(2, -1)):
            assert m.eval_array(a).tobytes() == gather_eval_array(m, a).tobytes()


def test_eval_into_a_slice_is_eval_array(built_pair, appendix):
    """The routine `eval_array` calls fills exactly the slice it is given,
    with `eval_array`'s fresh bytes: for a few points, unsorted points and
    the flattened points of 2-D input."""
    rng = np.random.default_rng(20261020)
    xs = rng.uniform(0.0, 1.0, 64)
    cases = [np.sort(xs[:k]) for k in (0, 1, _FEW)] + [xs[:_FEW][::-1], xs, np.sort(xs),
                                                        xs.reshape(8, 8), np.array([-0.0, 1.0])]
    for m in (built_pair.f, built_pair.g, appendix[0].f, appendix[0].g):
        for x in cases:
            buf = np.full(x.size + 4, np.nan)
            m._eval_into(x.ravel(), buf[2:-2])
            assert buf[2:-2].tobytes() == m.eval_array(x).ravel().tobytes()
            assert np.isnan(buf[:2]).all() and np.isnan(buf[-2:]).all()


@pytest.mark.parametrize("eps,lam,n", [(0.01, 0.45, 20), (1 / 30, 0.45, 20),
                                       (0.05, 0.2, 18), (0.1, 0.3, 18)])
def test_lambda_measure_and_normalize_match_earlier_bodies(eps, lam, n):
    params = AppendixParams(eps=eps, lam=lam)
    pair = appendix_pair(params)
    seq = lambda_sequence(pair, params, n)
    for cur, nxt in zip(seq, seq[1:]):
        # both raw images normalized at once: the window merge of
        # `lambda_sequence`'s union must give the same floats
        los = np.concatenate([pair.f.eval_array(cur.los), pair.g.eval_array(cur.los)])
        his = np.concatenate([pair.f.eval_array(cur.his), pair.g.eval_array(cur.his)])
        new, ref = _normalize(los, his), normalize_by_reduceat(los, his)
        assert new[0].tobytes() == ref[0].tobytes() == nxt.los.tobytes()
        assert new[1].tobytes() == ref[1].tobytes() == nxt.his.tobytes()
    for s in seq:
        assert s.measure().hex() == measure_by_fsum(s).hex()


def _overlapping_parts(rng, n):
    """Bounds at scales from subnormal to 1, lengths zero, subnormal or
    normal, and some parts [0.0, -0.0]; the parts overlap freely."""
    scale = rng.choice([5e-324, 1e-310, 1e-300, 1e-12, 1e-3, 1.0], n)
    los = rng.uniform(0.0, 1.0, n) * scale
    length = rng.choice([0.0, 5e-324, 2.2e-308, 1e-9, 1e-2], n) * rng.integers(0, 4, n)
    his = los + length
    signed_zero = rng.random(n) < 0.05
    los[signed_zero], his[signed_zero] = 0.0, -0.0
    return los, his


def _disjoint_parts(rng, n):
    """2n + 1 parts that normalization keeps apart, in random order: lengths
    zero, subnormal and normal of many exponents near 0, normal ones in
    [0.5, 1], and the part [0.0, -0.0] of length -0.0."""
    k = rng.choice(10 ** 6, n, replace=False) + 1.0
    tiny = rng.choice([5e-324, 1e-310, 1e-305, 1e-301], n) * rng.uniform(0.0, 0.9, n)
    tiny[rng.random(n) < 0.1] = 0.0
    big_lo = 0.5 + k * 4e-7
    los = np.concatenate([k * 1e-300, big_lo, [0.0]])
    his = np.concatenate([k * 1e-300 + tiny, big_lo + rng.uniform(0.0, 3e-7, n), [-0.0]])
    order = rng.permutation(los.size)
    return los[order], his[order]


@pytest.mark.parametrize("seed", range(8))
def test_random_sets_match_earlier_bodies(seed):
    rng = np.random.default_rng(20261018 + seed)
    los, his = _overlapping_parts(rng, int(rng.integers(1, 3000)))
    new, ref = _normalize(los, his), normalize_by_reduceat(los, his)
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1].tobytes() == ref[1].tobytes()
    s = IntervalSet(los=los, his=his)
    assert s.measure().hex() == measure_by_fsum(s).hex()

    los, his = _disjoint_parts(rng, int(rng.integers(1, 3000)))
    s = IntervalSet(los=los, his=his)
    d = s.his - s.los
    assert s.n_parts == los.size
    assert np.signbit(d).sum() == 1 and ((d > 0) & (d < 2.0 ** -1022)).any()
    assert s.measure().hex() == measure_by_fsum(s).hex()


@pytest.mark.parametrize("length", [np.nextafter(1.0, 0.0), np.nextafter(2.0 ** -1022, 0.0)])
def test_exact_sum_of_many_lengths_with_every_mantissa_bit(length):
    # 2^20 copies of one length: a plain float sum rounds, the extraction rounds do not
    d = np.full(2 ** 20, length)
    assert (d.view(np.int64) & ((1 << 52) - 1) == (1 << 52) - 1).all()
    assert _exact_sum(np.zeros_like(d), d).hex() == math.fsum(d.tolist()).hex()


def test_exact_sum_is_exact_across_chunks(monkeypatch):
    monkeypatch.setattr(intervals, "_SUM_CHUNK", 3)
    rng = np.random.default_rng(7)
    sets = [IntervalSet(los=los, his=his)
            for los, his in (_disjoint_parts(rng, 1000), _overlapping_parts(rng, 2))]
    sets += lambda_sequence(appendix_pair(), AppendixParams(), 10)
    for s in sets:
        assert s.measure().hex() == measure_by_fsum(s).hex()
    d = np.full(10, np.nextafter(1.0, 0.0))
    assert _exact_sum(np.zeros_like(d), d).hex() == math.fsum(d.tolist()).hex()


@pytest.mark.parametrize("k, off", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 1), (3, 1)])
def test_exact_sum_of_lengths_at_chunk_multiples(k, off):
    """Lengths formed one chunk at a time, over every part: a part on
    either side of each chunk end, over 60 binary exponents."""
    n = k * intervals._SUM_CHUNK + off
    rng = np.random.default_rng(n)
    los = rng.uniform(0.0, 0.5, n)
    his = los + np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-62, -1, n))
    assert _exact_sum(los, his).hex() == math.fsum((his - los).tolist()).hex()


def test_exact_sum_takes_as_many_rounds_as_the_lengths_need():
    """Each extraction round reaches 52 - s bits or more below the last:
    1 - 2^-53 beside 2^-80 (1 + 2^-52) beside a subnormal takes four
    rounds, and the sum 1 + 2^-53 + 2^-1074, a tie without its third
    round's subnormal, rounds up only with it."""
    four = np.array([1.0 - 2.0 ** -53, 2.0 ** -80 * (1.0 + 2.0 ** -52), 3 * 2.0 ** -1074])
    tie = np.array([1.0, 2.0 ** -53, 2.0 ** -1074])
    assert math.fsum(tie.tolist()) == 1.0 + 2.0 ** -52 != math.fsum(tie[:2].tolist())
    for d in (four, tie):
        assert _exact_sum(np.zeros_like(d), d).hex() == math.fsum(d.tolist()).hex()


def test_exact_sum_of_subnormal_and_zero_chunks():
    """A chunk whose largest length is subnormal, chunks of 0.0 and of
    -0.0 lengths, and no lengths at all sum as `math.fsum` does."""
    rng = np.random.default_rng(5)
    sub = np.ldexp(rng.integers(1, 1 << 52, 1000).astype(float), -1074)
    assert sub.max() < 2.0 ** -1022
    cases = [(np.zeros_like(sub), sub)]
    zeros, neg = np.zeros(intervals._SUM_CHUNK), np.full(intervals._SUM_CHUNK, -0.0)
    cases += [(zeros, zeros), (zeros, neg), (np.concatenate([zeros, zeros]), np.concatenate([neg, zeros]))]
    cases += [(np.zeros(0), np.zeros(0))]
    for los, his in cases:
        assert _exact_sum(los, his).hex() == math.fsum((his - los).tolist()).hex()
    assert IntervalSet([]).measure().hex() == math.fsum([]).hex()


@pytest.mark.parametrize("parts", [[(0.5, math.inf)], [(-math.inf, 0.2)],
                                   [(0.0, 0.1), (0.2, 0.3), (0.4, 0.5), (0.6, math.inf)]])
def test_measure_of_an_infinite_part_is_nan(monkeypatch, parts):
    monkeypatch.setattr(intervals, "_SUM_CHUNK", 3)  # the last case's infinity in chunk 2
    assert math.isnan(IntervalSet(parts).measure())


def test_lambda_20_measure_is_fsum_of_its_lengths():
    s = lambda_sequence(appendix_pair(), AppendixParams(), 20)[-1]
    assert s.n_parts > 16 * intervals._SUM_CHUNK
    assert s.measure().hex() == math.fsum((s.his - s.los).tolist()).hex()


def test_dedup_float_keys_match_int_keys():
    eps = TOL.eps_geom
    k = np.arange(0, 2000, dtype=float)
    on_grid = k * eps
    pts = np.sort(np.concatenate([
        on_grid, np.nextafter(on_grid, -1.0), np.nextafter(on_grid, 2.0),
        [-0.0, 0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 1.0 - eps, 0.5, 0.5 + eps],
        np.random.default_rng(3).uniform(0.0, 1.0, 5000),
    ]), kind="stable")
    assert _dedup_sorted(pts).tobytes() == dedup_by_int_keys(pts).tobytes()
    for start in (1, 2):  # led by 0.0, then by -0.0
        assert pts[start] == 0.0 and np.signbit(pts[start]) == (start == 2)
        sub = pts[start:]
        assert _dedup_sorted(sub).tobytes() == dedup_by_int_keys(sub).tobytes()


@pytest.mark.parametrize("seed", [0.0, 1.0, 0.37])
def test_orbit_dedup_matches_int_keys_per_level(built_pair, seed):
    level = np.array([seed])
    all_pts = level
    for _ in range(12):
        level = np.concatenate([built_pair.f.eval_array(level), built_pair.g.eval_array(level)])
        merged = np.sort(np.concatenate([all_pts, level]), kind="stable")
        all_pts = _dedup_sorted(merged)
        assert all_pts.tobytes() == dedup_by_int_keys(merged).tobytes()
        level = dedup_by_int_keys(np.sort(level, kind="stable"))
    assert orbit(built_pair, seed, 12).points.tobytes() == all_pts.tobytes()


# -- memory: each large array allocated once, each temporary freed before the next ----------


def test_dedup_peak_is_its_mask_and_result(built_pair):
    """The float keys are freed before the gather: on a sorted depth-16
    level the peak over the input is 1.125 times its bytes, not 2.125."""
    level = orbit(built_pair, 0.0, 16).points
    assert traced_peak(lambda: _dedup_sorted(level)) < 1.5 * level.nbytes


def test_orbit_peak_is_one_level_buffer(built_pair):
    """f and g write a level into the halves of one buffer, sorted in
    place: 2.126 times the depth-18 cloud's bytes, where a concatenated
    copy of the two images read 3.126."""
    cloud = orbit(built_pair, 0.0, 18)
    assert traced_peak(lambda: orbit(built_pair, 0.0, 18)) < 2.5 * cloud.points.nbytes


def test_exact_sum_peak_is_its_two_chunk_buffers():
    """The lengths and their extracted part live in one chunk buffer each;
    every other step of a round writes into them."""
    s = lambda_sequence(appendix_pair(), AppendixParams(), 20)[-1]
    buffers = 2 * intervals._SUM_CHUNK * s.los.itemsize
    assert traced_peak(lambda: _exact_sum(s.los, s.his)) < buffers + 8192


def test_measure_bound_peak_is_one_step_buffer():
    """Each Λ step is built in one pair of buffers and measured a chunk at
    a time: 2.245 times Λ_18's bytes, where images wrapped, copied and
    joined anew read 2.861."""
    pair, params = appendix_pair(), AppendixParams()
    last = lambda_sequence(pair, params, 18)[-1]
    peak = traced_peak(lambda: check_measure_bound(pair, params, 18))
    assert peak < 2.4 * (last.los.nbytes + last.his.nbytes)
