"""The vectorized path against its earlier form, kept here as the reference.

`eval_array` evaluates each segment on a slice of sorted points, `orbit`
merges sorted runs and cuts buckets where the key changes, and
`lambda_sequence` normalizes both images at once.  The reference below is
the form they replaced: a per-point segment gather, `np.unique` dedup after
a quicksort, and `f(Λ) ∪ g(Λ)` built from two normalized images.  Both must
give the same bytes."""

import numpy as np
import pytest

from cantorifs.construct import lambda_sequence
from cantorifs.intervals import TOL, IntervalSet
from cantorifs.ifs import orbit


def gather_eval_array(m, xs):
    """Each point looks up its segment and gathers that segment's row of
    the (n, 4) coefficient table."""
    xc = np.clip(np.asarray(xs, dtype=float), 0.0, 1.0)
    i = np.clip(np.searchsorted(m._bps, xc, side="left") - 1, 0, len(m.segments) - 1)
    c = m._coeffs[i]
    t = xc - m._bps[i]
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
        all_pts = _unique_dedup(np.sort(np.concatenate([all_pts, level])), eps)
        level = _unique_dedup(np.sort(level), eps)
    return all_pts


def _image(m, s):
    return IntervalSet(los=gather_eval_array(m, s.los), his=gather_eval_array(m, s.his))


def reference_lambda_sequence(pair, params, n):
    seq = [params.block_set]
    for _ in range(n):
        seq.append(_image(pair.f, seq[-1]).union(_image(pair.g, seq[-1])))
    return seq


@pytest.mark.parametrize("which", ["built_pair", "valid_affine"])
@pytest.mark.parametrize("seed", [0.0, 1.0, 0.37])
def test_orbit_matches_reference_bytes(request, which, seed):
    p = request.getfixturevalue(which)
    assert orbit(p, seed, 14).points.tobytes() == reference_orbit(p, seed, 14).tobytes()


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
