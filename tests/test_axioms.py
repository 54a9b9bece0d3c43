import math
from itertools import islice

import numpy as np
import pytest

from cantorifs import axioms
from cantorifs.errors import (
    DegenerateHoleError,
    DomainError,
    IterationCapError,
    NoContractionError,
    RangeError,
)
from cantorifs.intervals import TOL, Interval, IntervalSet
from cantorifs.maps import (
    Affine,
    CubicHermite,
    MapSpec,
    Segment,
    affine_spec,
    iterate,
    symmetry_conjugate,
)
from cantorifs.ifs import IFSPair, fundamental_domain, validate_class_a
from cantorifs.axioms import (
    HolePair,
    RuinationRegions,
    boundary_sets,
    check_ca,
    check_ee,
    check_so,
    find_hole,
    induced_deriv,
    induced_discontinuities,
    induced_n,
    run_axiom_checks,
    ruination_parts,
    ruination_regions,
)
from cantorifs.construct import ClassCBuilder, ConstructionParams, bump_modify, epsilon_family_specs
from cantorifs.gapfinder import _invert_checked, certify_cantor

from oracles import (
    apply_word,
    ca_clearance,
    check_ee_by_domain,
    check_so_containment_form,
    dilate,
    ee_cells_by_domain,
    hole_chain,
    induced_discontinuities_by_scan,
    induced_map,
    induced_n_by_chain,
    induced_step_two_pass,
    middle_third,
    ruination_family,
    ruination_gridscan,
)

RNG = np.random.default_rng(4321)


@pytest.fixture(scope="module")
def eps_pair():
    params = ConstructionParams()
    f0, _, _, _ = bump_modify(params)
    return validate_class_a(*epsilon_family_specs(f0, k=0.005, eps=0.01)).as_pair()


# -- single overlapping ----------------------------------------------------------


def test_so_on_epsilon_family(eps_pair):
    rep = check_so(eps_pair)
    assert rep.ok
    # f^2(1) ~ 0.25 < g(0) ~ 0.49995
    assert rep.margin_left == pytest.approx(0.49995 - eps_pair.f.eval(0.50005), abs=1e-9)
    assert rep.margin_left > 0.2


def test_so_not_evaluated_without_class_a():
    # degenerate overlap is a class-A violation upstream of So
    from cantorifs.construct import base_pair

    f, g = base_pair()
    assert not validate_class_a(f, g).ok


def test_so_equivalence_of_forms():
    # inequality form vs containment form on 50 random affine pairs
    count_checked = 0
    for _ in range(200):
        a = RNG.uniform(0.3, 0.9)
        b = RNG.uniform(0.3, 0.9)
        f = affine_spec(a, 0.0)
        g = affine_spec(b, 1.0 - b)
        res = validate_class_a(f, g)
        if not res.ok:
            continue
        pair = res.as_pair()
        count_checked += 1
        ineq = check_so(pair).ok
        cont = check_so_containment_form(pair)
        assert ineq == cont, f"forms disagree at a={a}, b={b}"
        if count_checked >= 50:
            break
    assert count_checked >= 50


# -- hole -------------------------------------------------------------------------


def test_hole_fixed_interval(eps_pair):
    params = ConstructionParams()
    hole = find_hole(eps_pair, params.j_p)
    img = eps_pair.f.image_of(eps_pair.g.image_of(hole.h_f))
    assert abs(img.lo - hole.h_f.lo) <= 1e-9
    assert abs(img.hi - hole.h_f.hi) <= 1e-9


def test_hole_contains_inner_interval(eps_pair):
    params = ConstructionParams()
    f0, g0, jp_in, _ = bump_modify(params)
    hole = find_hole(eps_pair, params.j_p)
    assert hole.h_f.contains_interval(jp_in)


def test_hole_swap_property(eps_pair):
    params = ConstructionParams()
    hole = find_hole(eps_pair, params.j_p)
    img_g = eps_pair.g.image_of(hole.h_f)
    img_f = eps_pair.f.image_of(hole.h_g)
    assert max(abs(img_g.lo - hole.h_g.lo), abs(img_g.hi - hole.h_g.hi)) <= 1e-9
    assert max(abs(img_f.lo - hole.h_f.lo), abs(img_f.hi - hole.h_f.hi)) <= 1e-9


def test_hole_degenerates_for_affine_contraction():
    # f∘g affine with slope 1/4 and fixed point 0.35 in [0.3, 0.4]:
    # the nested images collapse to the fixed point
    f = MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.0875)),), label="toy_f")
    g = MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.35)),), label="toy_g")
    pair = IFSPair.of(f, g)
    assert f.eval(g.eval(0.35)) == pytest.approx(0.35, abs=1e-15)
    with pytest.raises(DegenerateHoleError):
        find_hole(pair, Interval(0.3, 0.4))


def test_hole_requires_contraction(valid_affine):
    # f∘g([0.5, 0.6]) = [0.399, 0.429] lands off the seed entirely
    with pytest.raises(NoContractionError):
        find_hole(valid_affine, Interval(0.5, 0.6))


def test_hole_limit_must_converge(built_ctx, monkeypatch):
    # f∘g(x) = 0.9025x + 0.0475 contracts too slowly: after 200 steps the
    # nested images still move by ~1e-11 per step, so no limit is certified
    pair = IFSPair.of(affine_spec(0.95, 0.0), affine_spec(0.95, 0.05))
    with pytest.raises(IterationCapError):
        find_hole(pair, Interval(0.4, 0.6))

    # run_axiom_checks reports it as a verdict, like the other hole failures
    def stalled(p, seed):
        raise IterationCapError("stalled")

    monkeypatch.setattr(axioms, "find_hole", stalled)
    rep = run_axiom_checks(built_ctx["pair"], Interval(0.33, 0.34), 1.01)
    assert rep.hole_error == "stalled" and not rep.ok


def _bits(iv: Interval) -> tuple[str, str]:
    return iv.lo.hex(), iv.hi.hex()


@pytest.mark.parametrize("case", ["built", "eps", "degenerate", "no contraction", "slow"])
def test_hole_limit_is_the_image_of_chain_bit_for_bit(built, eps_pair, valid_affine, case):
    """`find_hole` iterates f∘g on the two end floats; its limit is the
    last interval of the `image_of` chain bit for bit, and a hole failure
    names the chain's interval where it stopped: on the built and ε pairs
    and on the pairs of the hole tests above."""
    pair, seed = {
        "built": lambda: (built[0], built[2].params.j_p),
        "eps": lambda: (eps_pair, ConstructionParams().j_p),
        "degenerate": lambda: (IFSPair.of(MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.0875)),)),
                                          MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.35)),))),
                               Interval(0.3, 0.4)),
        "no contraction": lambda: (valid_affine, Interval(0.5, 0.6)),
        "slow": lambda: (IFSPair.of(affine_spec(0.95, 0.0), affine_spec(0.95, 0.05)),
                         Interval(0.4, 0.6)),
    }[case]()
    chain = hole_chain(pair, seed)
    if case in ("built", "eps"):
        hole = find_hole(pair, seed)
        assert len(chain) < 201 and _bits(hole.h_f) == _bits(chain[-1])
        assert _bits(hole.h_g) == _bits(pair.g.image_of(chain[-1]))
        if case == "built":
            assert _bits(built[1].hole.h_f) == _bits(hole.h_f)
        return
    with pytest.raises(axioms.HOLE_VERDICTS) as err:
        find_hole(pair, seed)
    stop = {"degenerate": f"hole limit {chain[-1]} has length",
            "no contraction": f"f(g(seed)) = {chain[1]} is not inside",
            "slow": f"did not converge in 200 steps; last {chain[-1]}"}[case]
    assert stop in str(err.value)
    assert (len(chain) == 201) is (case == "slow")


def test_axiom_checks_build_few_intervals(built, monkeypatch):
    """The hole limit and the ruination families carry their ends as
    floats, and the ladder readers read rungs, not fundamental domains: on
    maps rebuilt from the built pair's segments, `run_axiom_checks` builds
    F1, G1, their parts outside W, f(g(seed)), h_f, h_g and f(h_g), and no
    `Interval` per step."""
    f, g = MapSpec(built[0].f.segments), MapSpec(built[0].g.segments)
    pair, seed = validate_class_a(f, g).as_pair(), built[2].params.j_p
    made = []
    post_init = Interval.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted)
    rep = run_axiom_checks(pair, seed, built[1].axioms.ee.mu_target)
    assert rep.ok
    assert len(made) <= 8


# -- induced maps --------------------------------------------------------------------


def _induced_n_domain_oracle(pair, x, which="F"):
    """Independent route: locate f^{-1}(x) in the fundamental-domain ladder
    by comparing against iterated endpoint images; n = ladder index - 1."""
    first = pair.f if which == "F" else pair.g
    y = first.inverse_eval(x)
    for k in range(60):
        dom = fundamental_domain(pair, "g" if which == "F" else "f", k)
        if dom.lo <= y <= dom.hi:
            return k - 1
    raise AssertionError("ladder search failed")


def test_induced_n_base_case(built_ctx):
    pair = built_ctx["pair"]
    g1 = fundamental_domain(pair, "g", 1)
    # x with f^{-1}(x) in G1 has n = 0
    x = pair.f.eval(g1.mid)
    assert induced_n(pair, x, "F") == 0


def test_induced_n_minimality(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    g1 = fundamental_domain(pair, "g", 1)
    xs = RNG.uniform(f1.lo, f1.hi, 64)
    for x in xs:
        if abs(x - f1.hi) < 1e-9:
            continue
        n = induced_n(pair, float(x), "F")
        y = pair.f.inverse_eval(float(x))
        for _ in range(n):  # strictly before n the point is outside G1
            if n:
                assert not (g1.lo <= y <= g1.hi) or _ == 0 and n == 0
            y = pair.g.inverse_eval(y)
        assert g1.lo <= y <= g1.hi


def test_induced_n_matches_domain_oracle(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    xs = RNG.uniform(f1.lo, f1.hi - 1e-6, 1000)
    for x in xs:
        assert induced_n(pair, float(x), "F") == _induced_n_domain_oracle(pair, float(x))

    # n jumps at first(return^j(seed)), j >= 2: recompute those sites
    # directly, walking until consecutive sites agree to eps_newton
    sub = Interval(f1.mid, f1.hi - 1e-3 * f1.length)
    for which, first, ret, seed, regions in (
        ("F", pair.f, pair.g, 0.0, (pair.f1, sub)),
        ("G", pair.g, pair.f, 1.0, (pair.g1,)),
    ):
        direct = [first.eval(iterate(ret, 2, seed))]
        for j in range(3, 202):
            direct.append(first.eval(iterate(ret, j, seed)))
            if abs(direct[-1] - direct[-2]) < pair.tol.eps_newton:
                break
        for region in regions:
            expect = sorted(x for x in direct if region.lo < x < region.hi)
            assert expect
            assert induced_discontinuities(pair, which, region) == expect
    assert len(induced_discontinuities(pair, "F", sub)) < len(induced_discontinuities(pair, "F", f1))


def test_induced_discontinuities_slice_matches_scan(built_ctx, eps_pair):
    """Regions with ends exactly on sites, one ulp either side of them, on
    the domain's ends, and degenerate ones: the bisect slice is the scan."""
    for pair in (built_ctx["pair"], eps_pair):
        for which, sites, dom in (("F", pair.jumps_F, pair.f1), ("G", pair.jumps_G, pair.g1)):
            ends = [dom.lo, dom.hi, *sites[:6], *sites[-6:], sites[len(sites) // 2]]
            ends = sorted({q for e in ends for q in (e, math.nextafter(e, 0.0),
                                                      math.nextafter(e, 1.0))})
            regions = [Interval(a, b) for a in ends for b in ends if a <= b]
            assert len(regions) > 500
            for region in regions:
                assert (induced_discontinuities(pair, which, region)
                        == induced_discontinuities_by_scan(pair, which, region))


def test_jump_sites_are_one_read_only_array_per_branch(built_ctx):
    """Each branch's sites are built once, as a sorted float array that the
    pair caches and nobody can write; `induced_discontinuities` still hands
    out a list of Python floats."""
    pair = built_ctx["pair"]
    for which, dom in (("F", pair.f1), ("G", pair.g1)):
        sites = axioms._oriented(pair, which)[4]
        assert sites is axioms._oriented(pair, which)[4]
        assert sites.dtype == np.float64 and not sites.flags.writeable
        assert (np.diff(sites) >= 0).all()
        got = induced_discontinuities(pair, which, dom)
        assert got and all(type(x) is float for x in got)


def _inverse_calls(monkeypatch, fn):
    """fn's result and the (map, argument) of each `inverse_eval` it made."""
    calls = []
    inverse_eval = MapSpec.inverse_eval

    def recording(self, y):
        calls.append((id(self), y))
        return inverse_eval(self, y)

    with monkeypatch.context() as mp:
        mp.setattr(MapSpec, "inverse_eval", recording)
        out = fn()
    return out, calls


def _walk_step(pair, which, iv):
    """The gap walk's induced step of the one window iv: its n read
    (`induced_n`, which is `_site_counts` and, where that reads -1, the
    chain) and its inversions (`gapfinder._invert_checked`, with the
    midpoint's chain first where an inversion fails); (n, image), or the
    window's error raised."""
    n = induced_n(pair, iv.mid, which)
    first, ret, _, _, _ = axioms._oriented(pair, which)
    chain = lambda j: axioms._inverse_orbit(pair, which, iv.mid)
    lo, hi, errors = _invert_checked(first, ret, np.array([n]), np.array([iv.lo]),
                                     np.array([iv.hi]), chain)
    if errors:
        raise errors[0]
    return n, Interval(float(lo[0]), float(hi[0]))


def test_induced_step_matches_two_passes(built_ctx, monkeypatch):
    """The walk's step of one window: same n, same floats, and the ends'
    `inverse_eval` calls of two passes in the same order; the midpoint's
    chain is not run."""
    pair = built_ctx["pair"]
    ns = set()
    for which, dom in (("F", pair.f1), ("G", pair.g1)):
        for a, b in RNG.uniform(dom.lo, dom.hi, (200, 2)):
            iv = Interval(*sorted((float(a), float(b))))
            if 0.5 * (iv.lo + iv.hi) in (pair.f1.hi, pair.g1.lo):
                continue
            got, calls = _inverse_calls(monkeypatch, lambda: _walk_step(pair, which, iv))
            want, want_calls = _inverse_calls(
                monkeypatch, lambda: induced_step_two_pass(pair, which, iv))
            n = got[0]
            assert n == want[0]
            assert (got[1].lo.hex(), got[1].hi.hex()) == (want[1].lo.hex(), want[1].hi.hex())
            # two passes: the midpoint's n + 1 calls, then lo and hi by turns
            assert len(calls) == 2 * (n + 1) and len(want_calls) == 3 * (n + 1)
            assert calls == want_calls[n + 1:]
            ns.add(n)
    assert {0, 1, 2, 3} <= ns


def _inversions(monkeypatch, fn):
    """fn's result and its inversions: the points through
    `MapSpec.inverse_array` and the `inverse_eval` calls made outside it."""
    count, inside = [0], [0]
    inverse_eval, inverse_array = MapSpec.inverse_eval, MapSpec.inverse_array

    def counted_eval(self, y):
        count[0] += not inside[0]
        return inverse_eval(self, y)

    def counted_array(self, ys):
        count[0] += np.size(ys)
        inside[0] += 1
        try:
            return inverse_array(self, ys)
        finally:
            inside[0] -= 1

    with monkeypatch.context() as mp:
        mp.setattr(MapSpec, "inverse_eval", counted_eval)
        mp.setattr(MapSpec, "inverse_array", counted_array)
        out = fn()
    return out, count[0]


def test_certify_sweep_inverts_only_the_ends(built_ctx, monkeypatch):
    """The 1e-2 sweep's inversions, in arrays and one by one: each induced
    step inverts its two ends only (1,128 when it also ran the midpoint's
    chain)."""
    c = built_ctx
    rep, inversions = _inversions(monkeypatch, lambda: certify_cantor(
        c["pair"], c["hole"], c["ruin"], c["bsets"], resolution=1e-2, depth=14, mu=c["mu"]))
    assert rep.all_certified and rep.n_certified == 100
    assert inversions == 820


def _n_or_error(fn):
    try:
        return fn()
    except (DomainError, RangeError, IterationCapError) as e:
        return type(e).__name__, str(e)


def test_induced_n_site_read_matches_chain(built_ctx):
    """The site read gives the chain's n, or raises the chain's error, at
    every cached site and the float on each side of it, at the domain's
    ends and just past them, and at 20,000 seeded points per branch, on the
    built pair, an ε-family pair and a slow pair (slopes 0.9)."""
    rng = np.random.default_rng(26)
    slow = validate_class_a(affine_spec(0.9, 0.0), affine_spec(0.9, 0.1)).as_pair()
    errors = set()
    for pair in (built_ctx["pair"], ClassCBuilder().pair_at(0.05).pair, slow):
        for which, sites, dom in (("F", pair.jumps_F, pair.f1), ("G", pair.jumps_G, pair.g1)):
            ends = [e + d for e in (dom.lo, dom.hi)
                    for d in (0.0, -0.5 * TOL.eps_geom, 0.5 * TOL.eps_geom, -2 * TOL.eps_geom,
                              2 * TOL.eps_geom)]
            xs = [q for s in (*sites, *ends)
                  for q in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0))]
            for x in xs + rng.uniform(dom.lo, dom.hi, 20_000).tolist():
                want = _n_or_error(lambda: induced_n_by_chain(pair, x, which))
                assert _n_or_error(lambda: induced_n(pair, x, which)) == want, (which, x)
                if isinstance(want, tuple):
                    errors.add(want[0])
    assert errors == {"DomainError", "RangeError", "IterationCapError"}


def _error(fn) -> tuple[str, str] | None:
    try:
        fn()
    except (DomainError, RangeError, IterationCapError) as e:
        return type(e).__name__, str(e)
    return None


def test_induced_step_errors_follow_the_midpoint():
    """On a slow pair (slopes 0.9) the walk's step of one window (its n read
    and its inversions) gives the midpoint's verdict first, as in two
    passes: an end that leaves a map's image raises only once the
    midpoint's chain has landed.  Both branches."""
    pair = validate_class_a(affine_spec(0.9, 0.0), affine_spec(0.9, 0.1)).as_pair()
    tiny = 1e-11
    cases = {
        # the removed endpoints f(1) and g(0) as midpoints
        ("F", DomainError): Interval(pair.f1.hi - 1e-3, pair.f1.hi + 1e-3),
        ("G", DomainError): Interval(pair.g1.lo - 1e-3, pair.g1.lo + 1e-3),
        # midpoint within eps_geom past the domain: its own first inverse fails
        ("F", RangeError): Interval(pair.f1.hi + 1e-10, pair.f1.hi + 9e-10),
        # midpoint over 100 steps from the codomain, one end off the image
        ("F", IterationCapError): Interval(pair.f1.lo, 2 * (pair.f1.hi - tiny) - pair.f1.lo),
        ("G", IterationCapError): Interval(2 * (pair.g1.lo + tiny) - pair.g1.hi, pair.g1.hi),
    }
    for (which, err), iv in cases.items():
        got = _error(lambda: _walk_step(pair, which, iv))
        assert got is not None and got[0] == err.__name__, (which, iv, got)
        assert got == _error(lambda: induced_step_two_pass(pair, which, iv))
    # the midpoint lands and an end does not: the end's RangeError, as in
    # two passes, after the midpoint's whole chain
    for which, iv in (("F", Interval(pair.f1.mid, pair.f1.hi + 5e-10)),
                      ("G", Interval(pair.g1.lo - 5e-10, pair.g1.mid))):
        got = _error(lambda: _walk_step(pair, which, iv))
        assert got is not None and got[0] == "RangeError"
        assert got == _error(lambda: induced_step_two_pass(pair, which, iv))


def test_induced_map_codomain(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    g1 = fundamental_domain(pair, "g", 1)
    xs = RNG.uniform(f1.lo, f1.hi - 1e-9, 1000)
    for x in xs:
        y = induced_map(pair, "F", float(x))
        assert g1.lo - 1e-12 <= y <= g1.hi + 1e-12
    xs = RNG.uniform(g1.lo + 1e-9, g1.hi, 500)
    for x in xs:
        y = induced_map(pair, "G", float(x))
        assert f1.lo - 1e-12 <= y <= f1.hi + 1e-12


def test_induced_map_roundtrip_word(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    xs = RNG.uniform(f1.lo, f1.hi - 1e-6, 200)
    for x in xs:
        n = induced_n(pair, float(x), "F")
        y = induced_map(pair, "F", float(x))
        # apply g^n then f: returns x
        back = apply_word(pair.f, pair.g, "F" + "G" * n, y)
        assert back == pytest.approx(float(x), abs=1e-9)


def test_induced_deriv_chain_rule_base(built_ctx):
    pair = built_ctx["pair"]
    g1 = fundamental_domain(pair, "g", 1)
    x = pair.f.eval(g1.mid)
    assert induced_n(pair, x, "F") == 0
    expect = 1.0 / pair.f.deriv(pair.f.inverse_eval(x))
    assert induced_deriv(pair, "F", x) == pytest.approx(expect, rel=1e-12)


def test_induced_deriv_finite_difference(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    sites = induced_discontinuities(pair, "F", f1)
    bps = [s.x_lo for s in pair.f.segments] + [s.x_lo for s in pair.g.segments]
    h = 1e-8
    checked = 0
    for x in RNG.uniform(f1.lo + 1e-4, f1.hi - 1e-3, 4000):
        x = float(x)
        if any(abs(x - s) < 1e-4 for s in sites):
            continue
        if induced_n(pair, x - h, "F") != induced_n(pair, x + h, "F"):
            continue
        fd = (induced_map(pair, "F", x + h) - induced_map(pair, "F", x - h)) / (2 * h)
        d = induced_deriv(pair, "F", x)
        if abs(fd) < 1e-3:
            continue
        assert d == pytest.approx(fd, rel=1e-5)
        checked += 1
        if checked >= 300:
            break
    assert checked >= 300


def test_induced_deriv_affine_factor_value(eps_pair):
    # on slope-1/2 runs each inverse factor is exactly 2
    params = ConstructionParams()
    g1 = fundamental_domain(eps_pair, "g", 1)
    x = eps_pair.f.eval(g1.mid)
    assert induced_deriv(eps_pair, "F", x) == pytest.approx(2.0, rel=1e-12)


def test_induced_deriv_walks_inverse_chain_once(built_ctx, monkeypatch):
    pair = built_ctx["pair"]
    calls = []
    inverse_eval = MapSpec.inverse_eval

    def counting(self, *args):
        calls.append(args)
        return inverse_eval(self, *args)

    ns = set()
    for x in RNG.uniform(pair.f1.lo, pair.f1.hi - 1e-6, 50):
        n = induced_n(pair, float(x), "F")
        ns.add(n)
        monkeypatch.setattr(MapSpec, "inverse_eval", counting)
        calls.clear()
        induced_deriv(pair, "F", float(x))
        monkeypatch.setattr(MapSpec, "inverse_eval", inverse_eval)
        assert len(calls) == n + 1
    assert max(ns) >= 2


def test_induced_map_domain_error(built_ctx):
    pair = built_ctx["pair"]
    f1 = fundamental_domain(pair, "f", 1)
    with pytest.raises(DomainError):
        induced_n(pair, f1.hi, "F")  # the removed endpoint f(1)


@pytest.mark.parametrize("call", [
    lambda p, h: induced_n(p, 0.3, "H"),
    lambda p, h: _walk_step(p, "H", Interval(0.3, 0.31)),
    lambda p, h: induced_deriv(p, "H", 0.3),
    lambda p, h: induced_discontinuities(p, "H", Interval(0.0, 1.0)),
], ids=["induced_n", "induced_step", "induced_deriv", "induced_discontinuities"])
def test_induced_maps_refuse_a_bad_branch(built_ctx, call):
    with pytest.raises(DomainError) as err:
        call(built_ctx["pair"], built_ctx["hole"])
    assert str(err.value) == "which must be 'F' or 'G', got 'H'"


# -- eventual expansion -----------------------------------------------------------------


def test_ee_passes_on_constructed(built_ctx):
    rep = check_ee(built_ctx["pair"], built_ctx["hole"], mu_target=1.01)
    assert rep.ok and rep.mu > 1.0 and rep.tails_enclosed


def test_ee_fail_reports_min_site(built_ctx):
    # shrink the hole: the exposed bump region has contracting derivative
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    small = HolePair(middle_third(middle_third(hole.h_f)),
                     middle_third(middle_third(hole.h_g)), 0.0)
    rep = check_ee(pair, small, mu_target=1.0)
    assert not rep.ok
    assert rep.mu < 1.0
    # the offending site sits inside the true hole (the excluded-bump zone)
    assert (hole.h_f.contains(rep.min_site, 1e-9)
            or hole.h_g.contains(rep.min_site, 1e-9))


def test_ee_fault_propagates(built_ctx, monkeypatch):
    # an evaluation that faults is not skipped: a cell left out would leave
    # its part of the domain unchecked
    def broken(self, y):
        raise IterationCapError("inverse_eval stalled")

    monkeypatch.setattr(MapSpec, "inverse_eval", broken)
    with pytest.raises(IterationCapError):
        check_ee(built_ctx["pair"], built_ctx["hole"], mu_target=1.01)


def _interior_grid(c, n=41):
    return np.linspace(c.lo, c.hi, n + 2)[1:-1]


@pytest.mark.parametrize("which", ["F", "G"])
def test_ee_cell_bounds_below_induced_deriv(built_ctx, which):
    # every cell's bound is a lower bound of the induced derivative on it,
    # n(x) is the cell's n inside it, and the cells with the hole removed
    # and the accumulation cell cover the whole domain
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    h = hole.h_f if which == "F" else hole.h_g
    dom = pair.f1 if which == "F" else pair.g1
    cells, tail = axioms.expansion_cells(pair, hole)["FG".index(which)]
    assert tail is not None
    assert sum(c.lo == h.hi or c.hi == h.lo for c in cells) == 2  # next to the hole
    assert any(pair.overlap.contains_interval(Interval(c.lo, c.hi)) for c in cells)  # in W
    for c in cells:
        for x in _interior_grid(c):
            assert induced_n_by_chain(pair, float(x), which) == c.n
            assert c.bound <= induced_deriv(pair, which, float(x))
    assert tail.hi == dom.hi if which == "F" else tail.lo == dom.lo  # f(1) / g(0)
    for x in _interior_grid(tail, 9):
        assert induced_n(pair, float(x), which) >= tail.n
        assert tail.bound <= induced_deriv(pair, which, float(x))
    parts = sorted([(c.lo, c.hi) for c in cells] + [(tail.lo, tail.hi), (h.lo, h.hi)])
    assert parts[0][0] == dom.lo and parts[-1][1] == dom.hi
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))


def test_bisect_passes_when_both_halves_clear_the_target(built_ctx):
    """A cell below mu_target whose halves both bound above it is replaced
    by those halves, and no failing piece is reported."""
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    found = []
    for which, (cells, _) in zip("FG", axioms.expansion_cells(pair, hole)):
        first = axioms._oriented(pair, which)[0]
        for c in cells:
            halves = [axioms.EeCell(a, b, c.n, c.chain, axioms._first_bound(first, c.chain, a, b))
                      for a, b in ((c.lo, c.mid), (c.mid, c.hi))]
            if min(half.bound for half in halves) > c.bound:
                found.append((c, first, sorted(halves, key=lambda half: half.bound)))
    assert found
    cell, first, halves = min(found, key=lambda f: f[0].bound)
    mu_target = (cell.bound + halves[0].bound) / 2.0
    assert cell.bound < mu_target < halves[0].bound
    assert axioms._bisect(first, cell, mu_target) == (halves, False)
    left, right = sorted(halves, key=lambda half: half.lo)
    assert (left.lo, left.hi, right.hi) == (cell.lo, right.lo, cell.hi)


@pytest.mark.parametrize("d_fixed, enclosed", [(0.9, True), (1.0, False)])
def test_ee_tail_needs_return_map_below_one(d_fixed, enclosed):
    # g's last segment ends at its fixed point 1 with derivative d_fixed, and
    # f is its mirror image: at d_fixed = 1 no k has max g' <= 1 on the
    # padded [g^k(0), 1], so neither accumulation cell is enclosed
    rep = check_ee(*_tail_pair(d_fixed), mu_target=1.01)
    assert rep.tails_enclosed is enclosed
    assert rep.ok is enclosed
    assert rep.mu > 1.01


def _tail_pair(d_fixed):
    """The pair of `test_ee_tail_needs_return_map_below_one` and its hole."""
    g = MapSpec((Segment(0.0, 0.5, Affine(0.5, 0.45)),
                 Segment(0.5, 1.0, CubicHermite(0.7, 1.0, 0.5, d_fixed))))
    pair = validate_class_a(symmetry_conjugate(g), g).as_pair()
    h_f = Interval(0.38, 0.39)
    return pair, HolePair(h_f, pair.g.image_of(h_f), 0.0)


@pytest.mark.parametrize("case", ["built", "eps", "tail 0.9", "tail 1.0"])
def test_ee_matches_the_per_cell_oracle_bit_for_bit(built_ctx, eps_pair, case):
    """Every cell float of both branches and every report field equal the
    per-cell loop's (`fundamental_domain` per domain, scalar `max_deriv`),
    on targets that pass, fail and force bisection of many cells."""
    if case == "built":
        pair, hole = built_ctx["pair"], built_ctx["hole"]
    elif case == "eps":
        pair, hole = eps_pair, find_hole(eps_pair, ConstructionParams().j_p)
    else:
        pair, hole = _tail_pair(float(case.split()[1]))
    expect = (ee_cells_by_domain(pair, "F", hole.h_f), ee_cells_by_domain(pair, "G", hole.h_g))
    assert repr(axioms.expansion_cells(pair, hole)) == repr(expect)
    samples = set()
    for mu_target in (1.01, 1.5, 1.9, 2.0, 2.5, 50.0):
        rep = check_ee(pair, hole, mu_target)
        assert repr(rep) == repr(check_ee_by_domain(pair, hole, mu_target))
        samples.add(rep.samples)
    assert len(samples) > 1  # some target bisects


# -- ruination regions ---------------------------------------------------------------


def _parts(pair, hole, fam) -> list[Interval]:
    """The parts whose ends `ruination_parts` returns, each end equal bit
    for bit to `oracles.ruination_family`'s."""
    los, his = ruination_parts(pair, hole, fam)
    parts = [Interval(lo, hi) for lo, hi in zip(los, his, strict=True)]
    expect = islice(ruination_family(pair, hole, fam), len(parts))
    assert [_bits(part) for part in parts] == [_bits(part) for part in expect]
    return parts


def test_ruination_midpoints_map_into_hole(built_ctx):
    pair, hole, ruin = built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"]
    for n, part in enumerate(_parts(pair, hole, "f")[:12]):
        y = induced_map(pair, "F", part.mid)
        assert hole.h_g.contains(y, 1e-9), f"Q_{n} midpoint escapes h_g"
    for n, part in enumerate(_parts(pair, hole, "g")[:8]):
        y = induced_map(pair, "G", part.mid)
        assert hole.h_f.contains(y, 1e-9), f"P_{n} midpoint escapes h_f"


def test_ruination_parts_accumulate(built_ctx):
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    f1_hi = pair.f.eval(1.0)
    mids = [p.mid for p in _parts(pair, hole, "f")]
    assert all(a < b for a, b in zip(mids, mids[1:]))  # increase toward f(1)
    assert f1_hi - mids[-1] < f1_hi - mids[0]
    g0 = pair.g.eval(0.0)
    mids_g = [p.mid for p in _parts(pair, hole, "g")]
    assert all(a > b for a, b in zip(mids_g, mids_g[1:]))  # decrease toward g(0)


def test_ruination_matches_gridscan(built_ctx):
    pair, hole, ruin = built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"]
    scan = ruination_gridscan(pair, hole, "f", grid_n=100_000)
    f1 = fundamental_domain(pair, "f", 1)
    cell = f1.length / 100_000
    # compare at grid resolution: symmetric difference below 1e-4
    closed = dilate(ruin.r_f, cell, clip=Interval(0.0, 1.0))
    sym = scan.difference(closed).measure() + ruin.r_f.difference(dilate(scan, cell)).measure()
    assert sym < 1e-4


def test_ruination_index_bookkeeping(built_ctx):
    """Part n of a family sits at index n: Q_0 = f(h_g), P_0 = g(h_f); the
    ends are the family's first parts' in order, bit for bit (`_parts`),
    up to the first part shorter than eps_geom."""
    pair, hole = built_ctx["pair"], built_ctx["hole"]
    for fam, first in (("f", pair.f.image_of(hole.h_g)), ("g", pair.g.image_of(hole.h_f))):
        parts = _parts(pair, hole, fam)
        assert _bits(parts[0]) == _bits(first)
        assert next(islice(ruination_family(pair, hole, fam), len(parts), None)).length < TOL.eps_geom


# -- castration --------------------------------------------------------------------------


def test_ca_passes_on_castrated(built_ctx):
    rep = check_ca(built_ctx["pair"], built_ctx["ruin"])
    assert rep.ok and rep.g0_in_rf and rep.f1_in_rg
    assert rep.min_margin >= 1e-9


def test_ca_fails_before_castration(builder, built_report):
    alpha = built_report.alphas[built_report.n_final]
    pair0 = builder.pair_at(alpha).as_pair()
    hole0 = find_hole(pair0, builder.params.j_p)
    ruin0 = ruination_regions(pair0, hole0)
    rep = check_ca(pair0, ruin0)
    assert not rep.ok
    assert rep.witness is not None
    w = pair0.overlap
    assert w.lo < rep.witness < w.hi  # witness in a gap of r_f ∪ r_g


def test_ca_endpoint_membership_necessary(built_ctx):
    # drop the part containing g(0) from r_f: immediately false
    pair, hole, ruin = built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"]
    w = pair.overlap
    kept = IntervalSet([p for p in ruin.r_f.parts if not p.contains(w.lo)])
    from cantorifs.axioms import RuinationRegions

    broken = RuinationRegions(kept, ruin.r_g)
    rep = check_ca(pair, broken)
    assert not rep.ok and not rep.g0_in_rf


# eps_geom rounded down to a multiple of ulp(1/2), less one: 1/2 +- it is exact
_JUST_BELOW_EPS = (math.floor(TOL.eps_geom * 2**53) - 1) * 2.0**-53


@pytest.mark.parametrize("lo, hi, witness", [
    (0.5 - 2.0**-20, 0.5 + 2.0**-20, None),
    (0.5 - _JUST_BELOW_EPS, 0.5 + _JUST_BELOW_EPS, 0.5),
    (0.49, 0.49, 0.49),
], ids=["overlap", "overlap-below-eps", "touch"])
def test_ca_margin_is_the_depth_where_two_parts_cross(valid_affine, lo, hi, witness):
    """W = [0.45, 0.55]; the r_f part [0.25, hi] overlaps the r_g part
    [lo, 0.75] by hi - lo.  Their edges cross at (lo + hi)/2, (hi - lo)/2 deep
    in both: that is the minimum clearance over W, not the hi - lo that
    either part end sits inside the other part.  Parts that only touch
    (lo == hi) cover their common end with clearance 0: the interior of
    their union holds it, but neither family's interior does."""
    rep = check_ca(valid_affine, RuinationRegions(IntervalSet([(0.25, hi)]),
                                                  IntervalSet([(lo, 0.75)])))
    assert rep.min_margin == (hi - lo) / 2
    assert rep.g0_in_rf and rep.f1_in_rg
    assert rep.ok == (witness is None) and rep.witness == witness


def test_ca_counts_only_r_f_at_g0(valid_affine):
    """r_g holds g(0) = 0.45 deeply, but castration needs g(0) in int(r_f):
    g(0) has clearance 0, and is the witness."""
    rep = check_ca(valid_affine, RuinationRegions(IntervalSet([(0.46, 0.6)]),
                                                  IntervalSet([(0.3, 0.75)])))
    assert not rep.ok and not rep.g0_in_rf and rep.f1_in_rg
    assert rep.min_margin == 0.0 and rep.witness == 0.45


def test_ca_margin_is_the_minimum_clearance_over_w(built_ctx):
    """On the built pair the margin is at most the clearance at each point of
    a dense grid over W, and equal to it at the minimizer among those points,
    the part ends and every midway point between one family's part hi and the
    other's part lo."""
    pair, ruin = built_ctx["pair"], built_ctx["ruin"]
    w = pair.overlap
    rep = check_ca(pair, ruin)
    grid = np.linspace(w.lo, w.hi, 200_001)
    assert rep.min_margin <= ca_clearance(ruin, w, grid).min()
    f, g = ruin.r_f, ruin.r_g
    ends = np.concatenate([f.los, f.his, g.los, g.his])
    mids = np.concatenate([0.5 * np.add.outer(a.his, b.los).ravel() for a, b in ((f, g), (g, f))])
    xs = np.concatenate([grid, ends, mids])
    xs = xs[(w.lo <= xs) & (xs <= w.hi)]
    assert rep.min_margin == ca_clearance(ruin, w, xs).min() > TOL.eps_geom


# -- boundary sets ---------------------------------------------------------------------------


def test_boundary_contains_domain_corners(built_ctx):
    pair, bsets = built_ctx["pair"], built_ctx["bsets"]
    f1 = fundamental_domain(pair, "f", 1)
    g1 = fundamental_domain(pair, "g", 1)
    assert list(bsets) == sorted(set(bsets))  # one sorted tuple, no repeats
    # f^2(1), f(1), g(0), g^2(0)
    for v in (f1.lo, f1.hi, g1.lo, g1.hi):
        assert v in bsets


def test_boundary_contains_hole_endpoints(built_ctx):
    hole, bsets = built_ctx["hole"], built_ctx["bsets"]
    for v in (hole.h_f.lo, hole.h_f.hi, hole.h_g.lo, hole.h_g.hi):
        assert any(abs(b - v) < 1e-12 for b in bsets)


def test_boundary_points_are_part_endpoints(built_ctx):
    hole, ruin, bsets = built_ctx["hole"], built_ctx["ruin"], built_ctx["bsets"]
    pair = built_ctx["pair"]
    rfrg = ruin.r_f.intersect(ruin.r_g)
    f1 = fundamental_domain(pair, "f", 1)
    g1 = fundamental_domain(pair, "g", 1)
    candidates = set()
    for hole_part in (hole.h_f, hole.h_g):
        s = IntervalSet([hole_part]).union(rfrg)
        candidates.update(float(v) for v in np.concatenate([s.los, s.his]))
    candidates.update([f1.lo, f1.hi, g1.lo, g1.hi])
    for b in bsets:
        assert any(abs(b - c) < 1e-12 for c in candidates)


def test_rfrg_parts_sit_inside_w(built_ctx):
    pair, ruin = built_ctx["pair"], built_ctx["ruin"]
    rfrg = ruin.rfrg
    assert rfrg == ruin.r_f.intersect(ruin.r_g)
    assert not rfrg.is_empty()
    w = pair.overlap
    for part in rfrg.parts:
        assert w.lo - 1e-12 <= part.lo and part.hi <= w.hi + 1e-12
