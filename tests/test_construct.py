import math
from itertools import islice, product, takewhile

import numpy as np
import pytest

from cantorifs.errors import (
    BracketError, ConstructionError, DegenerateHoleError, DomainError, ResourceCapError, SpecError)
from cantorifs.intervals import Interval, IntervalSet
from cantorifs.maps import (
    CubicHermite,
    MapSpec,
    Segment,
    affine_spec,
    iterate_interval,
    pair_from_json,
    pair_to_json,
    symmetry_conjugate,
    symmetry_residual,
)
from cantorifs.ifs import IFSPair, validate_class_a
from cantorifs.axioms import (
    RuinationRegions, check_ca, check_so, expansion_cells, find_hole, ruination_regions)
from cantorifs.construct import (
    AppendixParams,
    ClassCBuilder,
    ConstructionParams,
    appendix_pair,
    base_pair,
    build_class_c_example,
    build_gamma,
    bump_modify,
    castrate,
    check_measure_bound,
    epsilon_family_specs,
    lambda_sequence,
    lambda_sets,
)

from oracles import (
    certify_cantor_by_complement,
    contains_points,
    h_prime,
    phi_rescale,
    phi_rescale_interval,
    ruination_family,
    x_of_full_pair,
)


# -- base pair -----------------------------------------------------------------


def test_base_pair_values():
    f, g = base_pair()
    assert f.eval(1.0) == 0.5 and g.eval(0.0) == 0.5


def test_base_composition_fixed_point_is_p():
    # f*(g*(x)) = x/4 + 1/4 has fixed point 1/3, which is why p = 1/3
    f, g = base_pair()
    x = 1.0 / 3.0
    assert f.eval(g.eval(x)) == pytest.approx(x, abs=1e-15)


# -- bump modification ------------------------------------------------------------


def test_bump_containments_with_margin():
    params = ConstructionParams()
    f0, g0, jp_in, jq_in = bump_modify(params)
    m = params.jp_width / 100.0
    assert g0.image_of(jp_in).contains_interval(jq_in, m)
    assert f0.image_of(jq_in).contains_interval(jp_in, m)


def test_bump_agrees_with_base_outside_windows():
    params = ConstructionParams()
    f0, g0, _, _ = bump_modify(params)
    f_star, g_star = base_pair()
    jq, jp = Interval(params.q - params.jp_width / 2, params.q + params.jp_width / 2), params.j_p
    for x in np.linspace(0.0, 1.0, 2001):
        x = float(x)
        if not jq.contains(x):
            assert f0.eval(x) == pytest.approx(f_star.eval(x), abs=1e-14)
        if not jp.contains(x):
            assert g0.eval(x) == pytest.approx(g_star.eval(x), abs=1e-14)


def test_bump_inner_window_doubles():
    params = ConstructionParams()  # bump_strength 4 -> per-map slope 2
    f0, _, _, jq_in = bump_modify(params)
    img = f0.image_of(jq_in)
    assert img.length >= 2.0 * jq_in.length - 1e-15


def test_bump_strength_bounds():
    with pytest.raises(SpecError):
        ConstructionParams(bump_strength=2.0)
    with pytest.raises(SpecError):
        ConstructionParams(bump_strength=4.7)


@pytest.mark.parametrize("kwargs", [{"p": 0.34}, {"q": 0.66}, {"epsilon_range": Interval(0.0, 0.1)},
                                    {"delta_max": 0.125}])
def test_construction_params_fix_the_bump_centres(kwargs):
    """p and q are set by the base pair, and the eps family bounds its own
    window."""
    with pytest.raises(TypeError):
        ConstructionParams(**kwargs)
    params = ConstructionParams()
    assert (params.p, params.q) == (1.0 / 3.0, 2.0 / 3.0)
    assert params.j_p == Interval(1.0 / 3.0 - 0.005, 1.0 / 3.0 + 0.005)


def test_bump_symmetry():
    params = ConstructionParams()
    f0, g0, _, _ = bump_modify(params)
    assert symmetry_residual(f0, g0) <= 1e-12


# -- epsilon family ----------------------------------------------------------------


def test_epsilon_family_exact_overlap():
    params = ConstructionParams()
    f0, _, _, _ = bump_modify(params)
    pair = validate_class_a(*epsilon_family_specs(f0, k=0.005, eps=0.01)).as_pair()
    assert pair.f.eval(1.0) == pytest.approx(0.50005, abs=1e-15)
    assert pair.g.eval(0.0) == pytest.approx(0.49995, abs=1e-15)
    assert check_so(pair).ok
    assert pair.f.eval(pair.f.eval(1.0)) == pytest.approx(0.25, abs=1e-3)


def test_reachable_corner_monotone_to_one():
    b = ClassCBuilder()
    eps_seq = [0.02, 0.01, 0.005, 0.0025, 0.00125]
    xs = [x_of_full_pair(b, e) for e in eps_seq]
    assert all(a < bb for a, bb in zip(xs, xs[1:]))  # increases as eps decreases
    assert xs[-1] > 1.0 - 1e-4  # converges to 1


def test_epsilon_rejects_window_escape():
    params = ConstructionParams()
    f0, _, _, _ = bump_modify(params)
    with pytest.raises(ConstructionError):
        validate_class_a(*epsilon_family_specs(f0, k=0.005, eps=0.49)).as_pair()


def test_alpha0_pair_fault_propagates(monkeypatch):
    """A fault while building the pair at alpha_0 leaves the build as it
    is: it is not read as a verdict on the candidate."""
    import cantorifs.construct as construct

    def faulting(f0, k, eps):
        raise SpecError("injected pair fault")

    monkeypatch.setattr(construct, "epsilon_family_specs", faulting)
    with pytest.raises(SpecError, match="injected pair fault"):
        build_class_c_example()


def test_x_of_guards_the_eps_window(builder):
    """x(eps) is read off pairs that `epsilon_family_specs` builds, which
    refuses an eps outside the family's window."""
    for eps in (0.0, math.nan):
        with pytest.raises(DomainError):
            epsilon_family_specs(builder.f0, builder.params.k, eps)
    with pytest.raises(ConstructionError):  # 4*eps*k/(1 + 2*eps) >= k - k/50 at the default k
        epsilon_family_specs(builder.f0, builder.params.k, 0.49)


# The default parameters and two corners of the construct parameter box.
BOX_SAMPLES = pytest.mark.parametrize("params", [
    ConstructionParams(),
    ConstructionParams(jp_width=0.008, k=0.004, bump_strength=3.5),
    ConstructionParams(jp_width=0.01, k=0.006, bump_strength=4.5),
], ids=["default", "box_low", "box_high"])


@BOX_SAMPLES
def test_hole_at_alpha0_is_the_reference_hole(params):
    """The hole does not depend on eps: `hole_ref`, found on the bump pair,
    is bit for bit the hole of the eps-pairs at alpha_0 and at eps = 1/16,
    so the construction does not search the pair at alpha_0 again."""
    _, report, b = build_class_c_example(params)
    assert find_hole(b.pair_at(report.alpha0).as_pair(), b.params.j_p) == b.hole_ref
    mid = IFSPair.of(*epsilon_family_specs(b.f0, params.k, 0.0625))
    assert find_hole(mid, params.j_p) == b.hole_ref


# -- H'_p --------------------------------------------------------------------------


def test_h_prime_part_zero_is_the_hole(builder):
    pair = builder.pair_at(0.01).as_pair()
    hp = builder.hole_ref.h_f
    parts = h_prime(pair.g, hp).parts
    assert parts[0].lo == pytest.approx(hp.lo, abs=1e-12)
    assert parts[0].hi == pytest.approx(hp.hi, abs=1e-12)


def test_h_prime_accumulates_to_one(builder):
    pair = builder.pair_at(0.01).as_pair()
    parts = h_prime(pair.g, builder.hole_ref.h_f).parts
    mids = [p.mid for p in parts]
    assert all(a < b for a, b in zip(mids, mids[1:]))
    assert mids[-1] > 0.999


def test_h_prime_eps_independent(builder):
    p1 = builder.pair_at(0.01).as_pair()
    p2 = builder.pair_at(0.02).as_pair()
    s1 = h_prime(p1.g, builder.hole_ref.h_f).parts[:13]
    s2 = h_prime(p2.g, builder.hole_ref.h_f).parts[:13]
    for a, b in zip(s1, s2):
        assert abs(a.lo - b.lo) <= 1e-9 and abs(a.hi - b.hi) <= 1e-9


def test_h_prime_self_similarity(builder):
    # g(H'_p) = H'_p ∩ g(I): forward image of part j is part j+1
    pair = builder.pair_at(0.01).as_pair()
    parts = h_prime(pair.g, builder.hole_ref.h_f).parts[:11]
    for a, b in zip(parts, parts[1:]):
        img = pair.g.image_of(a)
        assert img.lo == pytest.approx(b.lo, abs=1e-12)
        assert img.hi == pytest.approx(b.hi, abs=1e-12)


# -- C parameter and alphas -------------------------------------------------------------


def test_c_parameter_membership_margin(builder):
    eps, pair = builder.find_c_parameter(builder.params.n_target)
    assert pair == builder.pair_at(eps).pair
    target = iterate_interval(builder.g0, builder.params.n_target, builder.hole_ref.h_f)
    x = x_of_full_pair(builder, eps)
    assert target.lo + target.length / 10 <= x <= target.hi - target.length / 10


def test_iterate_interval_is_the_image_loop(builder):
    """Stopping at an image that is its argument bit for bit changes no
    result: for every n up to 200, past the step (about 54) where g0's
    image of the hole becomes [1, 1], each map's n-th image is that of an
    explicit `image_of` loop, bit for bit."""
    h = builder.hole_ref.h_f
    for m in (builder.f0, builder.g0):
        iv = h
        for n in range(201):
            got = iterate_interval(m, n, h)
            assert (got.lo.hex(), got.hi.hex()) == (iv.lo.hex(), iv.hi.hex()), n
            iv = m.image_of(iv)
    assert iterate_interval(builder.g0, 200, h) == Interval(1.0, 1.0)


def test_c_parameter_bracket_verified(builder):
    with pytest.raises(BracketError):
        builder.find_c_parameter(2)  # no finite eps reaches the target


def test_c_parameter_ordering(builder):
    e10, _ = builder.find_c_parameter(10)
    e11, _ = builder.find_c_parameter(11)
    assert e11 < e10  # larger n -> smaller eps


def test_alpha_zero_reproduces(builder, built_report):
    alpha0 = built_report.alpha0
    seq = builder.alpha_sequence(alpha0, builder.pair_at(alpha0).as_pair(), 1)
    assert seq[0] == pytest.approx(alpha0, abs=1e-10)


@pytest.mark.parametrize("jp_width,k,strength", list(product(
    (0.008, 0.009, 0.010), (0.004, 0.005, 0.006), (3.5, 4.0, 4.5))))
def test_closed_form_alphas_reach_their_targets(jp_width, k, strength):
    """Over the corners of the golden CONSTRUCT_BOX, x(alpha_n) lands within
    4 ulps of g^n_{alpha_0}(x(alpha_0)), the target the closed form solves,
    and alpha_0 is alpha0 itself."""
    b = ClassCBuilder(ConstructionParams(jp_width=jp_width, k=k, bump_strength=strength))
    alpha0, pair0 = b.find_c_parameter(b.params.n_target)
    g_a0 = pair0.g
    target = x_of_full_pair(b, alpha0)
    alphas = b.alpha_sequence(alpha0, pair0, 13)
    assert len(alphas) == 13 and alphas[0] == alpha0
    for alpha in alphas:
        assert abs(x_of_full_pair(b, alpha) - target) <= 4 * math.ulp(target)
        target = g_a0.eval(target)


def test_symmetric_pair_expands_equally_on_both_branches(builder, built_report):
    """The pair at alpha_0 is its own diagonal mirror, so F and G have the
    same least cell bound; a breakpoint gap that `deriv` extrapolated across
    broke the tie on F."""
    pair = builder.pair_at(built_report.alpha0).as_pair()
    hole = find_hole(pair, builder.params.j_p)
    least = [min(c.bound for c in [*cells, tail]) for cells, tail in expansion_cells(pair, hole)]
    assert least[0] == least[1]


def test_alpha_strictly_decreasing(built_report):
    alphas = built_report.alphas
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_alphas_stay_in_c(builder, built_report):
    h = h_prime(builder.g0, builder.hole_ref.h_f)
    assert len(built_report.alphas) == 13
    for a in built_report.alphas:
        assert h.part_containing(x_of_full_pair(builder, a)) is not None


# -- phi rescaling ----------------------------------------------------------------------


def test_phi_identity():
    w = Interval(0.2, 0.4)
    assert phi_rescale(w, w, 0.3) == 0.3


def test_phi_endpoints():
    a, b = Interval(0.1, 0.3), Interval(0.6, 0.7)
    assert phi_rescale(a, b, 0.1) == 0.6
    assert phi_rescale(a, b, 0.3) == 0.7


def test_phi_domain_error():
    with pytest.raises(DomainError):
        phi_rescale(Interval(0.1, 0.3), Interval(0.6, 0.7), 0.5)


def test_phi_equivariance_of_ruination_regions(builder, built_report):
    """Rescaled ruination regions coincide across the alpha family."""
    alphas = built_report.alphas

    def in_w_parts(alpha, fam):
        p = builder.pair_at(alpha).as_pair()
        h = find_hole(p, builder.params.j_p)
        # the family's parts down to a 1e-13 floor, finer than eps_geom
        kept = takewhile(lambda iv: iv.length >= 1e-13,
                         islice(ruination_family(p, h, fam), 10_001))
        s = IntervalSet(list(kept)).intersect(IntervalSet([p.overlap]))
        parts = s.parts
        # enumerate from each family's accumulation start: r_f parts from
        # g(0) upward, r_g parts from f(1) downward
        return p.overlap, (parts[:5] if fam == "f" else parts[::-1][:5])

    for m, n in [(0, 1), (0, 2), (1, 2)]:
        for fam in ("f", "g"):
            wm, pm = in_w_parts(alphas[m], fam)
            wn, pn = in_w_parts(alphas[n], fam)
            assert len(pm) == len(pn) == 5
            for a, b in zip(pm, pn):
                mapped = phi_rescale_interval(wm, wn, a)
                assert abs(mapped.lo - b.lo) <= 1e-7
                assert abs(mapped.hi - b.hi) <= 1e-7


# -- gamma and castration ----------------------------------------------------------------


def test_gamma_is_a_diffeomorphism(builder, built_report):
    pair0 = builder.pair_at(built_report.alpha0).as_pair()
    hole0 = find_hole(pair0, builder.params.j_p)
    ruin0 = ruination_regions(pair0, hole0)
    gamma = build_gamma(ruin0, pair0.overlap)
    assert gamma.eval(0.0) == pytest.approx(0.0, abs=1e-15)
    assert gamma.eval(1.0) == pytest.approx(1.0, abs=1e-12)
    assert gamma.deriv(0.0) == 1.0 and gamma.deriv(1.0) == 1.0
    for x in np.linspace(0, 1, 501):
        assert gamma.deriv(float(x)) > 0


def test_gamma_is_the_identity_when_the_end_parts_already_overlap(builder, built_report):
    """When the r_f part holding g(0) reaches past where the r_g part holding
    f(1) starts, no stretch is needed: gamma is the identity, and castrating
    with it leaves g as it was."""
    pair0 = builder.pair_at(built_report.alpha0).as_pair()
    w = pair0.overlap
    ruin = RuinationRegions(
        r_f=IntervalSet([Interval(w.lo - 0.01, w.lo + 0.6 * w.length)]),
        r_g=IntervalSet([Interval(w.lo + 0.4 * w.length, w.hi + 0.01)]))
    gamma = build_gamma(ruin, w)
    assert gamma.label == "gamma[id]" and len(gamma.segments) == 1
    same = castrate(pair0.g, gamma, w)
    xs = np.linspace(0.0, 1.0, 10_001)
    assert max(abs(same.eval(float(x)) - pair0.g.eval(float(x))) for x in xs) == 0.0


def test_identity_gamma_fails_covering(builder, built_report):
    # negative control: castration with the identity changes nothing
    alpha = built_report.alphas[built_report.n_final]
    pair_n = builder.pair_at(alpha).as_pair()
    hole = find_hole(pair_n, builder.params.j_p)
    ruin = ruination_regions(pair_n, hole)
    assert not check_ca(pair_n, ruin).ok


def test_castrate_inverse_formula_roundtrip(built_pair):
    w = built_pair.overlap
    for x in np.linspace(w.lo + 1e-9, w.hi - 1e-9, 101):
        y = built_pair.g.inverse_eval(float(x))
        assert built_pair.g.eval(y) == pytest.approx(float(x), abs=1e-9)


def test_castrate_intact_outside_window(builder, built_report, built_pair):
    alpha = built_report.alphas[built_report.n_final]
    g_plain = builder.pair_at(alpha).as_pair().g
    s_hi = g_plain.inverse_eval(built_pair.overlap.hi)
    for x in np.linspace(s_hi + 1e-9, 1.0, 257):
        assert built_pair.g.eval(float(x)) == pytest.approx(g_plain.eval(float(x)), abs=1e-13)


def test_castrated_pair_passes_ca(built_ctx):
    rep = check_ca(built_ctx["pair"], built_ctx["ruin"])
    assert rep.ok


# -- full pipeline ----------------------------------------------------------------------


def test_pipeline_all_axioms(built_report):
    ax = built_report.axioms
    assert ax.ok
    assert ax.so.margin_left >= 1e-9 and ax.so.margin_right >= 1e-9
    assert ax.ee.mu > 1.0
    assert ax.ca.min_margin >= 1e-9
    assert ax.corner_derivs_below_one


def test_castration_hole_fault_is_a_failed_attempt(built_report, monkeypatch):
    """A castrated candidate whose hole search faults is recorded as a failed
    attempt, and the loop goes on to the next index."""
    import cantorifs.axioms as axioms
    import cantorifs.construct as construct

    real = axioms.find_hole
    faulted = []

    def find_hole_faulting_once(p, seed):
        if p.g.label.endswith(".castrated") and not faulted:
            faulted.append(p.g.label)
            raise DegenerateHoleError("injected hole fault")
        return real(p, seed)

    # both binding sites, so the fault is hit whichever one the loop calls
    monkeypatch.setattr(axioms, "find_hole", find_hole_faulting_once)
    monkeypatch.setattr(construct, "find_hole", find_hole_faulting_once)
    _, report, _ = build_class_c_example()
    assert len(faulted) == 1
    n, alpha, mu, ee_ok, ca_ok = report.attempts[0]
    assert (n, alpha) == (0, built_report.alphas[0])
    assert np.isnan(mu) and not ee_ok and not ca_ok
    assert report.n_final >= 1 and report.axioms.ok


@pytest.fixture(scope="module")
def n20_failure() -> str:
    with pytest.raises(ConstructionError) as info:
        build_class_c_example(ConstructionParams(n_target=20))
    return str(info.value)


def test_class_a_failure_at_alpha_n_is_a_failed_attempt(n20_failure):
    """At n_target = 20 the pairs at alpha_9..alpha_12 fail class A (their
    overlap is narrower than eps_geom).  Each is a failed attempt like any
    other, so the construction ends in a ConstructionError that lists all 13."""
    assert all(f"n={n} " in n20_failure for n in range(13))
    assert "n=12 mu=nan ee=False ca=False" in n20_failure


def test_failed_attempts_name_the_check_that_stopped_them(n20_failure):
    attempts = n20_failure.split("attempts: ")[1].split("; ")
    assert len(attempts) == 13
    for n, text in enumerate(attempts):
        assert text.startswith(f"n={n} ")
        assert text.endswith("ee=True ca=False failed: ca" if n <= 8 else
                             "failed: class A of the alpha_n pair: 0 < g(0) < f(1) < 1")


def test_class_a_failure_at_alpha0_is_a_construction_error(monkeypatch):
    import cantorifs.construct as construct
    from cantorifs.ifs import ValidationResult, Violation

    b = ClassCBuilder()
    failing = ValidationResult(False, None, (Violation("f(0) = 0", 0.0, "injected"),))
    monkeypatch.setattr(construct, "validate_class_a", lambda f, g: failing)
    with pytest.raises(ConstructionError, match="fails class A: f\\(0\\) = 0"):
        b.find_c_parameter(b.params.n_target)


def test_default_build_makes_one_epsilon_pair(monkeypatch):
    """The only eps-pair a default build makes is the pair at alpha_0: the
    hole is found on the bump pair, x(alpha_0) and g_alpha_0 are read off
    the pair at alpha_0, which is also the n = 0 candidate.  Class A is
    validated twice, on that pair and on its castration."""
    import cantorifs.construct as construct

    calls, validated = [], []

    def counted(f0, k, eps):
        calls.append(eps)
        return epsilon_family_specs(f0, k, eps)

    def counted_validate(f, g):
        validated.append(g.label)
        return validate_class_a(f, g)

    monkeypatch.setattr(construct, "epsilon_family_specs", counted)
    monkeypatch.setattr(construct, "validate_class_a", counted_validate)
    _, report, _ = build_class_c_example()
    assert report.n_final == 0
    assert calls == [report.alpha0]
    assert len(validated) == 2 and validated[1].endswith(".castrated")


def test_pipeline_serialization_roundtrip(built_pair, built_report):
    text = pair_to_json(built_pair.f, built_pair.g)
    f2, g2 = pair_from_json(text)
    res = validate_class_a(f2, g2)
    assert res.ok
    pair2 = res.as_pair()
    hole2 = find_hole(pair2, ConstructionParams().j_p)
    assert hole2.h_f.lo == pytest.approx(built_report.hole.h_f.lo, abs=1e-12)
    ruin2 = ruination_regions(pair2, hole2)
    assert check_ca(pair2, ruin2).ok


def test_pipeline_symmetry_of_precastration_stages(built_report, builder):
    assert built_report.symmetry_residual_precastration <= 1e-9
    f0, g0 = builder.f0, builder.g0
    assert symmetry_residual(f0, g0) <= 1e-9


def test_pipeline_report_text(built_report):
    text = built_report.to_text()
    assert "all_axioms: ok" in text
    assert "param_n_target" in text and "alpha0" in text


def test_constructed_maps_strictly_monotone(built_pair, appendix):
    rng = np.random.default_rng(5)
    for m in (built_pair.f, built_pair.g, appendix[0].f, appendix[0].g):
        xs = np.sort(rng.uniform(0.0, 1.0, 2000))
        assert bool(np.all(np.diff(m.eval_array(xs)) > 0))


# -- appendix -----------------------------------------------------------------------------


def test_appendix_inclusions_hold(appendix):
    pair, params = appendix
    i_m1, i_0, i_1 = params.blocks
    f, g = pair.f, pair.g
    assert i_m1.contains_interval(f.image_of(i_m1))
    assert i_m1.contains_interval(f.image_of(i_0), 1e-6)
    assert i_0.contains_interval(f.image_of(i_1), 1e-6)
    assert i_1.contains_interval(g.image_of(i_1))
    assert i_1.contains_interval(g.image_of(i_0), 1e-6)
    assert i_0.contains_interval(g.image_of(i_m1), 1e-6)


def test_appendix_pair_allows_an_ulp_past_the_fixed_point():
    """At (eps, lam) = (0.05, 0.2) g evaluates g(1) one ulp above 1, inside
    the eps_geom that class A allows at the fixed point; the pair builds and
    its measure bound holds."""
    params = AppendixParams(eps=0.05, lam=0.2)
    pair = appendix_pair(params)
    assert pair.g.eval(1.0) > 1.0
    rep = check_measure_bound(pair, params, 20)
    assert rep.ok and rep.ratio_ok


def test_measure_bound_failure_verdicts():
    """A pair whose measures shrink at its own lam = 0.45 fails both the
    bound (2*0.2)^n and the per-step ratio 2*0.2 of lam = 0.2."""
    rep = check_measure_bound(appendix_pair(AppendixParams(lam=0.45)),
                              AppendixParams(lam=0.2), 5)
    assert not rep.ok and not rep.ratio_ok
    assert "measure_bound_ok: False\nmeasure_ratio_ok: False\n" in rep.to_text()


@pytest.mark.parametrize("end, shift, refused", [
    ("far", 1, True),              # one ulp past I_-1's far end
    ("fixed", -2e-9, True),        # past the eps_geom slack at 0
    ("fixed", -5e-10, False),      # within it
])
def test_appendix_inclusion_slack_only_at_the_fixed_point(monkeypatch, end, shift, refused):
    """The non-strict containment f(I_-1) ⊂ I_-1 gets eps_geom of slack at
    the fixed point 0 only; an overshoot of the far end is refused."""
    params = AppendixParams()
    i_m1 = params.blocks[0]
    plain_image = MapSpec.image_of

    def shifted(self, iv):
        img = plain_image(self, iv)
        if self.label != "f_appendix" or iv != i_m1:
            return img
        if end == "far":
            return Interval(img.lo, math.nextafter(i_m1.hi, 2.0))
        return Interval(i_m1.lo + shift, img.hi)

    monkeypatch.setattr(MapSpec, "image_of", shifted)
    if refused:
        with pytest.raises(ConstructionError, match=r"inclusion failed: f\(block\)"):
            appendix_pair(params)
    else:
        appendix_pair(params)


def test_appendix_derivative_bound(appendix):
    pair, params = appendix
    for block in params.blocks:
        for x in np.linspace(block.lo, block.hi, 400):
            assert pair.f.deriv(float(x)) < params.lam
            assert pair.g.deriv(float(x)) < params.lam


def test_appendix_class_a(appendix):
    pair, _ = appendix
    assert validate_class_a(pair.f, pair.g).ok


def test_appendix_symmetry(appendix):
    pair, _ = appendix
    assert symmetry_residual(pair.f, pair.g) <= 1e-9


def test_appendix_infeasible_params_raise():
    with pytest.raises(SpecError):
        AppendixParams(lam=0.6)
    with pytest.raises(SpecError):
        AppendixParams(eps=0.2)


# -- lambda recursion ----------------------------------------------------------------------


def lambda_raw_images(pair, params, n):
    """Endpoint arrays of the 3 * 2^n interval images of the recursion tree,
    without normalization: the branching structure before any merging."""
    los = np.array([b.lo for b in params.blocks])
    his = np.array([b.hi for b in params.blocks])
    for _ in range(n):
        los = np.concatenate([pair.f.eval_array(los), pair.g.eval_array(los)])
        his = np.concatenate([pair.f.eval_array(his), pair.g.eval_array(his)])
    return los, his


def test_lambda_zero_measure(appendix):
    pair, params = appendix
    assert lambda_sets(pair, params, 0).measure() == pytest.approx(0.96, abs=1e-15)


def test_lambda_one_raw_part_count(appendix):
    pair, params = appendix
    los, his = lambda_raw_images(pair, params, 1)
    assert los.size == 6  # 3 blocks x 2 maps before merging
    merged = lambda_sets(pair, params, 1)
    assert merged.n_parts <= 6


def test_lambda_raw_branching_at_depth_10(appendix):
    pair, params = appendix
    los, _ = lambda_raw_images(pair, params, 10)
    assert los.size == 3 * 2 ** 10  # full branching before merging


def test_lambda_nested():
    """`lambda_sequence` checks nestedness on its first two steps only; every
    later step is nested too, exactly, at the default and at two corners:
    each part of Lambda_{k+1} lies inside the part of Lambda_k that starts
    at or before it."""
    for params in (AppendixParams(), AppendixParams(eps=0.001, lam=0.499),
                   AppendixParams(eps=0.16, lam=0.05)):
        seq = lambda_sequence(appendix_pair(params), params, 20)
        for a, b in zip(seq[1:], seq):
            i = np.searchsorted(b.los, a.los, side="right") - 1
            assert np.all(i >= 0) and np.all(a.his <= b.his[i])


def test_lambda_sequence_refuses_a_step_past_the_cap(appendix, monkeypatch):
    """A step at most doubles the parts.  Lambda_5 and Lambda_6 have 40 and
    72, so with a cap of 100 Lambda_6 is built and the step to Lambda_7 is
    refused before it allocates."""
    import cantorifs.construct as construct

    pair, params = appendix
    monkeypatch.setattr(construct, "ORBIT_CAP", 100)
    assert [s.n_parts for s in lambda_sequence(pair, params, 6)][5:] == [40, 72]
    with pytest.raises(ResourceCapError, match="Lambda_7 could exceed the cap of 100 parts"):
        lambda_sequence(pair, params, 7)


def test_lambda_sequence_rejects_a_pair_without_the_inclusion_property(valid_affine):
    with pytest.raises(ConstructionError, match="Lambda_1 not nested in Lambda_0"):
        lambda_sequence(valid_affine, AppendixParams(), 3)  # f(I_0) is not in I_-1


def _contracting_pair(f: MapSpec) -> IFSPair:
    """f and its mirror image, which do not overlap; `lambda_sequence` never
    reads the overlap."""
    return IFSPair(f, symmetry_conjugate(f), Interval(0.0, 1.0))


def test_lambda_sequence_needs_affine_maps_on_lambda_1():
    """The induction behind the single nestedness check reads f and g as
    affine pieces on each part of Lambda_1: the same map, stored as a cubic
    Hermite segment, is refused."""
    params = AppendixParams()
    affine = affine_spec(0.3, 0.0)
    assert len(lambda_sequence(_contracting_pair(affine), params, 20)) == 21
    cubic = MapSpec((Segment(0.0, 1.0, CubicHermite(0.0, 0.3, 0.3, 0.3)),))
    with pytest.raises(ConstructionError, match="not affine"):
        lambda_sequence(_contracting_pair(cubic), params, 20)


def test_lambda_sequence_base_step_is_exact():
    """f(1) overshoots I_-1 by 5e-13, inside the eps_newton slack of the
    first step; the second step, the base of the induction, has no slack."""
    params = AppendixParams()
    pair = _contracting_pair(affine_spec(params.blocks[0].hi + 5e-13, 0.0))
    assert len(lambda_sequence(pair, params, 1)) == 2
    with pytest.raises(ConstructionError, match="Lambda_2 not nested in Lambda_1"):
        lambda_sequence(pair, params, 2)


def test_orbit_points_inside_lambda(appendix):
    from cantorifs.ifs import orbit

    pair, params = appendix
    for d in (4, 8, 12):
        cloud = orbit(pair, 0.0, d)
        lam = lambda_sets(pair, params, d)
        assert bool(np.all(contains_points(lam, cloud.points, slack=1e-12)))


def test_measure_bound_report(appendix):
    pair, params = appendix
    rep = check_measure_bound(pair, params, n_max=12)
    assert rep.ok and rep.ratio_ok
    assert rep.rows[0][1] == pytest.approx(0.96, abs=1e-15)
    n10 = rep.rows[10]
    assert n10[1] <= 0.34868


def test_measure_bound_rows_are_the_sequence_measures(appendix):
    """`check_measure_bound` measures each Lambda_n as it is built, and gets
    the floats of measuring `lambda_sequence`'s list."""
    pair, params = appendix
    want = tuple((n, s.measure(), (2.0 * params.lam) ** n)
                 for n, s in enumerate(lambda_sequence(pair, params, 16)))
    assert check_measure_bound(pair, params, 16).rows == want


def test_complement_certification(appendix):
    pair, params = appendix
    rep = certify_cantor_by_complement(pair, params, resolution=1e-2, depth=14)
    assert rep.all_certified
    assert rep.n_skipped > 0
