"""Construction pipeline for a certified pair with all four properties, plus
the appendix example with its measure bound.

Pipeline stages, in data-dependency order:

1. base pair: f*(x) = x/2, g*(x) = x/2 + 1/2 (degenerate overlap).
2. bump modification: steepen f* on the window around q = 2/3 (whose image
   is near p = 1/3) and mirror onto g*; the composition f0∘g0 then contracts
   J_p onto a fixed interval H_p with non-empty interior that contains the
   inner window.  Modifying literally on J_p (for f) and J_q (for g) cannot
   work: each map would halve lengths on the other's inner window and the two
   required containments are jointly unsatisfiable.
3. epsilon family: replace the corner of f0 on (1-k, 1) by an affine piece of
   slope 1/2 + eps (C1-bridged over a sub-window of width k/50 so the family
   stays C1 while f_eps(1) = 1/2 + eps*k holds exactly), g_eps symmetric.
   The overlap is W = [1/2 - eps*k, 1/2 + eps*k].
4. parameter search: the eps with x(eps) = f_eps^{-1}(g_eps(0)) in the
   middle of g^n(H_p), where H_p is found once on the bump pair (eps matters
   only through x(eps)); g^n(H_p) is part n of H'_p, so that eps is in C.
   The family bounds its own window: an eps past it fails where the pair is
   built.  Then the alpha sequence solving
   f^{-1}_{alpha_n}(g_{alpha_n}(0)) = g^n_{alpha_0}(f^{-1}_{alpha_0}(g_{alpha_0}(0))).
5. gamma surgery on W^{alpha_0}: a single stretch sliding the ruination part
   of r_g that contains f(1) across the whole overlap until it overlaps the
   r_f part containing g(0); this is the "easy to see" diffeomorphism whose
   existence follows from alpha_0 belonging to the parameter set C.
6. castration of g at alpha_n through phi-conjugated gamma; increase n until
   the induced maps are uniformly expanding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .errors import BracketError, ConstructionError, DomainError, ResourceCapError, SpecError
from .intervals import TOL, Interval, IntervalSet
from .maps import (
    Affine,
    CubicHermite,
    MapSpec,
    Segment,
    _reflected_segments,
    conjugate_segment,
    hermite_linear_deriv,
    iterate_interval,
    symmetry_residual,
)
from .ifs import ORBIT_CAP, IFSPair, ValidationResult, validate_class_a
from .axioms import (
    AxiomReport,
    HolePair,
    RuinationRegions,
    find_hole,
    ruination_regions,
    run_axiom_checks,
)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionParams:
    p: ClassVar[float] = 1.0 / 3.0  # fixed, not fields: the bump window q must
    q: ClassVar[float] = 2.0 / 3.0  # map onto p = f*(q) under the base pair
    jp_width: float = 0.01          # |J_p| = |J_q|; 1/100 is small enough
    bump_strength: float = 4.0      # inner expansion factor of f0 ∘ g0
    k: float = 0.005                # affine corner width; < 1/100
    n_target: int = 10              # index n for eps in C_n

    def __post_init__(self) -> None:
        if not (0.0 < self.jp_width <= 0.01):
            raise SpecError("jp_width must be in (0, 1/100]")
        if not (0.0 < self.k < 0.01):
            raise SpecError("k must be in (0, 1/100)")
        if not (2.0 < self.bump_strength < 14.0 / 3.0):
            # sigma = strength/2 per map; the edge-slope budget dies at 7/3
            raise SpecError("bump_strength must be in (2, 14/3)")
        if self.n_target < 3:
            raise SpecError("n_target must be >= 3")

    @property
    def j_p(self) -> Interval:
        return Interval(self.p - self.jp_width / 2, self.p + self.jp_width / 2)


# ---------------------------------------------------------------------------
# Stages 1-2: base pair and bump modification
# ---------------------------------------------------------------------------


def base_pair() -> tuple[MapSpec, MapSpec]:
    f = MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.0)),), label="f*")
    g = MapSpec((Segment(0.0, 1.0, Affine(0.5, 0.5)),), label="g*")
    return f, g


def _chain(x0: float, y0: float, pieces: list[tuple[str, float, float, float]]) -> list[Segment]:
    """Build abutting segments from (kind, width, d_lo, d_hi) descriptions.

    Affine pieces use d_lo as the slope; Hermite pieces get the
    linear-derivative rise, so every piece is monotone by construction.
    """
    segs: list[Segment] = []
    x, y = x0, y0
    for kind, width, d_lo, d_hi in pieces:
        x1 = x + width
        if kind == "affine":
            segs.append(Segment(x, x1, Affine(d_lo, y - d_lo * x)))
            y = y + d_lo * width
        else:
            seg = hermite_linear_deriv(x, x1, y, d_lo, d_hi)
            segs.append(seg)
            y = seg.kind.y_hi
        x = x1
    return segs


def bump_modify(params: ConstructionParams) -> tuple[MapSpec, MapSpec, Interval, Interval]:
    """Steepen f* on the window around q (image near p); g0 by symmetry.

    Slope profile on each half-window of width w/2, inward from the edge:
    join at 1/2, drop to a low slope m, rise to sigma on [q-w/16, q+w/16].
    The rise budget forces 3*sigma + 11*m = 7, so m > 0 bounds sigma < 7/3.
    The composition f0∘g0 then has derivative sigma^2 near p and < 1 on the
    rest of J_p, which is exactly the fixed-interval hypothesis.
    """
    w = params.jp_width
    q = params.q
    sigma = params.bump_strength / 2.0
    m = (7.0 - 3.0 * sigma) / 11.0
    if m <= 0.01:
        raise ConstructionError(f"bump profile infeasible: low slope m = {m:.4g}")
    a, b, c1 = w / 16.0, w / 8.0, w / 8.0

    lo = q - w / 2.0
    pieces = [
        ("hermite", c1, 0.5, m),                    # edge join (left)
        ("affine", w / 2.0 - b - c1, m, m),
        ("hermite", b - a, m, sigma),
        ("affine", 2.0 * a, sigma, sigma),          # the expanding core
        ("hermite", b - a, sigma, m),
        ("affine", w / 2.0 - b - c1, m, m),
        ("hermite", c1, m, 0.5),                    # edge join (right)
    ]
    bump = _chain(lo, lo / 2.0, pieces)
    # the tail starts where the chain ends, which rounds near q + w/2
    segs = [Segment(0.0, lo, Affine(0.5, 0.0))] + bump + [
        Segment(bump[-1].x_hi, 1.0, Affine(0.5, 0.0))
    ]
    f0 = MapSpec(tuple(segs), label="f0")
    g0 = MapSpec(_reflected_segments(f0), label="g0")

    jp_in = Interval(params.p - w / 20.0, params.p + w / 20.0)
    jq_in = Interval(q - w / 20.0, q + w / 20.0)

    margin = w / 100.0
    img_g = g0.image_of(jp_in)
    img_f = f0.image_of(jq_in)
    if not img_g.contains_interval(jq_in, margin):
        raise ConstructionError(f"inner containment failed: g0(J'_p) = {img_g}")
    if not img_f.contains_interval(jp_in, margin):
        raise ConstructionError(f"inner containment failed: f0(J'_q) = {img_f}")
    jp = params.j_p
    composed = f0.image_of(g0.image_of(jp))
    if not jp.contains_interval(composed, margin):
        raise ConstructionError(f"outer contraction failed: f0(g0(J_p)) = {composed}")
    return f0, g0, jp_in, jq_in


# ---------------------------------------------------------------------------
# Stage 3: the epsilon family
# ---------------------------------------------------------------------------


def epsilon_family_specs(f0: MapSpec, k: float, eps: float) -> tuple[MapSpec, MapSpec]:
    """(f_eps, g_eps) as MapSpecs, without class-A validation.

    f_eps equals f0 on [0, 1-k], is affine with slope 1/2 + eps on
    [1-k+eta, 1] with f_eps(1) = 1/2 + eps*k exactly, and C1-bridges the
    slopes over the bridge of width eta = k/50 in between; the bridge's rise
    equals what the affine slope would produce, so the corner value identity
    is exact.  g_eps is the diagonal conjugate.  eps must lie in the window:
    eps > 0 and f_eps^{-1}(W) = [1 - 4*eps*k/(1 + 2*eps), 1] inside the tail.
    """
    if not (eps > 0):  # NaN fails too
        raise DomainError(f"the epsilon family needs eps > 0, got {eps}")
    eta = k / 50.0
    if 4.0 * eps * k / (1.0 + 2.0 * eps) >= k - eta:
        raise ConstructionError(
            f"eps = {eps} too large: the overlap preimage leaves the affine tail")
    corner = 1.0 - k
    segs: list[Segment] = []
    for s in f0.segments:
        if s.x_hi <= corner:
            segs.append(s)
        elif s.x_lo < corner:
            if not isinstance(s.kind, Affine):
                raise ConstructionError("corner window must fall in an affine run of f0")
            segs.append(Segment(s.x_lo, corner, s.kind))
    y_corner = f0.eval(corner)
    slope = 0.5 + eps
    f1 = 0.5 + eps * k
    y_bridge = f1 - slope * (k - eta)
    segs.append(Segment(corner, corner + eta,
                        CubicHermite(y_corner, y_bridge, 0.5, slope)))
    segs.append(Segment(corner + eta, 1.0, Affine(slope, f1 - slope)))
    f_eps = MapSpec(tuple(segs), label=f"f_eps[{eps:.12g}]")
    g_eps = MapSpec(_reflected_segments(f_eps), label=f"g_eps[{eps:.12g}]")
    return f_eps, g_eps


# ---------------------------------------------------------------------------
# Stage 4 helpers: the C-parameter and the alpha sequence
# ---------------------------------------------------------------------------


class ClassCBuilder:
    """Pipeline state: the bump pair, its hole and the parameter solves.

    The hole H_p is found once, on the bump pair (f0, g0): every f_eps
    equals f0 and every g_eps equals g0 away from the corners, so it does
    not depend on eps.  The eps window is the family's own: nothing probes
    it, because `epsilon_family_specs` refuses an eps outside it and each
    eps-pair the build uses is class-A-validated where it is used.  The
    reachable-corner function x(eps) = f_eps^{-1}(g_eps(0)) is
    1 - 2*eps*k/(1/2 + eps) on that window, strictly decreasing and tending
    to 1 as eps -> 0+; `_eps_reaching` solves x(eps) = t in closed form, so
    no solve builds a pair.  `pair_at` builds and validates the pair at
    alpha_0 and at each castration candidate; x(alpha_0) and g_alpha_0 are
    read off the pair at alpha_0.
    """

    EPS_FLOOR = 1e-9

    def __init__(self, params: ConstructionParams | None = None):
        self.params = params or ConstructionParams()
        self.f0, self.g0, _, _ = bump_modify(self.params)
        self.hole_ref = find_hole(IFSPair.of(self.f0, self.g0), self.params.j_p)

    # -- primitives --------------------------------------------------------

    def pair_at(self, eps: float) -> ValidationResult:
        """The class-A verdict on (f_eps, g_eps), carrying the pair when ok."""
        return validate_class_a(*epsilon_family_specs(self.f0, self.params.k, eps))

    # -- the C parameter and alpha sequence ---------------------------------

    def _eps_reaching(self, t: float) -> float:
        """The eps with x(eps) = t: eps = (1 - t) / (2(2k - 1 + t)), the root
        of x(eps) = 1 - 2*eps*k/(1/2 + eps).  Raises BracketError when no
        finite eps >= EPS_FLOOR solves it; an eps past the family's window
        fails later, in `pair_at`."""
        u = 1.0 - t  # exact for t in [1/2, 1]
        d = 2.0 * (2.0 * self.params.k - u)
        eps = u / d if d > 0 else math.inf
        if not (self.EPS_FLOOR <= eps < math.inf):  # NaN fails too
            raise BracketError(f"x = {t!r} is not reached for a finite eps "
                               f">= {self.EPS_FLOOR} (eps = {eps!r})")
        return eps

    def find_c_parameter(self, n: int) -> tuple[float, IFSPair]:
        """eps with x(eps) at the midpoint of g^n(H_p), a member of C_n, and
        the validated pair at eps.

        Raises BracketError when no finite eps >= EPS_FLOOR reaches the
        midpoint (n too small or too large), and ConstructionError when eps
        leaves the family's window (n too small), the pair at eps fails
        class A or x(eps) does not land in the middle 80% of g^n(H_p).
        """
        # g^n(H_p) with g0: the orbit avoids the modified corner, so it does
        # not depend on eps.
        target = iterate_interval(self.g0, n, self.hole_ref.h_f)
        eps = self._eps_reaching(target.mid)
        result = self.pair_at(eps)
        if not result.ok:
            raise ConstructionError(f"the pair at eps = {eps} fails class A: "
                                    + "; ".join(v.bullet for v in result.violations))
        pair = result.pair
        x = pair.f.inverse_eval(pair.overlap.lo)
        if not (target.lo + target.length / 10.0 <= x <= target.hi - target.length / 10.0):
            raise ConstructionError(
                f"C-parameter verification failed: x({eps}) = {x} vs {target}")
        return eps, pair

    def alpha_sequence(self, alpha0: float, pair0: IFSPair, count: int) -> list[float]:
        """alpha_n solving x(alpha_n) = g^n_{alpha_0}(x(alpha_0)), n < count,
        with g_alpha_0 and x(alpha_0) read off pair0, the pair at alpha0;
        strictly decreasing to 0.  alpha_0 is alpha0 itself: solving back
        from x(alpha0), which rounds to an ulp of 1, would move it by about
        1e-14.  For alpha0 from `find_c_parameter`, x(alpha0) lies in
        g^n(H_p), a part of H'_p, and g maps each part of H'_p onto the
        next, so every alpha_n is a member of C."""
        target = pair0.f.inverse_eval(pair0.overlap.lo)
        out = [alpha0]
        for _ in range(count - 1):
            target = pair0.g.eval(target)
            out.append(self._eps_reaching(target))
        for a, b in zip(out, out[1:]):
            if not b < a:
                raise ConstructionError(f"alpha sequence not strictly decreasing: {out}")
        return out


# ---------------------------------------------------------------------------
# Stage 5: gamma surgery
# ---------------------------------------------------------------------------


def build_gamma(ruin: RuinationRegions, w: Interval) -> MapSpec:
    """A C1 diffeomorphism of [0, 1] (normalized overlap coordinates) making
    the castration covering hold: it stretches the r_g part containing the
    right overlap endpoint until its image overlaps the r_f part containing
    the left endpoint, and is the identity near both endpoints so the
    castrated map joins g C1.

    Existence needs both endpoint parts, i.e. the C-membership of the
    parameter; a per-gap sliding construction is unnecessary.
    """
    qb = ruin.r_f.part_containing(w.lo)
    pb = ruin.r_g.part_containing(w.hi)
    if qb is None or pb is None:
        raise ConstructionError(
            "gamma needs g(0) in r_f and f(1) in r_g (parameter not in C?)")
    h = (min(qb.hi, w.hi) - w.lo) / w.length
    c = (max(pb.lo, w.lo) - w.lo) / w.length
    if not (0.0 < h and c < 1.0):
        raise ConstructionError(f"degenerate end blocks: h={h}, c={c}")
    if c <= h:
        return MapSpec((Segment(0.0, 1.0, Affine(1.0, 0.0)),), label="gamma[id]")

    h_t = 2.0 * h / 3.0
    xi = min(1e-4, h / 10.0, (1.0 - c) / 10.0, h_t / 4.0)

    w_a = c - xi
    r_a = h_t - xi
    frac_a = min(0.1, r_a / w_a)
    s_a = (r_a / w_a - frac_a / 2.0) / (1.0 - frac_a / 2.0)
    if s_a <= 0:
        raise ConstructionError(f"gamma region A infeasible: s_a = {s_a:.3g}")

    w_b = (1.0 - xi) - c
    r_b = (1.0 - xi) - h_t
    beta = 0.1
    s_b = (r_b / w_b - beta * (s_a + 1.0) / 2.0) / (1.0 - beta)
    if s_b <= 1.0:
        raise ConstructionError(f"gamma region B infeasible: s_b = {s_b:.3g}")

    pieces = [
        ("hermite", frac_a * w_a, 1.0, s_a),
        ("affine", (1.0 - frac_a) * w_a, s_a, s_a),
        ("hermite", beta * w_b, s_a, s_b),
        ("affine", (1.0 - 2.0 * beta) * w_b, s_b, s_b),
        ("hermite", beta * w_b, s_b, 1.0),
    ]
    segs = [Segment(0.0, xi, Affine(1.0, 0.0))] + _chain(xi, xi, pieces)
    end = segs[-1]
    # close with the identity tail from where the chain ends; the widths and
    # rises land it at (1 - xi, 1 - xi) up to rounding
    segs.append(Segment(end.x_hi, 1.0, Affine(1.0, 0.0)))
    gamma = MapSpec(tuple(segs), label="gamma")
    if abs(end.kind.y_hi - (1.0 - xi)) > TOL.eps_geom:
        raise ConstructionError(f"gamma rise bookkeeping off by {end.kind.y_hi - (1 - xi):.3g}")
    return gamma


def castrate(g_alpha_n: MapSpec, gamma: MapSpec, w_n: Interval) -> MapSpec:
    """Modify g so that on the overlap its inverse is conjugated through
    gamma: (g.)^{-1} = g^{-1} ∘ phi^{-1} ∘ gamma^{-1} ∘ phi, intact outside.

    Since gamma is built in normalized overlap coordinates and the phi maps
    are affine and orientation-preserving, the phi conjugation collapses to
    rescaling gamma onto w_n; the original overlap only enters through
    gamma having been built there.  The forward form g. = (rescaled gamma) ∘
    g composes segment-by-segment because the support g^{-1}(w_n) falls
    inside a single affine run of g near 0.
    """
    s_hi = g_alpha_n.inverse_eval(w_n.hi)
    first = g_alpha_n.segments[0]
    if not isinstance(first.kind, Affine) or first.x_hi < s_hi:
        raise ConstructionError(
            "castration support must fall inside g's leading affine run")
    a_g, b_g = first.kind.slope, first.kind.intercept
    # A1: y -> (g(y) - w_n.lo)/|w_n| onto [0, 1]; A2: t -> w_n.lo + t |w_n|
    a1, b1 = a_g / w_n.length, (b_g - w_n.lo) / w_n.length
    a2, b2 = w_n.length, w_n.lo
    # g(0) is first's intercept, so b1 = 0 and the run starts at 0.0;
    # gamma's exact joins stay exact, and only the run's end is set to s_hi
    composed = [conjugate_segment(s, a1, b1, a2, b2) for s in gamma.segments]
    composed[-1] = Segment(composed[-1].x_lo, s_hi, composed[-1].kind)
    rest: list[Segment] = []
    for s in g_alpha_n.segments:
        if s.x_hi <= s_hi:
            continue
        if s.x_lo < s_hi:
            rest.append(Segment(s_hi, s.x_hi, s.kind))
        else:
            rest.append(s)
    return MapSpec(tuple(composed + rest), label=f"{g_alpha_n.label}.castrated")


# ---------------------------------------------------------------------------
# Stage 6: the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    params: ConstructionParams
    alpha0: float
    alphas: tuple[float, ...]
    n_final: int
    hole: HolePair
    axioms: AxiomReport
    symmetry_residual_precastration: float
    attempts: tuple[tuple[int, float, float, bool, bool], ...]  # (n, alpha, mu, ee_ok, ca_ok)

    def to_text(self) -> str:
        pr = self.params
        lines = [
            "pipeline: class-C construction",
            f"param_p: {pr.p:.17g}",
            f"param_q: {pr.q:.17g}",
            f"param_jp_width: {pr.jp_width:.17g}",
            f"param_bump_strength: {pr.bump_strength:.17g}",
            f"param_k: {pr.k:.17g}",
            f"param_n_target: {pr.n_target}",
            f"alpha0: {self.alpha0:.17g}",
            f"alphas: {', '.join(f'{a:.12g}' for a in self.alphas)}",
            f"n_final: {self.n_final}",
            f"hole_h_f: [{self.hole.h_f.lo:.17g}, {self.hole.h_f.hi:.17g}]",
            f"hole_h_g: [{self.hole.h_g.lo:.17g}, {self.hole.h_g.hi:.17g}]",
            f"hole_swap_residual: {self.hole.swap_residual:.3g}",
            f"symmetry_residual_precastration: {self.symmetry_residual_precastration:.3g}",
        ]
        for n, alpha, mu, ee_ok, ca_ok in self.attempts:
            lines.append(f"attempt: n={n} alpha={alpha:.12g} mu={mu:.6g} ee={ee_ok} ca={ca_ok}")
        lines += [r.to_text().rstrip() for r in (self.axioms.so, self.axioms.ee, self.axioms.ca)]
        lines.append(f"corner_derivs_below_one: {self.axioms.corner_derivs_below_one}")
        lines.append(f"all_axioms: {'ok' if self.axioms.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"


def build_class_c_example(
    params: ConstructionParams | None = None,
    mu_target: float = 1.01,
) -> tuple[IFSPair, PipelineReport, ClassCBuilder]:
    """Run the whole pipeline, increasing the castration index n = 0..12
    until the castrated pair passes the axiom checks: the induced maps are
    uniformly expanding and W is covered with clearance eps_geom.

    Returns the certified pair, the stage report, and the builder (which
    keeps the alpha family available for the rescaling experiments).
    """
    builder = ClassCBuilder(params)
    pr = builder.params
    alpha0, pair0 = builder.find_c_parameter(pr.n_target)
    # The hole does not depend on eps: find_hole(pair0) is hole_ref bit for bit.
    gamma = build_gamma(ruination_regions(pair0, builder.hole_ref), pair0.overlap)
    alphas = builder.alpha_sequence(alpha0, pair0, 13)

    attempts: list[tuple[int, float, float, bool, bool]] = []
    stops: list[str] = []  # the first check that stopped each failed attempt
    for n in range(13):
        alpha_n = alphas[n]  # alphas[0] is alpha0, whose pair is built
        res_n = None if n == 0 else builder.pair_at(alpha_n)
        pair_n = pair0 if res_n is None else res_n.pair  # None: not class A
        res = None if pair_n is None else validate_class_a(
            pair_n.f, castrate(pair_n.g, gamma, pair_n.overlap))
        ax = None if res is None or res.pair is None else run_axiom_checks(res.pair, pr.j_p, mu_target)
        if ax is None or ax.ee is None:  # class A, So or the hole search failed
            attempts.append((n, alpha_n, math.nan, False, False))
            stops.append(f"class A of the alpha_n pair: {res_n.violations[0].bullet}" if res is None
                         else f"class A of the castrated pair: {res.violations[0].bullet}" if ax is None
                         else "so" if not ax.so.ok else f"hole: {ax.hole_error}")
            continue
        attempts.append((n, alpha_n, ax.ee.mu, ax.ee.ok, ax.ca.ok))
        stops.append("ee" if not ax.ee.ok else "ca")
        if ax.ok:
            report = PipelineReport(
                params=pr, alpha0=alpha0, alphas=tuple(alphas),
                n_final=n, hole=ax.hole, axioms=ax,
                symmetry_residual_precastration=symmetry_residual(pair_n.f, pair_n.g),
                attempts=tuple(attempts),
            )
            return res.pair, report, builder
    raise ConstructionError(
        "no castration index satisfied expansion + covering margins; attempts: "
        + "; ".join(f"n={n} mu={mu:.4g} ee={e} ca={c} failed: {stop}"
                    for (n, _, mu, e, c), stop in zip(attempts, stops)))


# ---------------------------------------------------------------------------
# The appendix example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixParams:
    eps: float = 0.01
    lam: float = 0.45

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 0.5):
            raise SpecError("lam must be in (0, 1/2)")
        if not (0.0 < self.eps < 1.0 / 6.0):
            raise SpecError("eps must be in (0, 1/6)")

    @property
    def blocks(self) -> tuple[Interval, Interval, Interval]:
        e = self.eps
        return (
            Interval(0.0, 1.0 / 3.0 - e),
            Interval(1.0 / 3.0 + e, 2.0 / 3.0 - e),
            Interval(2.0 / 3.0 + e, 1.0),
        )


def appendix_pair(params: AppendixParams | None = None) -> IFSPair:
    """A diagonal-symmetric pair with the inclusion property
    f(I_-1) ⊂ I_-1, f(I_0) ⊂ int(I_-1), f(I_1) ⊂ int(I_0) (g mirrored) and
    derivative < lam on the three blocks.

    Affine slope 0.98*lam on each block, steep monotone Hermite connectors
    across the two gaps; the connectors exceed lam but lie outside the
    blocks, which is all the contraction property quantifies over.
    """
    pr = params or AppendixParams()
    e, lam = pr.eps, pr.lam
    s = 0.98 * lam
    i_m1, i_0, i_1 = pr.blocks
    w1, w0 = i_m1.length, i_0.length

    if s * (w1 + w0) >= w1:
        raise ConstructionError(f"infeasible: s(|I-1|+|I0|) = {s*(w1+w0):.4g} >= {w1:.4g}")
    c0 = 0.5 * (s * w1 + (w1 - s * w0))      # start of f(I_0), centered in its slack
    f1_target = 0.5 * (0.5 + i_0.hi)          # f(1); also fixes g(0) = 1 - f(1)
    c1 = f1_target - s * i_1.length           # start of f(I_1)
    if not (i_0.lo < c1 and f1_target < i_0.hi and f1_target > 0.5):
        raise ConstructionError(f"infeasible: f(I_1) = [{c1:.4g}, {f1_target:.4g}]")

    y_a = s * i_m1.hi
    y_b = c0 + s * w0
    segs = (
        Segment(0.0, i_m1.hi, Affine(s, 0.0)),
        Segment(i_m1.hi, i_0.lo, CubicHermite(y_a, c0, s, s)),
        Segment(i_0.lo, i_0.hi, Affine(s, c0 - s * i_0.lo)),
        Segment(i_0.hi, i_1.lo, CubicHermite(y_b, c1, s, s)),
        Segment(i_1.lo, 1.0, Affine(s, c1 - s * i_1.lo)),
    )
    f = MapSpec(segs, label="f_appendix")
    g = MapSpec(_reflected_segments(f), label="g_appendix")
    pair = validate_class_a(f, g).as_pair()

    for m, name in ((f, "f"), (g, "g")):
        images = [m.image_of(b) for b in pr.blocks]
        targets = (i_m1, i_m1, i_0) if name == "f" else (i_1, i_1, i_0)
        strict = (False, True, True)
        if name == "g":
            images = images[::-1]
        for img, tgt, need_int in zip(images, targets, strict):
            # f(I_-1) ⊂ I_-1 and g(I_1) ⊂ I_1 touch the fixed points 0 and 1,
            # where class A allows eps_geom of slack; their far ends are exact
            e = TOL.eps_geom
            zone = (Interval(tgt.lo + 1e-6, tgt.hi - 1e-6) if need_int
                    else Interval(tgt.lo - e, tgt.hi) if name == "f" else Interval(tgt.lo, tgt.hi + e))
            if not zone.contains_interval(img):
                raise ConstructionError(f"inclusion failed: {name}(block) = [{img.lo:.17g}, "
                                        f"{img.hi:.17g}] vs [{tgt.lo:.17g}, {tgt.hi:.17g}]")
    return pair


def lambda_sequence(pair: IFSPair, params: AppendixParams, n: int) -> list[IntervalSet]:
    """Lambda_0 = the three blocks; Lambda_{k+1} = f(Lambda_k) ∪ g(Lambda_k),
    exact since increasing maps send parts to parts.  A step writes f and
    g of Lambda_k's los into the two halves of one buffer, and of its his
    into another, and joins the two images in place, re-normalizing only
    where they interleave (`IntervalSet._of_runs`).  A step that could
    make more than `ifs.ORBIT_CAP` parts (twice those of Lambda_k) is a
    ResourceCapError before it allocates.

    Nestedness is checked on the first two steps and holds for the rest by
    induction: A ⊂ B implies f(A) ⊂ f(B) for increasing f.  In floats the
    step needs f and g weakly monotone on each part of Lambda_k, k >= 1, and
    each lies in a part of Lambda_1.  The check requires both maps to
    evaluate every part of Lambda_1 on one affine segment, where
    `eval_array`'s t*slope + c0, t = x - x_lo, slope > 0, is a multiply and
    an add, each correctly rounded and increasing: bit for bit Horner's
    ((0*t + 0)*t + slope)*t + c0, whose first steps give exactly slope.  For
    `appendix_pair`, every Lambda_k endpoint with k >= 1, other than 0 and 1,
    lies strictly inside a block, where f and g are affine with positive slope.
    """
    return list(_lambda_steps(pair, params, n))


def _lambda_steps(pair: IFSPair, params: AppendixParams, n: int) -> Iterator[IntervalSet]:
    """Lambda_0 ... Lambda_n of `lambda_sequence`, one at a time; only the
    current step is kept."""
    cur = IntervalSet(params.blocks)
    yield cur
    for k in range(n):
        if 2 * cur.n_parts > ORBIT_CAP:
            raise ResourceCapError(f"Lambda_{k+1} could exceed the cap of {ORBIT_CAP} parts")
        # f(Lambda_k) lies in [0, f(1)] and g(Lambda_k) in [g(0), 1], each
        # sorted and disjoint, so the join re-normalizes only their parts in
        # the window where the two interleave, with the same floats
        m = cur.n_parts
        los, his = np.empty(2 * m), np.empty(2 * m)
        for ends, out in ((cur.los, los), (cur.his, his)):
            pair.f._eval_into(ends, out[:m])
            pair.g._eval_into(ends, out[m:])
        nxt = IntervalSet._of_runs(los, his, m)
        if k < 2 and not _subset(nxt, cur, TOL.eps_newton if k == 0 else 0.0):
            raise ConstructionError(f"Lambda_{k+1} not nested in Lambda_{k}")
        if k == 0 and not _affine_on_parts(pair, nxt):
            raise ConstructionError("f or g is not affine on a part of Lambda_1")
        cur = nxt
        yield cur


def _subset(a: IntervalSet, b: IntervalSet, slack: float) -> bool:
    i = np.searchsorted(b.los, a.los + slack, side="right") - 1
    return bool(np.all(i >= 0) and np.all(a.his <= b.his[i] + slack))


def _affine_on_parts(pair: IFSPair, s: IntervalSet) -> bool:
    """Whether f and g each evaluate every part of `s` on one affine segment."""
    ends = list(zip(s.los.tolist(), s.his.tolist()))
    return all(m._seg_index(lo) == m._seg_index(hi)
               and isinstance(m.segments[m._seg_index(hi)].kind, Affine)
               for m in (pair.f, pair.g) for lo, hi in ends)


def lambda_sets(pair: IFSPair, params: AppendixParams, n: int) -> IntervalSet:
    if n < 0:
        raise DomainError("lambda_sets needs n >= 0")
    return lambda_sequence(pair, params, n)[-1]


@dataclass(frozen=True)
class MeasureBoundReport:
    lam: float
    rows: tuple[tuple[int, float, float], ...]  # (n, measure, bound)
    ok: bool
    ratio_ok: bool

    def to_text(self) -> str:
        return (f"measure_bound_lambda: {self.lam:.17g}\n"
                f"measure_bound_ok: {self.ok}\n"
                f"measure_ratio_ok: {self.ratio_ok}\n" + self.to_csv())

    def to_csv(self) -> str:
        out = "n,measure,bound\n"
        out += "".join(f"{n},{m:.17g},{b:.17g}\n" for n, m, b in self.rows)
        return out


def check_measure_bound(pair: IFSPair, params: AppendixParams, n_max: int) -> MeasureBoundReport:
    """Exact interval measures against the geometric bound (2*lam)^n, plus
    the per-step ratio mu(L_{n+1})/mu(L_n) <= 2*lam; no tolerances."""
    two_lam = 2.0 * params.lam
    rows = []
    ok = ratio_ok = True
    prev = None
    for n, s in enumerate(_lambda_steps(pair, params, n_max)):
        m = s.measure()
        bound = two_lam ** n
        rows.append((n, m, bound))
        if m > bound:
            ok = False
        if prev is not None and prev > 0 and m > two_lam * prev:
            ratio_ok = False
        prev = m
    return MeasureBoundReport(params.lam, tuple(rows), ok, ratio_ok)
