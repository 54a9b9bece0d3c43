"""Iterated function systems of two monotone interval maps whose minimal set
is a Cantor set: interval-set arithmetic, piecewise-C1 map representations,
property checkers (single overlapping, hole, eventual expansion, castration),
certified gap finding, the construction pipeline, and an appendix example
certified through an exact measure bound."""

from .intervals import (
    Interval,
    IntervalSet,
    Tolerance,
)
from .maps import (
    Affine,
    CubicHermite,
    MapSpec,
    Segment,
    identity_spec,
    iterate,
    pair_from_json,
    pair_to_json,
    symmetry_conjugate,
)
from .ifs import (
    IFSPair,
    OrbitCloud,
    ValidationResult,
    fundamental_domain,
    minimal_set_cover,
    orbit,
    validate_class_a,
)
from .axioms import (
    ExpansionReport,
    HolePair,
    RuinationRegions,
    boundary_sets,
    check_ca,
    check_ee,
    check_so,
    find_hole,
    induced_deriv,
    induced_n,
    ruination_regions,
)
from .gapfinder import (
    CaseTag,
    GapCertificate,
    certify_cantor,
    classify,
    find_gap,
    find_gap_core,
)
from .construct import (
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
    lambda_sets,
)

__version__ = "0.1.0"
