"""What the benchmark measures: the traced layers of cantorifs, the per-layer
metrics read from a trace, and the percentile rule for latencies."""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import Target, Tracer

PACKAGE = "cantorifs"

# Latency percentiles tried from the highest down; one is reported only when
# at least TAIL_MIN samples lie beyond it.
LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN = 10


def _rank(n: int, q: float) -> int:
    # round() keeps float noise (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing the rank up by one.
    return max(math.ceil(round(q / 100.0 * n, 6)), 1)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest q in LADDER with at least TAIL_MIN samples
    beyond it, or None when there are too few samples for any."""
    for q in LADDER:
        if beyond(len(samples), q) >= TAIL_MIN:
            return q, percentile(samples, q)
    return None


# -- traced layers -------------------------------------------------------------


def _points_hook(name: str):
    def hook(tr, parent, args, kwargs, result):
        n = int(np.size(args[1]))
        tr.count(name + ".points", n)
        if parent == "ifs.orbit":
            tr.count("ifs.orbit.generated", n)
    return hook


def _orbit_hook(tr, parent, args, kwargs, cloud):
    tr.count("ifs.orbit.points", cloud.size)


def _check_ee_hook(tr, parent, args, kwargs, report):
    tr.count("axioms.check_ee.samples", report.samples)


def _find_gap_hook(tr, parent, args, kwargs, cert):
    tr.count("gapfinder.find_gap.certified", 1)
    tr.count("gapfinder.walk_steps", cert.n_steps)
    tr.count("gapfinder.shrinks", sum(1 for s in cert.trace if s.op == "shrink"))


def _build_hook(tr, parent, args, kwargs, result):
    tr.count("construct.attempts", len(result[1].attempts))


def _t(module: str, attr: str, span: bool = False, hook=None) -> Target:
    name = f"{module}.{attr.replace('__init__', 'init')}"
    return Target(f"{PACKAGE}.{module}", attr, name, span, hook)


# Hot scalar callables are aggregated only; the others also keep one span
# per call.  plot is not traced: no roadmap item targets it.
TARGETS = [
    _t("intervals", "IntervalSet.__init__"),
    _t("intervals", "IntervalSet.union"),
    _t("intervals", "IntervalSet.intersect"),
    _t("intervals", "IntervalSet.difference"),
    _t("maps", "MapSpec.eval"),
    _t("maps", "MapSpec.inverse_eval"),
    _t("maps", "MapSpec.deriv"),
    _t("maps", "MapSpec.eval_array", hook=_points_hook("maps.MapSpec.eval_array")),
    _t("maps", "MapSpec.inverse_array", hook=_points_hook("maps.MapSpec.inverse_array")),
    _t("maps", "iterate"),
    _t("ifs", "fundamental_domain"),
    _t("ifs", "orbit", span=True, hook=_orbit_hook),
    _t("ifs", "minimal_set_cover", span=True),
    _t("ifs", "validate_class_a", span=True),
    _t("axioms", "induced_n"),
    _t("axioms", "induced_deriv"),
    _t("axioms", "induced_discontinuities"),
    _t("axioms", "check_ee", span=True, hook=_check_ee_hook),
    _t("axioms", "find_hole", span=True),
    _t("axioms", "ruination_regions", span=True),
    _t("axioms", "boundary_sets", span=True),
    _t("axioms", "check_ca", span=True),
    _t("gapfinder", "certify_cantor", span=True),
    _t("gapfinder", "find_gap", span=True, hook=_find_gap_hook),
    _t("gapfinder", "find_gap_core", span=True),
    _t("gapfinder", "classify"),
    _t("construct", "build_class_c_example", span=True, hook=_build_hook),
    _t("construct", "build_gamma", span=True),
    _t("construct", "castrate", span=True),
    _t("construct", "ClassCBuilder.find_c_parameter", span=True),
    _t("construct", "ClassCBuilder.alpha_sequence", span=True),
    _t("construct", "lambda_sequence", span=True),
    _t("construct", "check_measure_bound", span=True),
    _t("cli", "main", span=True),
]

# (name, unit) of every per-layer metric, in output order.  Counts and
# seconds are per traced op.
COUNTERS = [
    ("axioms.check_ee.samples", "count"),
    ("gapfinder.find_gap.ms_p50", "ms"),
    ("gapfinder.find_gap.ms_p99", "ms"),
    ("gapfinder.walk_steps", "count"),
    ("gapfinder.shrinks", "count"),
    ("gapfinder.certified_ratio", "ratio"),
    ("maps.MapSpec.eval_array.points", "count"),
    ("maps.MapSpec.inverse_array.points", "count"),
    ("ifs.orbit.points", "count"),
    ("ifs.orbit.kept_ratio", "ratio"),
    ("construct.attempts", "count"),
    ("trace.overhead_ratio", "ratio"),
]
LAYER_METRICS = [
    (f"{t.name}.{field}", unit)
    for t in TARGETS
    for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
] + COUNTERS


def layer_metrics(tr: Tracer, n_ops: int, scale: float, overhead_ratio: float) -> dict[str, float]:
    """Every LAYER_METRICS value from a trace of `n_ops` ops, with times
    multiplied by `scale` (the refclock rescaling of the traced ops); a layer
    the workload never calls reads 0."""
    per_op = 1.0 / n_ops
    out: dict[str, float] = {}
    totals = tr.totals()
    for t in TARGETS:
        calls, total, self_t = totals.get(t.name, (0, 0.0, 0.0))
        out[f"{t.name}.calls"] = calls * per_op
        out[f"{t.name}.self_s"] = self_t * per_op * scale
        out[f"{t.name}.total_s"] = total * per_op * scale
    c = tr.counters.get
    for key in ("axioms.check_ee.samples", "gapfinder.walk_steps", "gapfinder.shrinks",
                "maps.MapSpec.eval_array.points", "maps.MapSpec.inverse_array.points",
                "ifs.orbit.points", "construct.attempts"):
        out[key] = c(key, 0.0) * per_op
    gaps_ms = [d * 1e3 * scale for d in tr.span_durations("gapfinder.find_gap")]
    out["gapfinder.find_gap.ms_p50"] = statistics.median(gaps_ms) if gaps_ms else 0.0
    enough = beyond(len(gaps_ms), 99.0) >= TAIL_MIN
    out["gapfinder.find_gap.ms_p99"] = percentile(gaps_ms, 99.0) if enough else 0.0
    gap_calls = totals.get("gapfinder.find_gap", (0,))[0]
    out["gapfinder.certified_ratio"] = c("gapfinder.find_gap.certified", 0.0) / gap_calls if gap_calls else 0.0
    orbit_calls = totals.get("ifs.orbit", (0,))[0]
    generated = orbit_calls + c("ifs.orbit.generated", 0.0)  # seeds + images
    out["ifs.orbit.kept_ratio"] = c("ifs.orbit.points", 0.0) / generated if orbit_calls else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out


# Expected shape of the trace per workload (the prediction list in
# README.md), checked and printed by a traced run: (claim, test(metrics,
# mean traced op seconds)).
PREDICTIONS = {
    "construct": [
        ("axioms.check_ee.total_s >= 80% of op time",
         lambda m, op_s: m["axioms.check_ee.total_s"] >= 0.8 * op_s),
        ("axioms.induced_discontinuities.calls in single digits",
         lambda m, op_s: 0 < m["axioms.induced_discontinuities.calls"] < 10),
    ],
    "certify": [
        ("axioms.check_ee.calls == 0", lambda m, op_s: m["axioms.check_ee.calls"] == 0),
        ("axioms.induced_discontinuities.calls in the thousands",
         lambda m, op_s: 1000 <= m["axioms.induced_discontinuities.calls"] < 10000),
    ],
    "cloud": [
        ("axioms.check_ee.calls == 0", lambda m, op_s: m["axioms.check_ee.calls"] == 0),
    ],
    "gap_query": [
        ("axioms.check_ee.total_s >= 80% of op time",
         lambda m, op_s: m["axioms.check_ee.total_s"] >= 0.8 * op_s),
    ],
}
