"""The benchmark's own tests; run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import sys

import pytest

import run

run.import_library()

import metrics  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def c():
        clock.advance(2)

    def a():
        clock.advance(3)
        c_()
        clock.advance(1)

    def b():
        clock.advance(4)

    def root():
        clock.advance(1)
        a_()
        clock.advance(2)
        b_()
        clock.advance(1)

    c_ = tr.wrap(c, "c")
    a_ = tr.wrap(a, "a", span=True)
    b_ = tr.wrap(b, "b")
    tr.wrap(root, "root", span=True)()

    assert tr.totals() == {"root": [1, 14.0, 4.0], "a": [1, 6.0, 4.0],
                           "b": [1, 4.0, 4.0], "c": [1, 2.0, 2.0]}
    assert tr.agg[("c", "a")][0] == 1 and tr.agg[("root", None)][0] == 1
    # Only span names keep records; a's parent is root's span.
    (a_span, root_span) = tr.spans
    assert root_span[3] == "root" and root_span[2] == 0
    assert a_span[3] == "a" and a_span[2] == root_span[1]
    assert tr.span_durations("a") == [6.0]


def test_reentrant_name_counts_total_once():
    clock = FakeClock()
    tr = Tracer(clock)

    def r(n):
        clock.advance(1)
        if n:
            r_(n - 1)

    r_ = tr.wrap(r, "r")
    r_(2)
    assert tr.totals()["r"] == [3, 3.0, 3.0]


@pytest.mark.parametrize("n, want_q", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, want_q):
    samples = [float(v) for v in range(1, n + 1)]
    got = metrics.tail_percentile(samples)
    if want_q is None:
        assert got is None
        return
    q, value = got
    assert q == want_q
    assert sum(1 for s in samples if s > value) >= metrics.TAIL_MIN
    assert value == metrics.percentile(samples, q)


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(1000, 0, -1)]
    assert metrics.percentile(samples, 99.0) == 990.0
    assert metrics.percentile(samples, 50.0) == 500.0


def test_refclock_samples_during_the_block_and_subtracts_the_kernel():
    import signal
    import statistics
    import time

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as rc:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert len(rc.samples) >= 10  # two brackets plus the timer's samples
    in_kernel = sum(rc.samples[1:-1])
    assert abs(rc.wall_s + in_kernel - 0.2) < 0.02
    ref_s = refclock.KERNELS["mixed"][1]
    assert rc.scale == statistics.fmean(ref_s / k for k in rc.samples)
    assert rc.ref(2.0) == 2.0 * rc.scale
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_generator_is_deterministic():
    for wl in workloads.WORKLOADS.values():
        first = [wl.draw(workloads.Draws(7)(i)) for i in range(20)]
        again = [wl.draw(workloads.Draws(7)(i)) for i in range(20)]
        other = [wl.draw(workloads.Draws(8)(i)) for i in range(20)]
        assert first == again
        assert first != other
    for inp in (workloads.WORKLOADS["certify"].draw(workloads.Draws(s)(i))
                for s in range(5) for i in range(50)):
        assert 950 <= inp["N"] <= 1050
    for inp in (workloads.WORKLOADS["gap_query"].draw(workloads.Draws(s)(i))
                for s in range(5) for i in range(50)):
        assert 0.0 <= inp["lo"] < inp["hi"] <= 1.0
        assert 1e-4 * (1 - 1e-12) <= inp["hi"] - inp["lo"] <= 1e-2 * (1 + 1e-12)


def _binding_sites():
    """Every attribute in the package that holds a traced callable."""
    originals = set()
    for t in metrics.TARGETS:
        owner = sys.modules[t.module]
        cls_name, _, meth = t.attr.rpartition(".")
        originals.add(id(getattr(owner, cls_name).__dict__[meth] if cls_name else getattr(owner, t.attr)))
    sites = {}
    for name, mod in list(sys.modules.items()):
        if name == "cantorifs" or name.startswith("cantorifs."):
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for k, v in list(vars(owner).items()):
                    if id(v) in originals:
                        sites[(id(owner), k)] = v
    return sites


def test_tracer_rebinds_every_site_and_restores_the_originals():
    from cantorifs import axioms, gapfinder, ifs, maps

    before = _binding_sites()
    orig_fd = ifs.fundamental_domain
    orig_eval = maps.MapSpec.__dict__["eval"]
    tr = Tracer()
    tr.install(metrics.TARGETS, metrics.PACKAGE)
    try:
        for mod in (ifs, axioms, gapfinder, sys.modules["cantorifs"]):
            assert mod.fundamental_domain is not orig_fd
            assert mod.fundamental_domain.__wrapped__ is orig_fd
        assert maps.MapSpec.__dict__["eval"] is not orig_eval
        with pytest.raises(RuntimeError):
            tr.install(metrics.TARGETS, metrics.PACKAGE)
    finally:
        tr.restore()
    after = _binding_sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert ifs.fundamental_domain is orig_fd


@pytest.mark.parametrize("name", ["construct", "certify"])
def test_traced_and_untraced_reports_are_byte_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    fx = wl.setup(tmp_path)
    inp = wl.draw(workloads.Draws(0)(0))
    out = wl.op(fx, inp)
    assert wl.check(fx, inp, out) is None
    untraced = out.to_text()
    tr = Tracer()
    tr.install(metrics.TARGETS, metrics.PACKAGE)
    try:
        traced = wl.op(fx, inp).to_text()
    finally:
        tr.restore()
    assert traced == untraced
    assert tr.totals()  # the traced run did record calls


def test_gap_query_gate_rejects_bad_certificates():
    wl = workloads.WORKLOADS["gap_query"]

    class Cloud:
        points = __import__("numpy").array([0.25])

    fx = {"cloud": Cloud(), "margin": 1e-9}
    ok = "input: [0.2, 0.3]\noutput: [0.26, 0.27]\n"
    assert wl.check(fx, {}, (0, ok)) is None
    assert "exit code" in wl.check(fx, {}, (1, ""))
    assert "not inside" in wl.check(fx, {}, (0, "input: [0.2, 0.3]\noutput: [0.29, 0.31]\n"))
    assert "orbit points" in wl.check(fx, {}, (0, "input: [0.2, 0.3]\noutput: [0.24, 0.26]\n"))


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert list(run.NAMES) == list(workloads.WORKLOADS)
