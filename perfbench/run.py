"""cantorifs benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

A run imports cantorifs from ``src/`` of the checkout this file sits in,
builds the workload's fixture SETUP_REPEATS times, then runs ops in a closed
loop (one process, one op at a time) until --seconds have passed and at
least MIN_OPS ops ran.  Every op goes through the workload's correctness
gate; an op that raises or fails its gate counts as failed and is never
retried.

Times are taken with refclock.RefClock: raw wall and CPU seconds, and the
same rescaled to a reference machine speed sampled during the timed block
(see refclock.py for why).  The metrics report the rescaled seconds; the
summary also prints the raw ones.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and then traced, and reports the per-layer metrics plus the
tracing overhead.  The last stdout line is the JSON result; the lines
before it are a readable summary.  A detail file with the environment
stamp, the generated inputs, every op and the trace goes to
``.perfbench_out/`` in the checkout.  ``--workload all`` runs each workload
in its own process and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from refclock import RefClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("construct", "certify", "cloud", "gap_query")
SETUP_REPEATS = 3
MIN_OPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("op_ref_s_p50", "s"),
    ("op_cpu_ref_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
]

# Single-run baselines from ROADMAP "Recent" (Python 3.11.7, noisy by about
# +-20%), for the comparison each run prints: (what was timed, seconds).
BASELINES = {
    "construct": ("build_class_c_example, default parameters", 1.8),
    "certify": ("certify_cantor at resolution 1e-3", 2.25),
    "cloud": ("orbit at depth 20 only, one of the op's three calls", 0.33),
    "gap_query": ("`cantorifs gaps --lo/--hi` as a new process, with start-up and import", 1.7),
}


def import_library() -> None:
    """Import cantorifs from this checkout's src/; raise ImportError when it
    is missing or resolves elsewhere."""
    sys.path.insert(0, str(SRC))
    import cantorifs

    where = Path(cantorifs.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise ImportError(f"cantorifs resolved to {where}, not under {SRC}")


def time_fresh_imports(n: int) -> list[tuple[float, float]]:
    """(raw, rescaled) seconds to import cantorifs.cli, numpy included, in
    each of n new interpreters; the machine's speed is sampled right after."""
    code = (f"import sys, json, time; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            "t0 = time.perf_counter()\n"
            "import cantorifs.cli\n"
            "raw = time.perf_counter() - t0\n"
            "from refclock import speed\n"
            "print(json.dumps([raw, raw * speed()]))\n")
    out = []
    for _ in range(n):
        got = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                             capture_output=True, text=True)
        out.append(tuple(json.loads(got.stdout)))
    return out


def env_stamp() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC / "cantorifs").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,  # None when the checkout is not a git repository
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run_op(wl, fx: dict, inp: dict, i: int, tracer: Tracer | None = None) -> dict:
    if tracer is not None:
        tracer.op_id = i
        tracer.install(metrics.TARGETS, metrics.PACKAGE)
    rc = RefClock(wl.kernel)
    try:
        with rc:
            out = wl.op(fx, inp)
        error = None
    except Exception as e:  # the op boundary: a raising op is a counted failure
        out, error = None, f"raised {type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.restore()
    if error is None:
        try:
            error = wl.check(fx, inp, out)
        except Exception as e:  # a gate that cannot read the output fails the op
            error = f"gate raised {type(e).__name__}: {e}"
    return {"i": i, "traced": tracer is not None, "input": inp, "error": error,
            "wall_s": rc.wall_s, "cpu_s": rc.cpu_s, "scale": rc.scale,
            "ref_s": rc.ref(rc.wall_s), "cpu_ref_s": rc.ref(rc.cpu_s)}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS, Draws

    wl = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    load_before = os.getloadavg()
    imports = time_fresh_imports(SETUP_REPEATS)
    fixtures = []
    for _ in range(SETUP_REPEATS):
        with RefClock() as rc:
            fx = wl.setup(OUT / "work" / name)
        fixtures.append((rc.wall_s, rc.ref(rc.wall_s)))

    draws = Draws(seed)
    tracer = Tracer() if trace else None
    ops = []
    t_start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - t_start < seconds:
        inp = wl.draw(draws(i))
        ops.append(run_op(wl, fx, inp, i))
        if tracer is not None:
            ops.append(run_op(wl, fx, inp, i, tracer))
        i += 1
    load_after = os.getloadavg()

    def p50(key: str, traced: bool = False) -> float:
        return statistics.median(o[key] for o in ops if o["traced"] == traced)

    med = statistics.median
    setup_raw = med(w for w, _ in imports) + med(w for w, _ in fixtures)
    setup_ref = med(r for _, r in imports) + med(r for _, r in fixtures)
    if trace:
        values = metrics.layer_metrics(tracer, len(ops) // 2, p50("scale", True),
                                       p50("ref_s", True) / p50("ref_s"))
        units = dict(metrics.LAYER_METRICS)
        mean_traced = statistics.fmean(o["ref_s"] for o in ops if o["traced"])
        predictions = [(claim, bool(test(values, mean_traced)))
                       for claim, test in metrics.PREDICTIONS[name]]
    else:
        values = {
            "setup_s": setup_ref,
            "op_ref_s_p50": p50("ref_s"),
            "op_cpu_ref_s_p50": p50("cpu_ref_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        predictions = []

    failed = sum(1 for o in ops if o["error"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    wall = [o["wall_s"] for o in ops if not o["traced"]]
    what, base_s = BASELINES[name]
    detail = {
        "workload": name, "why": why, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(), "loadavg_before": load_before, "loadavg_after": load_after,
        "setup": {"raw_s": setup_raw, "ref_s": setup_ref,
                  "fresh_import_s": imports, "fixture_s": fixtures},
        "raw": {"op_s_p50": p50("wall_s"), "op_cpu_s_p50": p50("cpu_s"), "n": len(wall),
                "tail": metrics.tail_percentile(wall)},
        "fail_frac": failed / len(ops),
        "baseline": {"what": what, "roadmap_s": base_s, "op_s_p50": p50("wall_s"),
                     "op_ref_s_p50": p50("ref_s")},
        "predictions": predictions,
        "ops": ops,
        "result": result,
    }
    if tracer is not None:
        detail["trace_edges"] = [[n, p, *v] for (n, p), v in sorted(tracer.agg.items(), key=str)]
        detail["trace_counters"] = tracer.counters
        detail["spans"] = tracer.spans
    return result, detail


def summary(d: dict) -> list[str]:
    r, env, b, raw = d["result"], d["env"], d["baseline"], d["raw"]
    tail = raw["tail"]
    tail_txt = f"p{tail[0]:g} {tail[1]:.6g} s" if tail else "none (needs 20+ ops)"
    lines = [
        f"perfbench {d['workload']}: seed {d['seed']}, {d['seconds']} s, trace {int(d['trace'])}",
        f"  why: {d['why']}",
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu_model']}, git {env['git_sha']}, src {env['src_sha256'][:12]}",
        f"  loadavg before {d['loadavg_before']}, after {d['loadavg_after']}",
        f"  inputs: {[o['input'] for o in d['ops'] if not o['traced']]}",
        f"  ops: {r['attempted']} attempted, {r['failed']} failed, fail_frac {d['fail_frac']:g}",
        f"  raw: op_s_p50 {raw['op_s_p50']:.6g} s, op_cpu_s_p50 {raw['op_cpu_s_p50']:.6g} s "
        f"over {raw['n']} untraced ops (tail {tail_txt}); setup {d['setup']['raw_s']:.6g} s",
        f"  baseline: ROADMAP 'Recent' {b['what']}: {b['roadmap_s']} s (single run, +-20%); "
        f"this op_s_p50 {b['op_s_p50']:.4g} s ({b['op_s_p50'] / b['roadmap_s']:.3f}x), "
        f"op_ref_s_p50 {b['op_ref_s_p50']:.4g} s ({b['op_ref_s_p50'] / b['roadmap_s']:.3f}x)",
    ]
    lines += [f"  error: op {o['i']}: {o['error']}" for o in d["ops"] if o["error"]]
    lines += [f"  prediction: {claim}: {'holds' if ok else 'FAILS'}" for claim, ok in d["predictions"]]
    lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items()]
    return lines


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    ok = True
    for name in NAMES:
        got = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if got.returncode != 0:
            print(f"{name}: exit {got.returncode}\n{got.stderr}", file=sys.stderr)
            return got.returncode
        lines = got.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        ok &= res["correct"]
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}, fail_frac {res['failed'] / res['attempted']:g}")
        print(*(f"  {name} {ln.strip()}" for ln in lines if ln.startswith("  raw: ")), sep="\n")
        for k, m in res["metrics"].items():
            print(f"  {name} {k} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_library()
    except ImportError as e:
        print(f"perfbench: cannot import cantorifs from {SRC}: {e}", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail), encoding="utf-8")
    print("\n".join(summary(detail)))
    print(f"  detail: {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
