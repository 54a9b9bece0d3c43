"""The four workloads: seeded inputs, fixture set-up, one op, and the
correctness gate applied to every op.

The library is called through module attributes at call time
(``construct.build_class_c_example``), so a traced run sees the tracer's
rebound functions.  The seed never reaches the library: it only picks the
start of each input sequence.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from cantorifs import axioms, cli, construct, gapfinder, ifs, maps

# Op i draws coordinate d as frac(start_d + i * STEP_d), a Kronecker
# low-discrepancy sequence: the seed picks the starts, and any run of a few
# ops covers each input range evenly, so the per-run median does not hinge
# on a lucky or unlucky handful of draws.
STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


class Draws:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.starts = [rng.random() for _ in STEPS]

    def __call__(self, i: int) -> list[float]:
        return [(s + i * a) % 1.0 for s, a in zip(self.starts, STEPS)]


def _default_pair():
    pair, report, _ = construct.build_class_c_example()
    return pair, report


class Construct:
    name = "construct"
    kernel = "mixed"  # refclock kernel that slows like the op

    def draw(self, u: list[float]) -> dict:
        return {"jp_width": 0.008 + 0.002 * u[0], "k": 0.004 + 0.002 * u[1],
                "bump_strength": 3.5 + u[2]}

    def setup(self, work: Path) -> dict:
        return {}

    def op(self, fx: dict, inp: dict):
        _, report, _ = construct.build_class_c_example(construct.ConstructionParams(**inp))
        return report

    def check(self, fx: dict, inp: dict, report) -> str | None:
        ee = report.axioms.ee
        if not report.axioms.ok:
            return "axioms not ok"
        if not ee.mu > ee.mu_target:
            return f"ee.mu {ee.mu} <= mu_target {ee.mu_target}"
        return None


class Certify:
    name = "certify"
    kernel = "mixed"

    def draw(self, u: list[float]) -> dict:
        return {"N": 950 + int(u[0] * 101)}

    def setup(self, work: Path) -> dict:
        pair, report = _default_pair()
        hole = report.hole
        ruin = axioms.ruination_regions(pair, hole)
        bsets = axioms.boundary_sets(pair, hole, ruin)
        return {"pair": pair, "hole": hole, "ruin": ruin, "bsets": bsets, "mu": report.axioms.ee.mu}

    def op(self, fx: dict, inp: dict):
        return gapfinder.certify_cantor(
            fx["pair"], fx["hole"], fx["ruin"], fx["bsets"], resolution=1.0 / inp["N"],
            depth=14, verification_depth=18, mu=fx["mu"])

    def check(self, fx: dict, inp: dict, report) -> str | None:
        if not report.all_certified:
            return f"{report.n_failed} failed, {report.n_certified}/{report.n_meeting} certified"
        if not report.bound_respected:
            return "iteration bound not respected"
        return None


class Cloud:
    name = "cloud"
    kernel = "arith"

    def draw(self, u: list[float]) -> dict:
        # Seed point 0 or 1, each for about half of the ops.
        return {"s": float(round(u[0]))}

    def setup(self, work: Path) -> dict:
        pair, _ = _default_pair()
        return {"pair": pair, "orbit_size": {}}

    def op(self, fx: dict, inp: dict):
        pair = fx["pair"]
        cloud = ifs.orbit(pair, inp["s"], 20)
        cover = ifs.minimal_set_cover(pair, 14, 1e-3)
        bound = construct.check_measure_bound(construct.appendix_pair(), construct.AppendixParams(), 20)
        return cloud.size, cover.n_parts, bound

    def check(self, fx: dict, inp: dict, out) -> str | None:
        size, _, bound = out
        if not (bound.ok and bound.ratio_ok):
            return f"measure bound ok={bound.ok} ratio_ok={bound.ratio_ok}"
        first = fx["orbit_size"].setdefault(inp["s"], size)
        if size != first:
            return f"orbit size {size} != first op's {first} for seed point {inp['s']}"
        return None


class GapQuery:
    name = "gap_query"
    kernel = "mixed"

    def draw(self, u: list[float]) -> dict:
        width = 10.0 ** (-4.0 + 2.0 * u[0])
        lo = u[1] * (1.0 - width)
        return {"lo": lo, "hi": lo + width}

    def setup(self, work: Path) -> dict:
        pair, _ = _default_pair()
        work.mkdir(parents=True, exist_ok=True)
        pair_file = work / "pair.json"
        pair_file.write_text(maps.pair_to_json(pair.f, pair.g), encoding="utf-8")
        return {"pair_file": pair_file, "work": work, "cloud": ifs.orbit(pair, 0.0, 18),
                "margin": pair.tol.eps_geom}

    def op(self, fx: dict, inp: dict):
        cert = fx["work"] / "gap_certificate.txt"
        cert.unlink(missing_ok=True)
        rc = cli.main(["gaps", str(fx["pair_file"]), "--lo", repr(inp["lo"]),
                       "--hi", repr(inp["hi"]), "--output-dir", str(fx["work"])])
        return rc, cert.read_text(encoding="utf-8") if rc == 0 else ""

    def check(self, fx: dict, inp: dict, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        j_lo, j_hi = _parse_interval(fields["input"])
        o_lo, o_hi = _parse_interval(fields["output"])
        if not (j_lo <= o_lo < o_hi <= j_hi):
            return f"output [{o_lo}, {o_hi}] not inside input [{j_lo}, {j_hi}]"
        pts = fx["cloud"].points
        m = fx["margin"]
        inside = int(np.count_nonzero((pts > o_lo + m) & (pts < o_hi - m)))
        if inside:
            return f"{inside} depth-18 orbit points inside output [{o_lo}, {o_hi}]"
        return None


def _parse_interval(s: str) -> tuple[float, float]:
    lo, hi = s.strip().strip("[]").split(",")
    return float(lo), float(hi)


WORKLOADS = {w.name: w for w in (Construct(), Certify(), Cloud(), GapQuery())}
