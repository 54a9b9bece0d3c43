"""Byte-identity of the CLI's deterministic artifacts.

The SHA-256 digests below pin `pair.json` from `construct`, two gap
certificates, the `gaps --certify` report and CSV and the depth-12
`orbit.csv` on the default pair, and the three `appendix` reports, with the
`config_*` echo lines (which hold output paths) left out; the
construction's report and pair at the 27 corners of the parameter box that
perfbench's `construct` workload draws from; and the vectorized path: three
depth-20 orbits and the appendix Lambda sets and measure bound to n = 20 at
four (eps, lam); and every certificate that `find_gap` returns in the
certify sweeps at resolutions 1e-3 and 1/1013.  A change that moves any of
them must update the digest on purpose and say why.
"""

import hashlib
from itertools import product

from cantorifs.cli import main
from cantorifs.construct import (
    AppendixParams,
    ConstructionParams,
    appendix_pair,
    build_class_c_example,
    check_measure_bound,
    lambda_sequence,
)
from cantorifs.gapfinder import WALK_VERDICTS, find_gap
from cantorifs.ifs import minimal_set_cover, orbit
from cantorifs.maps import pair_to_json

from oracles import grid_cells

GOLDEN = {
    "pair.json": "5fbc9e9a68239551ddd383a8df5006b0bd4ba92a9fdbd7f2e15e415e853d4541",
    "gap_a/gap_certificate.txt": "44986210e1c20d245951f5e37111d9bf04e1efe0e4e5c027c6de031bb90439ab",
    "gap_b/gap_certificate.txt": "3d480ff68a27a424c9e35413e545afe0315945b71476aa2a2b700d81dd6b1163",
    "certify/certify_report.txt": "e3f07e69fed7ad5e829e7f5b12fe73f6093699519f9b7521ce5c9e6f69db03ad",
    "certify/certify_report.csv": "aedac144af3c2db3201558092dbf54fa478f35f225c2caa7b11c09b23393d404",
    "orbit/orbit.csv": "3be9024c966b7511ab275fe9a3bafadfb86c0b0478e4c7d312fbf4bb28fd4fd9",
    "appendix/appendix_bound.txt": "d1f48ae086b4ed5a2a9ae332366e8eea921600d9861bd19ade6b2d501deecc8b",
    "appendix/appendix_lambda.csv": "f9f677678f9a11e85b0c154d8e34f28f255cad4d8a12c66bd6df121257bb200d",
    "appendix/appendix_lambda10.csv": "9ed83ba90e5ca5e0a862f932c19e8d968a5539e0a159f83015012b78603a9ece",
}

# One digest over the raw bytes of `orbit(pair, s, 20).points` on the built
# pair for s = 0, 1, 0.37, then, at each (eps, lam) of `APPENDIX_POINTS`, the
# los and his of Lambda_0..Lambda_20 and `check_measure_bound(...).to_text()`.
VECTOR_PATH = "78d89765fe4990ecdfdeb700316526a12623509ebfd339bdbd1e42f0e3115d2b"
APPENDIX_POINTS = ((0.01, 0.45), (0.05, 0.2), (0.1, 0.3), (1 / 30, 0.45))

# One digest over the `find_gap` certificate of every cell that the certify
# sweep (depth 14, verification depth 18) walks at each resolution of
# `SWEEP_RESOLUTIONS`: input, output, each trace step, terminal reason and
# iteration bound, floats by `float.hex`; a verdict adds its error instead.
CERTIFY_SWEEPS = "d754c78deda37325bdf071c22027f16e1b0c26ec948ce2c8670cd348b4ea3b90"
SWEEP_RESOLUTIONS = (1e-3, 1 / 1013)

# One digest over `PipelineReport.to_text()` and then `pair_to_json` of the
# built pair, corner by corner in the order of `product` below.
CONSTRUCT_BOX = "8273408cf182ce1c8d6d5a8a972ce2397c81a5fff0bb6b7c2e25cd93d014e248"


def _digest(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("config_"))
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


def test_cli_artifacts_match_golden_digests(tmp_path):
    assert main(["construct", "--output-dir", str(tmp_path)]) == 0
    pair = str(tmp_path / "pair.json")
    for out, lo, hi in (("gap_a", "0.30", "0.31"), ("gap_b", "0.41", "0.4101")):
        assert main(["gaps", pair, "--lo", lo, "--hi", hi,
                     "--output-dir", str(tmp_path / out)]) == 0
    assert main(["gaps", pair, "--certify", "--resolution", "1e-2",
                 "--output-dir", str(tmp_path / "certify")]) == 0
    assert main(["orbit", pair, "--depth", "12", "--output-dir", str(tmp_path / "orbit")]) == 0
    assert main(["appendix", "--output-dir", str(tmp_path / "appendix")]) == 0
    assert {name: _digest(tmp_path / name) for name in GOLDEN} == GOLDEN


def test_construct_box_matches_golden_digest():
    h = hashlib.sha256()
    for jp_width, k, strength in product((0.008, 0.009, 0.010), (0.004, 0.005, 0.006),
                                         (3.5, 4.0, 4.5)):
        pair, report, _ = build_class_c_example(
            ConstructionParams(jp_width=jp_width, k=k, bump_strength=strength))
        h.update(report.to_text().encode("utf-8"))
        h.update(pair_to_json(pair.f, pair.g).encode("utf-8"))
    assert h.hexdigest() == CONSTRUCT_BOX


def test_vector_path_matches_golden_digest(built_pair):
    h = hashlib.sha256()
    for s in (0.0, 1.0, 0.37):
        h.update(orbit(built_pair, s, 20).points.tobytes())
    for eps, lam in APPENDIX_POINTS:
        params = AppendixParams(eps=eps, lam=lam)
        pair = appendix_pair(params)
        for lam_n in lambda_sequence(pair, params, 20):
            h.update(lam_n.los.tobytes())
            h.update(lam_n.his.tobytes())
        h.update(check_measure_bound(pair, params, 20).to_text().encode("utf-8"))
    assert h.hexdigest() == VECTOR_PATH


def _iv(iv) -> str:
    return f"{iv.lo.hex()},{iv.hi.hex()}"


def test_certify_sweep_certificates_match_golden_digest(built_ctx, cloud18):
    ctx = built_ctx
    h = hashlib.sha256()
    for res in SWEEP_RESOLUTIONS:
        _, cells = grid_cells(minimal_set_cover(ctx["pair"], 14, res), res)
        for J in cells:
            try:
                cert = find_gap(J, ctx["pair"], ctx["hole"], ctx["ruin"], ctx["bsets"],
                                mu=ctx["mu"], cloud=cloud18)
            except WALK_VERDICTS as e:
                h.update(f"{_iv(J)} {type(e).__name__}: {e}\n".encode("utf-8"))
                continue
            steps = ";".join(f"{s.tag.value}:{s.op}:{s.n}:{_iv(s.interval)}" for s in cert.trace)
            h.update(f"{_iv(cert.input)} {_iv(cert.output)} {steps} "
                     f"{cert.terminal_reason.value} {cert.iteration_bound}\n".encode("utf-8"))
    assert h.hexdigest() == CERTIFY_SWEEPS
