import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cantorifs.cli import DEFAULT_SEED, main
from cantorifs.construct import (
    AppendixParams,
    appendix_pair,
    lambda_sets,
)
from cantorifs.ifs import minimal_set_cover
from cantorifs.intervals import from_csv, to_csv
from cantorifs.maps import MapSpec, affine_spec, pair_to_json
from cantorifs.plot import plot_pair, plot_strip


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory, built_pair):
    path = tmp_path_factory.mktemp("pairs") / "pair.json"
    path.write_text(pair_to_json(built_pair.f, built_pair.g), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bad_pair_file(tmp_path_factory):
    from cantorifs.construct import base_pair

    f, g = base_pair()
    path = tmp_path_factory.mktemp("pairs") / "base.json"
    path.write_text(pair_to_json(f, g), encoding="utf-8")
    return str(path)


# -- SVG ------------------------------------------------------------------------


def test_plot_deterministic(built_ctx):
    a = plot_pair(built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"])
    b = plot_pair(built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"])
    assert a == b  # byte-identical


def test_plot_layers_present(built_ctx):
    svg = plot_pair(built_ctx["pair"], built_ctx["hole"], built_ctx["ruin"])
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3  # f, g, diagonal
    assert "#e0a040" in svg  # hole shading
    assert "#70c070" in svg  # overlap band


def test_plot_appendix_blocks(appendix):
    pair, params = appendix
    svg = plot_pair(pair, blocks=params.blocks)
    assert svg.count('fill="#c8dcf0"') == 3  # the three diagonal blocks


def test_strip_has_one_rect_per_part(appendix):
    pair, params = appendix
    lam = lambda_sets(pair, params, 10)
    svg = plot_strip(lam, label="L10")
    assert svg.count("<rect") == lam.n_parts + 1  # background + parts


def test_plot_with_cover_strip(built_pair):
    cover = minimal_set_cover(built_pair, 8, 1e-3)
    svg = plot_pair(built_pair, cover=cover)
    assert svg.count("<rect") >= cover.n_parts


# -- CLI -------------------------------------------------------------------------


def test_cli_validate_constructed(pair_file, tmp_path):
    code = main(["validate", pair_file, "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "validate_report.txt").read_text()
    assert "all_axioms: ok" in text
    assert "ee_mu:" in text and "ca_min_margin:" in text
    assert "config_pair_file:" in text  # effective config embedded


def test_cli_validate_base_pair_fails(bad_pair_file, tmp_path):
    code = main(["validate", bad_pair_file, "--output-dir", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "validate_report.txt").read_text()
    assert "violation: 0 < g(0) < f(1) < 1" in text


@pytest.mark.parametrize("f_icpt, g_icpt, bullet", [
    (0.01, 0.5, "f(0) = 0"), (0.0, 0.49, "g(1) = 1")])
def test_cli_validate_fixed_point_failure(tmp_path, capsys, f_icpt, g_icpt, bullet):
    path = tmp_path / "moved.json"
    path.write_text(pair_to_json(affine_spec(0.5, f_icpt), affine_spec(0.5, g_icpt)))
    assert main(["validate", str(path), "--output-dir", str(tmp_path), "--echo"]) == 1
    out = capsys.readouterr().out
    assert "class_a: violated\n" in out and f"violation: {bullet}\n" in out
    assert out == (tmp_path / "validate_report.txt").read_text()


def test_cli_validate_so_failure_stops_the_checks(tmp_path):
    """A class-A pair whose overlap is too wide fails So, and the checks
    stop there: no hole, Ee or Ca lines."""
    path = tmp_path / "wide.json"
    path.write_text(pair_to_json(affine_spec(0.8, 0.0), affine_spec(0.8, 0.2)))
    assert main(["validate", str(path), "--output-dir", str(tmp_path)]) == 1
    lines = (tmp_path / "validate_report.txt").read_text().splitlines()
    assert "class_a: ok" in lines
    assert "so: violated" in lines and "all_axioms: FAILED" in lines
    assert not [ln for ln in lines if ln.startswith(("hole_h_f", "ee:", "ca:"))]


def test_cli_orbit(pair_file, tmp_path):
    code = main(["orbit", pair_file, "--depth", "8", "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "x"
    assert len(lines) > 50


@pytest.mark.parametrize("command, artifact", [
    ("orbit", "orbit.csv"), ("minimal-set", "minimal_set.csv"), ("plot", "pair.svg")])
def test_cli_class_a_failure_is_a_verdict(bad_pair_file, tmp_path, capsys, command, artifact):
    assert main([command, bad_pair_file, "--output-dir", str(tmp_path)]) == 1
    assert not (tmp_path / artifact).exists()
    err = capsys.readouterr().err
    assert err.startswith("class_a: violated\n")
    assert "violation: 0 < g(0) < f(1) < 1" in err


def test_cli_minimal_set(pair_file, tmp_path):
    code = main(["minimal-set", pair_file, "--depth", "8",
                 "--resolution", "1e-3", "--output-dir", str(tmp_path)])
    assert code == 0
    cover = from_csv((tmp_path / "minimal_set.csv").read_text())
    assert not cover.is_empty()


def test_cli_gaps_single_interval(pair_file, tmp_path):
    code = main(["gaps", pair_file, "--lo", "0.30", "--hi", "0.31",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "gap_certificate.txt").read_text()
    assert "terminal:" in text and "trace:" in text


def test_cli_gaps_certify(pair_file, tmp_path):
    code = main(["gaps", pair_file, "--certify", "--resolution", "0.05",
                 "--depth", "10", "--verification-depth", "12",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert "certify_failed: 0" in (tmp_path / "certify_report.txt").read_text()
    assert (tmp_path / "certify_report.csv").exists()


@pytest.mark.parametrize("resolution", ["1e-9", "5e-324"])
def test_cli_gaps_certify_refuses_a_grid_past_the_cap(pair_file, tmp_path, monkeypatch, capsys,
                                                      resolution):
    """5e-324 once ended in an OverflowError traceback, and 1e-9 would
    allocate gigabytes for the grid."""
    import cantorifs.gapfinder as gapfinder

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(gapfinder, "grid_cells_meeting", no_grid)
    out = tmp_path / "out"
    assert main(["gaps", pair_file, "--certify", "--resolution", resolution,
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ResourceCapError: ")
    assert not out.exists()


def test_cli_gaps_usage_error(pair_file, tmp_path):
    code = main(["gaps", pair_file, "--output-dir", str(tmp_path)])
    assert code == 2  # neither --certify nor an explicit interval


def _no_validation(monkeypatch):
    import cantorifs.cli as cli

    def expensive(*args, **kwargs):
        raise AssertionError("the pair was validated before argument checks")

    monkeypatch.setattr(cli, "_validate", expensive)


def test_cli_gaps_rejects_bad_interval_before_work(pair_file, tmp_path, monkeypatch):
    """An interval outside [0, 1] once ran the validation and a 5,000-step
    fundamental-domain search before its ClassificationError exited 2."""
    _no_validation(monkeypatch)
    assert main(["gaps", pair_file, "--lo", "0.3", "--output-dir", str(tmp_path)]) == 2
    for lo, hi in (("0.31", "0.30"), ("1.2", "1.3"), ("-0.1", "0.2"), ("0.9", "1.5")):
        assert main(["gaps", pair_file, "--lo", lo, "--hi", hi,
                     "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("window", [["--lo", "0.3"], ["--hi", "0.31"],
                                    ["--lo", "0.3", "--hi", "0.31"]])
def test_cli_gaps_certify_refuses_a_window(pair_file, tmp_path, monkeypatch, capsys, window):
    """The sweep covers [0, 1]; a window beside --certify was dropped, and
    its report still echoed config_lo/config_hi."""
    _no_validation(monkeypatch)
    assert main(["gaps", pair_file, "--certify", *window, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gaps: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [["--resolution", "0"], ["--resolution", "-0.01"],
                                 ["--resolution", "nan"], ["--depth", "0"],
                                 ["--verification-depth", "-1"]])
def test_cli_gaps_certify_rejects_bad_arguments_before_work(pair_file, tmp_path, monkeypatch,
                                                            bad):
    _no_validation(monkeypatch)
    assert main(["gaps", pair_file, "--certify", *bad, "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["minimal-set", "PAIR", "--resolution", "nan"],
    ["plot", "PAIR", "--cover-depth", "3", "--resolution", "nan"],
    ["validate", "PAIR", "--mu-target", "nan"],
    ["validate", "PAIR", "--mu-target", "1"],
    ["gaps", "PAIR", "--lo", "0.3", "--hi", "inf"],
    ["gaps", "PAIR", "--lo", "0.3", "--hi", "0.31", "--mu-target", "0.5"],
    ["construct", "--k", "-inf"],
    ["construct", "--mu-target", "1.0"],
    ["orbit", "PAIR", "--depth", "-1"],
    ["minimal-set", "PAIR", "--depth", "0"],
    ["gaps", "PAIR", "--lo", "0.3", "--hi", "0.31", "--depth", "0"],
    ["minimal-set", "PAIR", "--resolution", "0"],
    ["minimal-set", "PAIR", "--resolution", "-1e-3"],
    ["plot", "PAIR", "--cover-depth", "3", "--resolution", "0"],
    ["gaps", "PAIR", "--certify", "--resolution", "0"],
])
def test_cli_rejects_bad_floats_at_parse_time(pair_file, tmp_path, monkeypatch, argv):
    import cantorifs.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("_validate", "_load_pair", "build_class_c_example"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [pair_file if a == "PAIR" else a for a in argv]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["appendix", "--n-max", "-1"],
    ["appendix", "--n-max", "2.5"],
    ["plot", "PAIR", "--cover-depth", "-1"],
])
def test_cli_rejects_negative_counts_at_parse_time(pair_file, tmp_path, argv):
    """Before, `appendix --n-max -1` wrote three files and then exited 2, and
    `plot --cover-depth -1` drew no cover and exited 0."""
    out = tmp_path / "out"
    argv = [pair_file if a == "PAIR" else a for a in argv]
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert not out.exists()


def _gaps_verdict(pair_file, tmp_path, *extra):
    """Run `gaps` on one interval; it must end in a verdict with the
    validate report and no certificate."""
    code = main(["gaps", pair_file, "--lo", "0.30", "--hi", "0.31", *extra,
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "gap_certificate.txt").exists()
    text = (tmp_path / "validate_report.txt").read_text()
    assert "all_axioms: ok" not in text
    return text


def test_cli_gaps_without_expansion_is_a_verdict(pair_file, tmp_path, monkeypatch):
    import cantorifs.axioms as axioms
    from cantorifs.axioms import ExpansionReport

    monkeypatch.setattr(axioms, "check_ee", lambda *a, **k: ExpansionReport(
        ok=False, mu=0.9, mu_target=1.01, samples=10, min_site=0.5, min_branch="F",
        tails_enclosed=True))
    assert "ee: violated" in _gaps_verdict(pair_file, tmp_path)


def test_cli_gaps_needs_mu_above_target(pair_file, tmp_path):
    text = _gaps_verdict(pair_file, tmp_path, "--mu-target", "2.5")
    assert "ee: violated" in text
    mu = float(text.split("ee_mu: ", 1)[1].split()[0])
    assert 1.0 < mu <= 2.5


def test_cli_gaps_needs_castration(pair_file, tmp_path, monkeypatch):
    import cantorifs.axioms as axioms
    from cantorifs.axioms import CaReport

    monkeypatch.setattr(axioms, "check_ca", lambda *a, **k: CaReport(
        False, False, True, 0.5, 0.0))
    assert "ca: violated" in _gaps_verdict(pair_file, tmp_path)


def test_cli_gaps_class_a_failure_is_a_verdict(bad_pair_file, tmp_path):
    text = _gaps_verdict(bad_pair_file, tmp_path)
    assert "violation: 0 < g(0) < f(1) < 1" in text


def test_cli_gaps_without_hole_matches_validate(appendix, tmp_path):
    """A pair whose hole search fails gets the verdict `validate` gives."""
    pair, _ = appendix
    app_file = tmp_path / "appendix_pair.json"
    app_file.write_text(pair_to_json(pair.f, pair.g))
    assert main(["validate", str(app_file), "--output-dir", str(tmp_path / "v")]) == 1
    assert main(["gaps", str(app_file), "--lo", "0.1", "--hi", "0.11",
                 "--output-dir", str(tmp_path / "g")]) == 1
    assert not (tmp_path / "g" / "gap_certificate.txt").exists()

    def hole_error(d):
        lines = (tmp_path / d / "validate_report.txt").read_text().splitlines()
        return [line for line in lines if line.startswith("hole_error: ")]

    assert len(hole_error("g")) == 1
    assert hole_error("g") == hole_error("v")


@pytest.mark.parametrize("error", ["ClassificationError", "CertificateError",
                                   "IterationCapError", "DomainError"])
def test_cli_gaps_walk_verdict_exits_1(pair_file, tmp_path, monkeypatch, capsys, error):
    """A walk that ends in a verdict on the window writes no certificate,
    one stderr line, and exits 1; a fault such as a DomainError still
    exits 2."""
    import cantorifs.cli as cli
    import cantorifs.errors as errors

    def no_gap(*args, **kwargs):
        raise getattr(errors, error)("no gap here")

    monkeypatch.setattr(cli, "find_gap", no_gap)
    code = main(["gaps", pair_file, "--lo", "0.30", "--hi", "0.31",
                 "--output-dir", str(tmp_path)])
    assert code == (2 if error == "DomainError" else 1)
    assert not (tmp_path / "gap_certificate.txt").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"{error}: no gap here")


def test_cli_gaps_window_reaching_eps_into_f1_is_pulled_back(pair_file, built_pair, tmp_path):
    """Once exit 2, after a failed first step of the core walk."""
    lo, hi = built_pair.f1.lo - 1e-6, built_pair.f1.lo + 5e-10
    assert main(["gaps", pair_file, "--lo", repr(lo), "--hi", repr(hi),
                 "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "gap_certificate.txt").read_text()
    assert "\ntrace: PULLBACK_FN op=invpow_f n=1 " in text


def test_cli_appendix(tmp_path):
    code = main(["appendix", "--n-max", "12", "--output-dir", str(tmp_path)])
    assert code == 0
    assert "measure_bound_ok: True" in (tmp_path / "appendix_bound.txt").read_text()
    rows = (tmp_path / "appendix_lambda.csv").read_text().strip().splitlines()
    assert rows[0] == "n,measure,bound"
    assert len(rows) == 14  # header + n = 0..12


def test_cli_appendix_refuses_a_lambda_step_past_the_cap(tmp_path, monkeypatch, capsys):
    import cantorifs.construct as construct

    monkeypatch.setattr(construct, "ORBIT_CAP", 100)
    out = tmp_path / "out"
    assert main(["appendix", "--n-max", "12", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ResourceCapError: Lambda_")
    assert not out.exists()


def test_cli_plot(pair_file, tmp_path):
    code = main(["plot", pair_file, "--output-dir", str(tmp_path)])
    assert code == 0
    svg = (tmp_path / "pair.svg").read_text()
    assert svg.startswith("<svg")


def test_cli_plot_with_cover_and_blocks(pair_file, tmp_path):
    """`--blocks` shades one square per CSV line and `--cover-depth` appends
    the minimal-set strip; the figure is byte-identical across runs."""
    blocks = tmp_path / "blocks.csv"
    blocks.write_text("0.1,0.2\n# a comment\n0.6,0.75\n", encoding="utf-8")
    svgs = []
    for run in ("a", "b"):
        argv = ["plot", pair_file, "--cover-depth", "6", "--blocks", str(blocks),
                "--output-dir", str(tmp_path / run)]
        assert main(argv) == 0
        svgs.append((tmp_path / run / "pair.svg").read_bytes())
    assert svgs[0] == svgs[1]
    svg = svgs[0].decode()
    assert svg.count('fill="#c8dcf0"') == 2  # one square per block
    assert svg.count('<g stroke="none"') == 1  # the cover strip


def test_cli_plot_reports_missing_layers(pair_file, appendix, tmp_path, capsys):
    """A pair without a hole at the seed still gets its figure; the reason
    the hole and ruination layers are missing goes to stderr."""
    pair, _ = appendix
    app_file = tmp_path / "appendix_pair.json"
    app_file.write_text(pair_to_json(pair.f, pair.g))
    assert main(["plot", str(app_file), "--output-dir", str(tmp_path / "app")]) == 0
    assert (tmp_path / "app" / "pair.svg").read_text().startswith("<svg")
    err = capsys.readouterr().err
    assert err.startswith("plot: no hole/ruination layers: NoContractionError: ")
    assert main(["plot", pair_file, "--output-dir", str(tmp_path / "built")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_plot_fault_is_not_a_missing_layer(pair_file, tmp_path, monkeypatch):
    """Only the hole verdicts drop the layers: a fault while building them
    exits 2 and writes no figure."""
    import cantorifs.cli as cli
    from cantorifs.errors import DomainError

    def broken(*args):
        raise DomainError("injected")

    monkeypatch.setattr(cli, "ruination_regions", broken)
    assert main(["plot", pair_file, "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "pair.svg").exists()


def test_cli_strip(tmp_path, appendix):
    pair, params = appendix
    csv_path = tmp_path / "lam.csv"
    csv_path.write_text(to_csv(lambda_sets(pair, params, 8)))
    code = main(["strip", str(csv_path), "--label", "L8", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "strip.svg").read_text().count("<rect") > 10


@pytest.mark.parametrize("argv, echoed", [
    (["validate", "{pair}"], ["validate_report.txt"]),
    (["construct"], ["construct_report.txt"]),
    (["orbit", "{pair}", "--depth", "8"], ["orbit.csv"]),
    (["minimal-set", "{pair}", "--depth", "8"], ["minimal_set.csv"]),
    (["gaps", "{pair}", "--lo", "0.30", "--hi", "0.31"], ["gap_certificate.txt"]),
    (["gaps", "{pair}", "--certify", "--resolution", "0.05", "--depth", "10",
      "--verification-depth", "12"], ["certify_report.txt", "certify_report.csv"]),
    (["appendix", "--n-max", "12"], ["appendix_bound.txt"]),
    (["plot", "{pair}"], ["pair.svg"]),
    (["strip", "{csv}"], ["strip.svg"]),
], ids=["validate", "construct", "orbit", "minimal-set", "gaps", "gaps-certify", "appendix",
        "plot", "strip"])
def test_cli_echo_prints_each_report(pair_file, tmp_path, capsys, argv, echoed):
    csv = tmp_path / "parts.csv"
    csv.write_text("0.1,0.2\n0.4,0.6\n", encoding="utf-8")
    argv = [a.format(pair=pair_file, csv=csv) for a in argv]
    assert main([*argv, "--echo", "--output-dir", str(tmp_path / "out")]) == 0
    written = "".join((tmp_path / "out" / name).read_text(encoding="utf-8") for name in echoed)
    assert written in capsys.readouterr().out


def test_cli_missing_file_is_usage_error(tmp_path):
    code = main(["validate", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path)])
    assert code == 2



@pytest.mark.parametrize("command", ["validate", "gaps", "plot"])
@pytest.mark.parametrize("lo, hi", [("0.4", "0.3"), ("-3", "5"), ("-0.1", "0.2"), ("0.9", "1.5")])
def test_cli_bad_hole_seed_is_a_usage_error_before_the_pair_is_read(tmp_path, capsys, command,
                                                                     lo, hi):
    """A reversed seed once loaded the pair and ran class A before its
    SpecError exited 2, and one outside [0, 1] exited on a DomainError; the
    pair file here does not exist, so only the usage check can answer."""
    window = ["--lo", "0.3", "--hi", "0.31"] if command == "gaps" else []
    assert main([command, str(tmp_path / "nope.json"), *window, "--seed-lo", lo, "--seed-hi", hi,
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ") and err.count("\n") == 1
    assert "--seed-lo" in err and "--seed-hi" in err


def test_cli_one_point_hole_seed_is_a_verdict(pair_file, tmp_path, capsys):
    assert main(["validate", pair_file, "--seed-lo", "0.3", "--seed-hi", "0.3",
                 "--output-dir", str(tmp_path)]) == 1
    assert "hole_error: " in (tmp_path / "validate_report.txt").read_text(encoding="utf-8")

def _segment_without_x_lo(pair_file: str) -> str:
    doc = json.loads(Path(pair_file).read_text(encoding="utf-8"))
    del doc["g"]["segments"][1]["x_lo"]
    return json.dumps(doc)


@pytest.mark.parametrize("command, content, message", [
    ("validate", "[1,2]", "SpecError: not a cantorifs pair file"),
    ("validate", "{bad", "SpecError: pair file is not JSON"),
    ("validate", _segment_without_x_lo, "SpecError: segment 1: field 'x_lo' must be a number"),
    ("validate", None, "error: "),
    ("validate", b"\xff\xfe{}", "codec can't decode"),
    ("strip", "0.1,0.2\nx,2\n", "SpecError: line 2 is not 'lo,hi'"),
    ("strip", "0.2,inf\n", "SpecError: line 1 has a bound outside [0, 1]"),
    ("strip", "0.1,0.2\n-5,0.3\n", "SpecError: line 2 has a bound outside [0, 1]"),
    ("strip", "nan,0.5\n", "SpecError: line 1 has a bound outside [0, 1]"),
    ("strip", "0.5,1.0000000000000002\n", "SpecError: line 1 has a bound outside [0, 1]"),
], ids=["list", "not-json", "no-x_lo", "directory", "not-utf8", "csv-line", "csv-inf",
        "csv-negative", "csv-nan", "csv-above-one"])
def test_cli_malformed_input_is_a_usage_error(pair_file, tmp_path, capsys, command, content,
                                              message):
    """A malformed input file exits 2 with one error line, never 1 (a
    verdict) with a traceback; None stands for a directory."""
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else content(pair_file),
                        encoding="utf-8")
    assert main([command, str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-float"])
@pytest.mark.parametrize("kind, field", [("affine", "intercept"), ("cubic_hermite", "d_hi")])
def test_cli_non_finite_field_is_a_usage_error(pair_file, tmp_path, capsys, value, kind, field):
    """NaN, Infinity, -Infinity or an integer past the float range in a pair
    file's field exits 2 naming the field and its segment.  A NaN intercept
    on f's last segment once passed the join checks and exited 1 with a
    class-A verdict on f(1) = nan, and the integer raised an OverflowError."""
    doc = json.loads(Path(pair_file).read_text(encoding="utf-8"))
    segs = doc["f"]["segments"]
    i = max(j for j, sd in enumerate(segs) if sd["kind"] == kind)
    segs[i][field] = value
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity, -Infinity
    assert main(["validate", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"SpecError: segment {i}: field {field!r} must be finite, got {value!r}" in err
    assert not (tmp_path / "out").exists()


def test_cli_validate_refuses_an_inexact_join(pair_file, tmp_path, capsys):
    """f's segment at the bump's right edge moved 2 ulps past the bump's
    end, as in pair files written before joins were exact: refused."""
    doc = json.loads(Path(pair_file).read_text(encoding="utf-8"))
    segs = doc["f"]["segments"]
    i = min(range(1, len(segs)), key=lambda j: abs(segs[j]["x_lo"] - (2 / 3 + 0.005)))
    segs[i]["x_lo"] = math.nextafter(math.nextafter(segs[i]["x_lo"], 1.0), 1.0)
    path = tmp_path / "old_pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path), "--output-dir", str(tmp_path)]) == 2
    assert f"SpecError: segments {i - 1} and {i} must join exactly" in capsys.readouterr().err


def test_cli_construct(tmp_path):
    code = main(["construct", "--output-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "pair.json").read_text())
    assert doc["format"] == "cantorifs-pair"
    report = (tmp_path / "construct_report.txt").read_text()
    assert "all_axioms: ok" in report
    # the eps family bounds its own window, so the report names none
    assert "param_eps_window:" not in report and "\ndelta:" not in report


def test_cli_construct_has_no_eps_window_option(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["construct", "--delta-max", "1", "--output-dir", str(out)]) == 2
    assert "unrecognized arguments: --delta-max 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_construct_builds_at_n_target_8(tmp_path):
    """alpha_0 = 0.176 at n_target = 8 is inside the family's window; an
    upper bound of 1/8 on eps used to refuse it with BracketError."""
    assert main(["construct", "--n-target", "8", "--output-dir", str(tmp_path)]) == 0
    assert "all_axioms: ok" in (tmp_path / "construct_report.txt").read_text()


@pytest.mark.parametrize("argv, message", [
    (["--n-target", "7"], "too large: the overlap preimage leaves the affine tail"),
    (["--bump-strength", "2.2"], "inner containment failed: g0(J'_p) = "),
    (["--bump-strength", "4.6"], "bump profile infeasible: low slope m = "),
    (["--n-target", "22"], "gamma needs g(0) in r_f and f(1) in r_g"),
], ids=["eps-past-the-family-window", "inner-containment", "bump-profile", "gamma-ends"])
def test_cli_construct_refusal_is_one_error_line(tmp_path, capsys, argv, message):
    """Valid options the construction cannot build from exit 2 with one
    ConstructionError line and write no pair file."""
    out = tmp_path / "out"
    assert main(["construct", *argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConstructionError: ") and message in err
    assert err.count("\n") == 1
    assert not (out / "pair.json").exists()


def test_cli_construct_refuses_a_huge_n_target_after_few_images(tmp_path, capsys,
                                                                monkeypatch):
    """g0's images of the hole reach [1, 1] bit for bit after about 54
    steps, so n_target = 10^9 is refused with n_target = 10^5's
    BracketError after at most a few hundred interval images, not 10^9 of
    them (about 24 minutes)."""
    image_of, calls = MapSpec.image_of, []

    def counted(self, iv):
        calls.append(iv)
        if len(calls) > 1000:
            raise AssertionError("construct iterated past the hole image's fixed point")
        return image_of(self, iv)

    monkeypatch.setattr(MapSpec, "image_of", counted)
    out = tmp_path / "out"
    assert main(["construct", "--n-target", "1000000000", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("error: BracketError: x = 1.0 is not reached for a "
                                       "finite eps >= 1e-09 (eps = 0.0)\n")
    assert not (out / "pair.json").exists()


def test_cli_construct_builds_at_n_target_16(tmp_path):
    """Before class A was decided on each segment's cubic, every castrated
    candidate at n_target = 16 failed `f(x) < x` at one of g's breakpoints
    within 1e-9 of the fixed point 0."""
    assert main(["construct", "--n-target", "16", "--output-dir", str(tmp_path)]) == 0
    assert "all_axioms: ok" in (tmp_path / "construct_report.txt").read_text()


@pytest.mark.parametrize("lo, hi", [("0.9999999999999999", "1"), ("0", "5e-324")],
                         ids=["at-1", "at-0"])
def test_cli_gaps_refuses_an_output_at_a_fixed_point(pair_file, tmp_path, capsys, lo, hi):
    """These windows certified [0.99999999999999989, 1] and [0, 4.94e-324],
    each holding a point of K."""
    assert main(["gaps", pair_file, "--lo", lo, "--hi", hi, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("gaps: no certificate: ")
    assert not (tmp_path / "gap_certificate.txt").exists()


# -- in-process calls ----------------------------------------------------------


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


_SEQUENCE = [
    ["gaps", "{pair}", "--certify", "--resolution", "0.05"],
    ["gaps", "{pair}", "--lo", "0.30", "--hi", "0.31"],
    ["gaps", "{pair}", "--lo", "0.3"],
    ["validate", "{pair}", "--seed-lo", "0.3", "--mu-target", "1.5"],
    ["validate", "{pair}"],
]


def test_cli_calls_share_no_state(pair_file, tmp_path, monkeypatch, capsys):
    """`main` parses every call with the one parser of the process.  Each
    call of a sequence that switches subcommands, then options back to
    their defaults, gives what a parser built for that call alone gives:
    exit code, stdout, stderr and artifacts with their config_* lines."""
    import cantorifs.cli as cli

    def run(argv):
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        code = main([a.format(pair=pair_file) for a in argv] + ["--output-dir", str(out)])
        return code, capsys.readouterr(), _artifacts(out)

    shared = [run(argv) for argv in _SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(argv) for argv in _SEQUENCE] == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    cert = shared[1][2]["gap_certificate.txt"].decode()
    assert "config_certify: False\n" in cert and "config_resolution: 0.01\n" in cert
    report = shared[4][2]["validate_report.txt"].decode()
    assert "config_mu_target: 1.01\n" in report
    assert f"config_seed_lo: {DEFAULT_SEED.lo}\n" in report


def test_cli_builds_its_parser_once(pair_file, tmp_path, monkeypatch):
    import argparse

    import cantorifs.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["gaps", pair_file, "--lo", "0.30", "--hi", "0.31", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    first = len(built)
    assert main(argv) == 0
    assert first == 9  # the top parser and one per subcommand
    assert len(built) == first


@pytest.mark.parametrize("argv", [
    ["gaps", "{pair}", "--lo", "0.30", "--hi", "0.31"],
    ["gaps", "{pair}", "--lo", "0.3"],
    ["gaps", "{pair}", "--lo", "nan", "--hi", "0.31"],
    ["--help"],
    ["gaps", "--help"],
], ids=["certificate", "missing-hi", "parse-error", "help", "gaps-help"])
def test_cli_in_process_matches_a_new_process(pair_file, tmp_path, monkeypatch, capsys, argv):
    """`main` called in-process prints and writes the bytes that
    `python -m cantorifs.cli` prints and writes in a new process.  COLUMNS
    is fixed in both, so that help text wraps the same."""
    import cantorifs.cli as cli

    argv = [a.format(pair=pair_file) for a in argv]
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    new, here = tmp_path / "new", tmp_path / "here"
    new.mkdir()
    here.mkdir()
    proc = subprocess.run([sys.executable, "-m", "cantorifs.cli", *argv], cwd=new, env=env,
                          capture_output=True, check=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(here)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    assert _artifacts(here) == _artifacts(new)
