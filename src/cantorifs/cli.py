"""Command-line front end.

Exit codes: 0 = success, 1 = a legitimate negative verdict (validation or
certification failure), 2 = usage / IO errors.  Reports are plain text with
stable key order and embed the effective configuration; data files are CSV;
figures are SVG.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .errors import CantorIFSError
from .intervals import Interval, from_csv, to_csv
from .maps import pair_from_json, pair_to_json
from .ifs import IFSPair, minimal_set_cover, orbit, validate_class_a
from .axioms import (
    HOLE_VERDICTS,
    AxiomReport,
    boundary_sets,
    find_hole,
    ruination_regions,
    run_axiom_checks,
)
from .gapfinder import WALK_VERDICTS, certify_cantor, find_gap
from .construct import (
    AppendixParams,
    ConstructionParams,
    appendix_pair,
    build_class_c_example,
    check_measure_bound,
    lambda_sets,
)
from .plot import plot_pair, plot_strip

#: Default hole seed for pair files produced by the default construction: its J_p.
DEFAULT_SEED = ConstructionParams().j_p


def _load_pair(path: str) -> IFSPair | None:
    """The class-A pair in `path`; None, after writing the violations to
    stderr, when class A fails (a verdict: the command exits 1)."""
    text = Path(path).read_text(encoding="utf-8")
    result = validate_class_a(*pair_from_json(text))
    if not result.ok:
        sys.stderr.write(result.to_text())
        return None
    return result.as_pair()


def _bad_seed(args: argparse.Namespace) -> bool:
    """Whether the hole seed breaks 0 <= --seed-lo <= --seed-hi <= 1, after
    saying so on stderr: a usage error, found before the pair file is read.
    A seed of one point passes here and fails as a verdict."""
    if 0.0 <= args.seed_lo <= args.seed_hi <= 1.0:
        return False
    print(f"{args.command}: need 0 <= --seed-lo <= --seed-hi <= 1, "
          f"got {args.seed_lo}, {args.seed_hi}", file=sys.stderr)
    return True


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _config_echo(args: argparse.Namespace) -> str:
    keys = sorted(k for k in vars(args) if k != "func")
    return "".join(f"config_{k}: {getattr(args, k)}\n" for k in keys)


def _validate(args: argparse.Namespace) -> tuple[str, IFSPair | None, AxiomReport | None]:
    """Class membership, then So/Ho/Ee/Ca: the `validate_report.txt` text,
    the pair, and the axiom report (both None when class A fails)."""
    text = Path(args.pair_file).read_text(encoding="utf-8")
    f, g = pair_from_json(text)
    result = validate_class_a(f, g)
    out = _config_echo(args) + result.to_text()
    if not result.ok:
        return out, None, None
    pair = result.as_pair()
    seed = Interval(args.seed_lo, args.seed_hi)
    report = run_axiom_checks(pair, seed, mu_target=args.mu_target)
    if report.so:
        out += report.so.to_text()
    if report.hole_error:
        out += f"hole_error: {report.hole_error}\n"
    if report.hole:
        out += (f"hole_h_f: [{report.hole.h_f.lo:.17g}, {report.hole.h_f.hi:.17g}]\n"
                f"hole_h_g: [{report.hole.h_g.lo:.17g}, {report.hole.h_g.hi:.17g}]\n")
    if report.ee:
        out += report.ee.to_text()
    if report.ca:
        out += report.ca.to_text()
    out += f"corner_derivs_below_one: {report.corner_derivs_below_one}\n"
    out += f"all_axioms: {'ok' if report.ok else 'FAILED'}\n"
    return out, pair, report


def cmd_validate(args: argparse.Namespace) -> int:
    if _bad_seed(args):
        return 2
    out, _, report = _validate(args)
    _emit(args, "validate_report.txt", out)
    return 0 if report is not None and report.ok else 1


def cmd_construct(args: argparse.Namespace) -> int:
    params = ConstructionParams(
        jp_width=args.jp_width, bump_strength=args.bump_strength,
        k=args.k, n_target=args.n_target,
    )
    pair, report, _ = build_class_c_example(params, mu_target=args.mu_target)
    outdir = Path(args.output_dir)
    _write(outdir / "pair.json", pair_to_json(pair.f, pair.g))
    _emit(args, "construct_report.txt", _config_echo(args) + report.to_text())
    print(f"pair written to {outdir / 'pair.json'}")
    return 0 if report.axioms.ok else 1


def cmd_orbit(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair_file)
    if pair is None:
        return 1
    cloud = orbit(pair, args.seed, args.depth)
    csv = "x\n" + "".join(f"{x:.17g}\n" for x in cloud.points)
    _emit(args, "orbit.csv", csv)
    print(f"orbit: {cloud.size} points at depth {args.depth}")
    return 0


def cmd_minimal_set(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair_file)
    if pair is None:
        return 1
    cover = minimal_set_cover(pair, args.depth, args.resolution, seed=args.seed)
    _emit(args, "minimal_set.csv", to_csv(cover))
    print(f"cover: {cover.n_parts} parts, measure {cover.measure():.6g}")
    return 0


def cmd_gaps(args: argparse.Namespace) -> int:
    if args.certify and (args.lo is not None or args.hi is not None):
        print("gaps: --certify sweeps all of [0, 1]; drop --lo and --hi", file=sys.stderr)
        return 2
    if not args.certify:
        if args.lo is None or args.hi is None:
            print("gaps: need --lo and --hi (or --certify)", file=sys.stderr)
            return 2
        if not 0.0 <= args.lo < args.hi <= 1.0:
            print(f"gaps: need 0 <= --lo < --hi <= 1, got {args.lo}, {args.hi}", file=sys.stderr)
            return 2
    if _bad_seed(args):
        return 2
    # Certificates hold only for pairs with all four properties.
    out, pair, ax = _validate(args)
    if ax is None or not ax.ok:
        _emit(args, "validate_report.txt", out)
        return 1
    hole, ruin, mu = ax.hole, ax.ruin, ax.ee.mu
    bsets = boundary_sets(pair, hole, ruin)
    if args.certify:
        report = certify_cantor(pair, hole, ruin, bsets, args.resolution, args.depth,
                                mu=mu, verification_depth=args.verification_depth)
        _emit(args, "certify_report.txt", _config_echo(args) + report.to_text())
        _emit(args, "certify_report.csv", report.to_csv())
        return 0 if report.all_certified else 1
    try:
        cert = find_gap(Interval(args.lo, args.hi), pair, hole, ruin, bsets, mu=mu, cloud=None)
    except WALK_VERDICTS as e:  # no certificate for this window: a verdict
        print(f"gaps: no certificate: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    lines = [_config_echo(args),
             f"input: [{cert.input.lo:.17g}, {cert.input.hi:.17g}]",
             f"output: [{cert.output.lo:.17g}, {cert.output.hi:.17g}]",
             f"terminal: {cert.terminal_reason.value}",
             f"steps: {cert.n_steps} (bound {cert.iteration_bound})"]
    for s in cert.trace:
        lines.append(f"trace: {s.tag.value} op={s.op} n={s.n} "
                     f"-> [{s.interval.lo:.17g}, {s.interval.hi:.17g}]")
    _emit(args, "gap_certificate.txt", "\n".join(lines) + "\n")
    return 0


def cmd_appendix(args: argparse.Namespace) -> int:
    params = AppendixParams(eps=args.eps, lam=args.lam)
    pair = appendix_pair(params)
    report = check_measure_bound(pair, params, n_max=args.n_max)
    outdir = Path(args.output_dir)
    _write(outdir / "appendix_pair.json", pair_to_json(pair.f, pair.g))
    _emit(args, "appendix_bound.txt", _config_echo(args) + report.to_text())
    _write(outdir / "appendix_lambda.csv", report.to_csv())
    lam_n = lambda_sets(pair, params, min(args.n_max, 10))
    _write(outdir / "appendix_lambda10.csv", to_csv(lam_n))
    return 0 if report.ok and report.ratio_ok else 1


def cmd_plot(args: argparse.Namespace) -> int:
    if _bad_seed(args):
        return 2
    pair = _load_pair(args.pair_file)
    if pair is None:
        return 1
    hole = ruin = None
    try:
        hole = find_hole(pair, Interval(args.seed_lo, args.seed_hi))
    except HOLE_VERDICTS as e:  # the figure is still drawn, without those layers
        print(f"plot: no hole/ruination layers: {type(e).__name__}: {e}", file=sys.stderr)
    else:
        ruin = ruination_regions(pair, hole)
    cover = None
    if args.cover_depth > 0:
        cover = minimal_set_cover(pair, args.cover_depth, args.resolution)
    blocks = None
    if args.blocks:
        blocks = list(from_csv(Path(args.blocks).read_text(encoding="utf-8")))
    svg = plot_pair(pair, hole, ruin, blocks=blocks, cover=cover)
    _emit(args, "pair.svg", svg)
    return 0


def cmd_strip(args: argparse.Namespace) -> int:
    s = from_csv(Path(args.csv_file).read_text(encoding="utf-8"))
    _emit(args, "strip.svg", plot_strip(s, label=args.label))
    return 0


def _emit(args: argparse.Namespace, default_name: str, text: str) -> None:
    _write(Path(args.output_dir) / default_name, text)
    if args.echo:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are usage
    errors, caught before any work starts."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _count(text: str) -> int:
    """argparse type of the counts that may be 0 but not negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _depth(text: str) -> int:
    """argparse type of the depths that must be at least 1."""
    if _count(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return int(text)


def _positive(text: str) -> float:
    """argparse type of --resolution: a cover or sweep needs a width > 0."""
    x = _finite_float(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _mu_target(text: str) -> float:
    """argparse type of --mu-target: Ee can never pass at or below 1."""
    x = _finite_float(text)
    if not x > 1.0:
        raise argparse.ArgumentTypeError(f"must be > 1, got {text!r}")
    return x


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cantorifs",
        description="Validate, construct and certify interval IFS pairs with Cantor minimal sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output-dir", default=".", help="directory for artifacts")
        p.add_argument("--echo", action="store_true", help="also print reports to stdout")

    p = sub.add_parser("validate", help="class membership + the four properties")
    p.add_argument("pair_file")
    p.add_argument("--seed-lo", type=_finite_float, default=DEFAULT_SEED.lo)
    p.add_argument("--seed-hi", type=_finite_float, default=DEFAULT_SEED.hi)
    p.add_argument("--mu-target", type=_mu_target, default=1.01)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("construct", help="build a certified pair")
    p.add_argument("--jp-width", type=_finite_float, default=ConstructionParams.jp_width)
    p.add_argument("--bump-strength", type=_finite_float, default=ConstructionParams.bump_strength)
    p.add_argument("--k", type=_finite_float, default=ConstructionParams.k)
    p.add_argument("--n-target", type=int, default=ConstructionParams.n_target)
    p.add_argument("--mu-target", type=_mu_target, default=1.01)
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("orbit", help="semigroup orbit export")
    p.add_argument("pair_file")
    p.add_argument("--seed", type=_finite_float, default=0.0, choices=[0.0, 1.0])
    p.add_argument("--depth", type=_count, default=12)
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("minimal-set", help="orbit cover export")
    p.add_argument("pair_file")
    p.add_argument("--seed", type=_finite_float, default=0.0, choices=[0.0, 1.0])
    p.add_argument("--depth", type=_depth, default=14)
    p.add_argument("--resolution", type=_positive, default=1e-3)
    common(p)
    p.set_defaults(func=cmd_minimal_set)

    p = sub.add_parser("gaps", help="gap certificates")
    p.add_argument("pair_file")
    p.add_argument("--lo", type=_finite_float, default=None)
    p.add_argument("--hi", type=_finite_float, default=None)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--resolution", type=_positive, default=1e-2)
    p.add_argument("--depth", type=_depth, default=14)
    p.add_argument("--verification-depth", type=_count, default=18)
    p.add_argument("--seed-lo", type=_finite_float, default=DEFAULT_SEED.lo)
    p.add_argument("--seed-hi", type=_finite_float, default=DEFAULT_SEED.hi)
    p.add_argument("--mu-target", type=_mu_target, default=1.01)
    common(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("appendix", help="the measure-bound example")
    p.add_argument("--eps", type=_finite_float, default=AppendixParams.eps)
    p.add_argument("--lam", type=_finite_float, default=AppendixParams.lam)
    p.add_argument("--n-max", type=_count, default=20)
    common(p)
    p.set_defaults(func=cmd_appendix)

    p = sub.add_parser("plot", help="SVG figure of a pair")
    p.add_argument("pair_file")
    p.add_argument("--seed-lo", type=_finite_float, default=DEFAULT_SEED.lo)
    p.add_argument("--seed-hi", type=_finite_float, default=DEFAULT_SEED.hi)
    p.add_argument("--cover-depth", type=_count, default=0)
    p.add_argument("--resolution", type=_positive, default=1e-3)
    p.add_argument("--blocks", default=None, help="CSV of block intervals to shade")
    common(p)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("strip", help="SVG strip of an interval-set CSV")
    p.add_argument("csv_file")
    p.add_argument("--label", default="")
    common(p)
    p.set_defaults(func=cmd_strip)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CantorIFSError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
