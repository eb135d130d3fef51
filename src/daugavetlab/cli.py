"""Command line front end.

    daugavetlab verify --scenario case.json [--out report.json]
    daugavetlab sweep --scenario case.json [--format csv]
    daugavetlab counterexample --scenario case.json
    daugavetlab disk --scenario case.json
    daugavetlab selftest [--seed 0]

Exit codes: 0 when the run completed (individual checks may still report
"fails" or "error" inside the report), 1 for a rejected scenario file or
flag, a report that would hold a NaN or an infinity, or a report that
cannot be written, 2 for an internal cross-check failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InvariantViolation
from .scenarios import (
    ScenarioError,
    parse_scenario_file,
    render_report_csv,
    render_report_json,
    run_scenario,
)
from .selftest import run_selftest

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help="scenario JSON file")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="default tolerance for checks that accept one")
    sub.add_argument("--timings", action="store_true",
                     help="embed per-check runtimes (breaks byte-for-byte "
                          "report reproducibility)")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A rejected flag exits 1, as a rejected scenario does (not 2)."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A non-negative integer, as numpy's seeding takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="daugavetlab",
        description="Exact operator-norm experiments for weighted compositions "
                    "with finite-rank perturbations.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("verify", "run every check listed in a scenario"),
                        ("sweep", "grid refinement sweeps only"),
                        ("counterexample", "counterexample constructions only"),
                        ("disk", "disk-algebra checks only")):
        _add_common(subs.add_parser(name, help=blurb))

    st = subs.add_parser("selftest", help="run the built-in battery")
    st.add_argument("--seed", type=_seed, default=0)
    st.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> int:
    """Write the report to out, or to stdout; the exit code."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: the report cannot be written: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        report = run_selftest(seed=args.seed)
        return _emit(render_report_json(report), args.out)

    try:
        scenario = parse_scenario_file(args.scenario)
        report = run_scenario(scenario, tol=args.tol, timings=args.timings,
                              subcommand=args.command)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 2

    try:
        text = (render_report_csv(report) if args.format == "csv"
                else render_report_json(report))
    except ValueError as exc:  # a NaN or infinity past _run_one's check of each record
        print(f"error: the report cannot be rendered: {exc}", file=sys.stderr)
        return 1
    return _emit(text, args.out)


if __name__ == "__main__":
    sys.exit(main())
