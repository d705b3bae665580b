"""Command-line entry point.

Subcommands: ``run`` executes a check suite from a JSON config, ``gen``
emits scenario matrices to files, ``show`` pretty-prints a matrix file.
Exit codes: 0 all checks pass, 1 some check failed, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import load_matrix_json, operator_norm, save_operator
from .harness import ScenarioConfig, build_scenario, run_checks
from .scenarios import ConfigError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    The ``opderiv`` console script calls ``main`` once per process, so it
    builds one parser either way; the cache saves only repeated in-process
    calls, such as perfbench's ``run_all`` cases.  Parsing leaves the
    parser as it was: each call gets a fresh namespace, and no default is
    a mutable object that an action could change.
    """
    parser = argparse.ArgumentParser(
        prog="opderiv",
        description="Run derivative-calculus, triangular-representation and "
        "reflexivity checks on matrix scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a check suite from a JSON config")
    run.add_argument("config", help="path to the JSON config file")
    run.add_argument("--n", type=int, default=None, help="override the derivative order")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--tol-alg", type=float, default=None, help="override tol_alg")
    run.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this check (repeatable)",
    )
    run.add_argument(
        "--report",
        default="opderiv_report.json",
        help="where to write the JSON report (default: opderiv_report.json)",
    )

    gen = sub.add_parser("gen", help="emit the configured scenario matrices to files")
    gen.add_argument("config", help="path to the JSON config file")
    gen.add_argument("--out-dir", default=".", help="output directory (default: .)")

    show = sub.add_parser("show", help="pretty-print a matrix JSON file")
    show.add_argument("path", help="matrix file to display")
    return parser


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    raw = config.to_dict()
    if args.n is not None:
        raw["n"] = args.n
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.tol_alg is not None:
        raw["tolerances"]["tol_alg"] = args.tol_alg
    if args.check:
        raw["checks"] = args.check
    return ScenarioConfig.from_dict(raw)


def _cmd_run(args) -> int:
    config = _apply_overrides(ScenarioConfig.from_file(args.config), args)
    report = run_checks(config)
    print(report.table())
    # compact, as ``save_operator`` writes matrices: without an indent
    # json.dumps takes its C encoder
    Path(args.report).write_text(json.dumps(report.to_json(), separators=(",", ":")))
    print(f"report written to {args.report}")
    return 0 if report.overall_pass else 1


def _cmd_gen(args) -> int:
    config = ScenarioConfig.from_file(args.config)
    data = build_scenario(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_operator(out / "D.json", data.generator.base)
    save_operator(out / "x.json", data.x)
    save_operator(out / "y.json", data.y)
    print(f"wrote {out / 'D.json'}, {out / 'x.json'}, {out / 'y.json'} ({data.label})")
    return 0


def _cmd_show(args) -> int:
    try:
        mat, extra = load_matrix_json(args.path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    n = mat.shape[0]
    print(f"{args.path}: dim {n}" + (f", extra {extra}" if extra else ""))
    herm = operator_norm(mat - mat.conj().T)
    print(f"operator norm {operator_norm(mat):.6g}, ||A - A*|| = {herm:.3g}")
    with np.printoptions(precision=4, suppress=True, linewidth=140):
        print(mat)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_show(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
