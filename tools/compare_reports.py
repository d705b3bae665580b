"""Dump ``run_checks`` reports over a fixed grid of configs, and compare two dumps.

    python3 tools/compare_reports.py dump SRC OUT   # SRC: a source tree, e.g. src
    python3 tools/compare_reports.py diff A B
    python3 tools/compare_reports.py diff A B --residuals-within F

``dump`` imports opderiv from SRC and runs every check on each config of
a fixed grid: every scenario kind (random general and Hermitian, circle
shifts including k = 0, where x commutes with D, a circle symbol, and a
custom scenario read from matrix files the tool writes), every algebra
kind (``generated`` reads a generator file the tool writes), and a
``generated`` algebra with multiplicity, whose family has link members,
at orders n = 0..3, dimensions down to 1, and seeds 1-3.  It writes one
JSON file of the parsed reports without their timings; the directory of
the written matrix files is replaced by ``<work>``, so two dumps of
different trees compare field by field.

``diff`` compares two dumps exactly, floats by their bits, and exits 1
naming the first field that differs; 0 when every field is identical.
Run ``dump`` on two checkouts to see that a change leaves every report
bitwise as it was.  With ``--residuals-within F`` a check's residuals
(its ``residuals`` and its ``details.max_residual``) may differ by at most
F times the check's tolerance, and every other field, the tolerance
included, is still compared by its bits; it prints, per check, the
largest |delta| / tolerance and each dump's largest residual / tolerance,
and exits 1 when a residual is further apart or another field differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
ORDERS = (0, 1, 2, 3)
# (name, scenario block with "{work}" for the matrix directory, dimension)
SCENARIOS = (
    ("random1", {"kind": "random", "N": 1}, 1),
    ("random3", {"kind": "random", "N": 3}, 3),
    ("random4h", {"kind": "random", "N": 4, "x_kind": "hermitian"}, 4),
    ("circle1", {"kind": "circle_fourier", "N": 1, "x_kind": {"kind": "shift", "k": 1}}, 3),
    ("circle2k0", {"kind": "circle_fourier", "N": 2, "x_kind": {"kind": "shift", "k": 0}}, 5),
    ("circle2sym", {"kind": "circle_fourier", "N": 2,
                    "x_kind": {"kind": "random_symbol", "seed": 5, "degree": 2}}, 5),
    ("custom3", {"kind": "custom", "d_path": "{work}/D3.json", "x_path": "{work}/x3.json"}, 3),
)


def _algebras(dim: int) -> list[tuple[str, dict]]:
    """(tag, algebra block) pairs; the tag keys the reports."""
    pattern = [dim] if dim == 1 else [dim // 2, dim - dim // 2]
    return [
        ("full", {"kind": "full"}),
        ("diagonal_masa", {"kind": "diagonal_masa"}),
        ("block_diagonal", {"kind": "block_diagonal", "pattern": pattern}),
        ("generated", {"kind": "generated", "paths": [f"{{work}}/g{dim}.json"]}),
        ("multiplicity", {"kind": "generated", "paths": [f"{{work}}/m{dim}.json"]}),
    ]


def _write_matrices(work: Path, save_operator) -> None:
    """The custom scenario's D and x, and two generators per dimension, fixed
    by the seed: g, the Hermitian part of a Gaussian matrix, and m =
    U diag(1, ..., 1, 2) U^T for U the orthogonal factor of a real Gaussian
    matrix, whose algebra C (+) C (x) I_(dim - 1) has multiplicity for
    dim >= 3, so its family links the pieces of the repeated eigenvalue."""
    rng = np.random.default_rng(20150413)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    save_operator(work / "D3.json", (z + z.conj().T) / 2)
    save_operator(work / "x3.json", rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for dim in sorted({dim for _, _, dim in SCENARIOS}):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        save_operator(work / f"g{dim}.json", (g + g.conj().T) / 2)
    for dim in sorted({dim for _, _, dim in SCENARIOS}):
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        save_operator(work / f"m{dim}.json", (u * ([1.0] * (dim - 1) + [2.0])) @ u.T)


def _fill(value, work: str):
    """value with "{work}" in every string replaced by ``work``."""
    if isinstance(value, dict):
        return {k: _fill(v, work) for k, v in value.items()}
    if isinstance(value, list):
        return [_fill(v, work) for v in value]
    return value.replace("{work}", work) if isinstance(value, str) else value


def dump(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from opderiv.core import save_operator
    from opderiv.harness import ScenarioConfig, run_checks

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_matrices(work, save_operator)
        for name, scenario, dim in SCENARIOS:
            for tag, algebra in _algebras(dim):
                for n in ORDERS:
                    for seed in SEEDS:
                        raw = {"scenario": scenario, "algebra": algebra, "n": n, "seed": seed, "checks": ["all"]}
                        report = run_checks(ScenarioConfig.from_dict(_fill(raw, tmp))).to_json()
                        del report["timings"]
                        text = json.dumps(report).replace(tmp, "<work>")
                        reports[f"{name}/{tag}/n={n}/seed={seed}"] = json.loads(text)
    Path(out).write_text(json.dumps(reports, indent=1))
    print(f"{len(reports)} reports written to {out}")


def _first_difference(a, b, path: str) -> str | None:
    """The path of the first field where a and b differ, floats compared by
    their bits; None when they are identical."""
    if type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} != {list(b)}"
        return next(filter(None, (_first_difference(a[k], b[k], f"{path}.{k}") for k in a)), None)
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return next(filter(None, (_first_difference(u, v, f"{path}[{i}]") for i, (u, v) in enumerate(zip(a, b)))), None)
    if isinstance(a, float):
        return None if a.hex() == b.hex() else f"{path}: {a!r} != {b!r}"
    return None if a == b else f"{path}: {a!r} != {b!r}"


def _take_residuals(dump: dict) -> dict:
    """Take the residuals out of every check result of a dump, in place:
    ``residuals`` is replaced by its length and ``details.max_residual`` by
    None, so the rest compares exactly.  Returns {path: (check, residuals,
    tolerance)}."""
    taken = {}
    for key, report in dump.items():
        for i, result in enumerate(report.get("results", [])):
            values = result.get("residuals", [])
            result["residuals"] = len(values)
            details = result.get("details", {})
            if "max_residual" in details:
                values = values + [details["max_residual"]]
                details["max_residual"] = None
            taken[f".{key}.results[{i}]"] = (result.get("check"), values, result.get("tolerance"))
    return taken


def _ratio(value: float, tolerance: float) -> float:
    if value == 0:
        return 0.0
    return abs(value) / tolerance if tolerance else math.inf


def diff(a: str, b: str, within: float | None = None) -> int:
    left, right = json.loads(Path(a).read_text()), json.loads(Path(b).read_text())
    if within is not None:
        left_res, right_res = _take_residuals(left), _take_residuals(right)
    first = _first_difference(left, right, "")
    if first is not None:
        print(f"differs at {first}")
        return 1
    if within is None:
        print("identical")
        return 0
    worst = {}  # check -> [largest |delta| / tol, largest residual / tol in a, in b]
    outside = None
    for path, (check, xs, tol) in left_res.items():
        row = worst.setdefault(check, [0.0, 0.0, 0.0])
        for k, (x, y) in enumerate(zip(xs, right_res[path][1])):
            delta = 0.0 if x == y else _ratio(x - y, tol)
            row[:] = max(row[0], delta), max(row[1], _ratio(x, tol)), max(row[2], _ratio(y, tol))
            if outside is None and not delta <= within:  # NaN is outside too
                outside = f"{path} residual {k}: {x!r} != {y!r}, |delta| / tolerance {delta:.3e} > {within:g}"
    print(f"{'check':<16}{'max |delta|/tol':>18}{'max resid/tol A':>18}{'max resid/tol B':>18}")
    for check, (delta, ra, rb) in worst.items():
        print(f"{check:<16}{delta:>18.3e}{ra:>18.3e}{rb:>18.3e}")
    if outside is not None:
        print(f"differs at {outside}")
        return 1
    print(f"every other field identical; every residual within {within:g} of its tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write the grid's parsed reports, without timings")
    d.add_argument("src", help="source tree to import opderiv from, e.g. src")
    d.add_argument("out", help="JSON file to write")
    c = sub.add_parser("diff", help="exit 1 at the first differing field of two dumps")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument(
        "--residuals-within", type=float, metavar="F", default=None,
        help="let residuals differ by at most F times their check's tolerance",
    )
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    return diff(args.a, args.b, args.residuals_within)


if __name__ == "__main__":
    sys.exit(main())
