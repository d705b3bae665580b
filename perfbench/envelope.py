"""Opt-in envelope sweep of reflexivity_check; no gated check runs it.

    python3 perfbench/envelope.py [--seed 1]

Covers ``full`` and ``diagonal_masa`` on the grid (N, n) in {(4,2), (8,2),
(8,3), (12,2), (16,2), (16,3)}, the size range the README advertises.  Each
point runs in its own subprocess under a time cap and a memory cap
(RLIMIT_AS, which the subprocess sets on itself and so limits only it),
TIME_CAP_S and MEM_CAP_MB below.  A
point that hits a cap is reported as not finished; no point is ever shrunk.
Writes perfbench/results/envelope-seed<seed>.json with the platform block.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

import common

GRID = ((4, 2), (8, 2), (8, 3), (12, 2), (16, 2), (16, 3))
KINDS = ("full", "diagonal_masa")
TIME_CAP_S = 150  # per point
MEM_CAP_MB = 2048  # address space per point


def run_point(kind, size, n, seed):
    """Child mode: cap own address space, solve one point, print one JSON line."""
    cap = MEM_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    common.prepare()
    from opderiv import reflexivity, scenarios

    spec = reflexivity.VonNeumannAlgebraSpec(kind, size)
    gen, _ = scenarios.random_scenario(size, seed)
    t0 = perf_counter()
    try:
        report = reflexivity.reflexivity_check(spec, gen, n, seed=seed, raise_on_fail=False)
    except MemoryError:
        print(json.dumps({"status": "memory cap"}))
        return 3
    print(json.dumps({
        "status": "finished",
        "seconds": perf_counter() - t0,
        "dim_computed": report.dim_computed,
        "dim_expected": spec.expected_dim(),
        "passed": report.passed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def sweep(seed):
    points = []
    for kind in KINDS:
        for size, n in GRID:
            cmd = [sys.executable, __file__, "--point", kind, str(size), str(n),
                   "--seed", str(seed)]
            point = {"kind": kind, "N": size, "n": n, "d": size * (n + 1)}
            t0 = perf_counter()
            try:
                out = subprocess.run(cmd, capture_output=True, text=True, timeout=TIME_CAP_S,
                                     env={**os.environ, **common.blas_env()})
            except subprocess.TimeoutExpired:
                point["status"] = f"time cap ({TIME_CAP_S} s)"
            else:
                lines = out.stdout.strip().splitlines()
                if lines and lines[-1].startswith("{"):
                    point.update(json.loads(lines[-1]))
                else:
                    hint = "memory cap" if "MemoryError" in out.stderr else "crashed"
                    point["status"] = f"{hint} (exit code {out.returncode})"
                    point["stderr_tail"] = out.stderr.strip().splitlines()[-3:]
            point["elapsed_s"] = perf_counter() - t0
            point["finished"] = point["status"] == "finished"
            print(json.dumps(point), flush=True)
            points.append(point)
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--point", nargs=3, metavar=("KIND", "N", "n"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        kind, size, n = args.point
        return run_point(kind, int(size), int(n), args.seed)

    points = sweep(args.seed)
    common.prepare()
    common.RESULTS.mkdir(exist_ok=True)
    out = common.RESULTS / f"envelope-seed{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "time_cap_s": TIME_CAP_S,
                               "mem_cap_mb": MEM_CAP_MB, "platform": common.platform_block(),
                               "points": points}, indent=1))
    done = sum(p["finished"] for p in points)
    print(f"{done}/{len(points)} points finished; written to {out.relative_to(common.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
