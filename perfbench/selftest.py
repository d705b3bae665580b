"""Self-test of the benchmark, on one case per workload.

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced runs with the same
seed and checks that:
- the untraced run prints every end-to-end metric of BENCHMARK.json, and a
  traced run every per-layer one, each with its unit;
- the two traced runs give identical count metrics;
- the spans account for the traced pass: trace.unattributed_s (case time
  outside every span) is at most UNATTRIBUTED_SHARE of trace.wall_s, and no
  span has a negative self time;
- every run reports ``correct``;
- only ``calculus`` makes no nullspace calls.
It also checks that BENCHMARK.json's per-layer list matches the metric table
in tracing.py, and that NOTES.md has a row for each per-layer metric.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common
import tracing

SEED = 7
UNATTRIBUTED_SHARE = 0.01


def run(workload, trace):
    cmd = [sys.executable, str(common.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--max-cases", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=common.ROOT)
    if out.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    table = [{"name": k, "unit": u, "better": b} for k, u, b in tracing.PER_LAYER]
    check(bench["per_layer"] == table, "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    notes = (common.HERE / "NOTES.md").read_text()
    missing = [k for k, _, _ in tracing.PER_LAYER if f"| `{k}` |" not in notes]
    check(not missing, f"NOTES.md says what each per-layer metric should move (missing: {missing})")
    for phase, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            name = w["name"]
            runs = [run(name, phase) for _ in range(1 + phase)]
            printed = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
            check(printed == wanted, f"{name} --trace {phase}: prints every {key} metric with its unit")
            check(all(r["correct"] for r in runs), f"{name} --trace {phase}: correct")
            if phase:
                counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(tracing.COUNT_SUFFIXES)}
                          for r in runs]
                check(counts[0] == counts[1], f"{name}: count metrics repeat exactly ({len(counts[0])} counts)")
                solves = counts[0]["core.nullspace.calls"]
                check((solves == 0) == (name == "calculus"),
                      f"{name}: {solves:g} nullspace calls (none only on calculus)")
                m = {k: v["value"] for k, v in runs[-1]["metrics"].items()}  # its result file is on disk
                rest, wall = m["trace.unattributed_s"], m["trace.wall_s"]
                check(0.0 <= rest <= UNATTRIBUTED_SHARE * wall,
                      f"{name}: spans cover trace.wall_s but {rest:.6f} of {wall:.6f} s")
                details = json.loads((common.RESULTS / f"{name}-seed{SEED}-trace1.json").read_text())["details"]
                check(details["min_span_self_s"] >= 0.0,
                      f"{name}: no negative span self time (smallest {details['min_span_self_s']:.3g} s)")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
