"""opderiv benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 30 --trace 0

The workload runs in this process as a closed loop of one client: each
case starts when the previous one finishes.  A pass runs every case once;
passes repeat while the next one is expected to end within --seconds
(at least one pass).  After every case a fixed speed probe (see
workloads.py) is timed outside the case; the time metrics are given in
units of the probe's median time in the run ("ref"), and in seconds in the
text output and the result file.

Set-up (a fresh interpreter's `import opderiv`, then case generation and
warm-up in this process) runs SETUP_REPEATS times.  Each repeat also times
`import numpy` in its fresh interpreter, just before `import opderiv`, as
the speed probe of set-up: setup_s is the median repeat scaled by
NUMPY_IMPORT_REF_S over that probe, that is, in seconds at a fixed
interpreter speed.

With --trace 1, untraced and traced passes alternate (at least one of
each); the layer figures come from the traced pass with the median wall
time.  trace.overhead_s is the median traced pass minus the median untraced
one, both in ref units so the host's drift between them cancels, converted
back to seconds with the run's median probe time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the platform block, per-case times and failures, is written to
perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import common

SETUP_REPEATS = 8
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import numpy; t1 = time.perf_counter(); import opderiv; "
                 "print(t1 - t, time.perf_counter() - t)")
# The `import numpy` time that set-up repeats are scaled to: about its median
# on a 2-vCPU Intel Xeon VM with numpy 2.4.6.  There, over seeds 1-10, the
# unscaled set-up time spread 10-30% as the host's speed changed; scaled, 2-7%.
NUMPY_IMPORT_REF_S = 0.1


@dataclass
class Pass:
    traced: bool
    case_times: list = field(default_factory=list)
    probe_times: list = field(default_factory=list)  # one group before the cases, one after each
    verdicts: list = field(default_factory=list)  # (failed names, wrong outputs) per case

    @property
    def wall(self):
        """Time in the cases: the pass without its speed probes."""
        return sum(self.case_times)

    @property
    def ref_times(self):
        """Each case's time over the median probe time just before and after it."""
        return [t / statistics.median(before + after) for t, before, after
                in zip(self.case_times, self.probe_times, self.probe_times[1:])]


def fresh_import():
    """(`import numpy` time, `import opderiv` time counting numpy's) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", _IMPORT_PROBE, str(common.SRC)], capture_output=True,
                         text=True, check=True, env={**os.environ, **common.blas_env()}, timeout=60)
    numpy_s, import_s = map(float, out.stdout.split())
    return numpy_s, import_s


def run_pass(cases, workload, tracer=None):
    p = Pass(traced=tracer is not None)
    outputs = []  # (output, error) per case
    if tracer:
        tracer.install()  # the probes call no opderiv code, so they record no spans
    try:
        p.probe_times.append(probe(workload))
        for i, case in enumerate(cases):
            if tracer:
                tracer.case = i
            t0 = perf_counter()
            try:
                outputs.append((case.run(), None))
            except Exception as exc:  # a case that raises is a failed operation, not a crash
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            p.case_times.append(perf_counter() - t0)
            p.probe_times.append(probe(workload))
    finally:
        if tracer:
            tracer.uninstall()
    p.verdicts = [case.verdict(out, err) for case, (out, err) in zip(cases, outputs)]
    return p


def probe(workload):
    times = []
    for _ in range(workload.probes_per_case):
        t0 = perf_counter()
        workload.probe()
        times.append(perf_counter() - t0)
    return times


def run_passes(cases, workload, seconds, tracer):
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cases, workload, tracer if traced else None))
        need_traced = tracer is not None and not any(p.traced for p in passes)
        if not need_traced and perf_counter() - start + passes[-1].wall > seconds:
            return passes


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, never below the
    median; returns (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def judge_passes(cases, passes):
    """attempted, failed, wrong outputs and failure list.

    An operation is counted once per run, from the first pass: later passes
    repeat the same inputs to fill the measured time, so how many fit must
    not change the counts.  Each later pass must give the first pass's
    verdicts, or the run is not correct.
    """
    attempted = sum(case.ops for case in cases)
    failures = {case.label: names for case, (names, _) in zip(cases, passes[0].verdicts)}
    failed = sum(len(names) for names in failures.values())
    wrong = []
    for p in passes:
        for case, (names, bad) in zip(cases, p.verdicts):
            wrong += [f"{case.label}: {w}" for w in bad]
            if failures[case.label] != names:
                wrong.append(f"{case.label}: verdicts differ between passes")
    return attempted, failed, wrong, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calculus", "corner_solve", "run_all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-cases", type=int, default=None,
                        help="run only the first N cases (used by selftest.py)")
    args = parser.parse_args(argv)

    common.prepare()
    t0 = perf_counter()
    import opderiv  # noqa: F401  (timed: part of set-up)
    first_import = perf_counter() - t0
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    common.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK))
    try:
        setups = []  # (numpy import, opderiv import, cases + warm-up) per repeat
        for _ in range(SETUP_REPEATS):
            numpy_s, import_s = fresh_import()
            t0 = perf_counter()
            cases = workload.cases(np.random.default_rng(args.seed), workdir)[: args.max_cases]
            workload.warm_up(np.random.default_rng(args.seed), workdir)
            setups.append((numpy_s, import_s, perf_counter() - t0))
        setup_s = statistics.median((i + c) * NUMPY_IMPORT_REF_S / n for n, i, c in setups)
        workload.probe()  # the first call pays for allocations the timed ones reuse

        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(cases, workload, args.seconds, tracer)
        attempted, failed, wrong, failures = judge_passes(cases, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            common.WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    case_times = [t for p in untraced for t in p.case_times]
    ref_times = [r for p in untraced for r in p.ref_times]
    wall_s = statistics.median(p.wall for p in untraced)
    tail_s, tail_pct, n_samples = tail(case_times)
    seconds = {"wall_s": wall_s, "case_p50_s": statistics.median(case_times), "case_tail_s": tail_s,
               "probe_s": statistics.median(t for p in untraced for g in p.probe_times for t in g),
               "setup_unscaled_s": statistics.median(i + c for _, i, c in setups)}
    details = {
        "passes": len(untraced), "case_samples": n_samples, "case_tail_percentile": tail_pct,
        "fail_ratio": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "seconds": seconds,
        "setup_first_import_s": first_import,
        "setup_numpy_import_opderiv_import_cases_warmup_s": setups,
        "case_labels": [c.label for c in cases],
        "case_times_s": [p.case_times for p in untraced],
        "probe_times_s": [p.probe_times for p in untraced],
        "failed_operations": {k: v for k, v in failures.items() if v},
        "wrong_outputs": wrong,
    }
    if args.trace:
        ordered = sorted(traced, key=lambda p: p.wall)
        median_pass = ordered[(len(ordered) - 1) // 2]
        spans, counts = tracer.passes[traced.index(median_pass)]
        overhead_ref = (statistics.median(sum(p.ref_times) for p in traced)
                        - statistics.median(sum(p.ref_times) for p in untraced))
        agg = tracing.aggregate(spans, counts, median_pass.wall, overhead_ref * seconds["probe_s"])
        metrics = tracing.layer_metrics(agg)
        count_sets = [{k: v for k, v in tracing.layer_metrics(tracing.aggregate(s, c, 0.0)).items()
                       if k.endswith(tracing.COUNT_SUFFIXES)} for s, c in tracer.passes]
        details["traced_passes"] = len(traced)
        details["counts_repeat_across_passes"] = all(cs == count_sets[0] for cs in count_sets)
        details["spans_in_median_pass"] = len(spans)
        details["min_span_self_s"] = agg["min_self"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (statistics.median(sum(p.ref_times) for p in untraced), "ref"),
            "case_p50_ref": (statistics.median(ref_times), "ref"),
            "case_tail_ref": (tail(ref_times)[0], "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
        }

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    common.RESULTS.mkdir(exist_ok=True)
    out = common.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "platform": common.platform_block(),
                               "result": result, "details": details}, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print("in seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in seconds.items()))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} (operation = one check on one case)")
    print(f"case tail is p{tail_pct:.1f} of {n_samples} case samples; {len(untraced)} untraced passes")
    for w in wrong[:20]:
        print(f"WRONG {w}")
    print(f"result file {out.relative_to(common.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
