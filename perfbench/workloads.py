"""The benchmark's workloads: cases generated from a seed, and their judges.

An operation is one check on one case.  It fails when it reports FAIL,
raises, or gives a reflexivity dimension other than the reference.  A
failure is also *wrong* (the run is not ``correct``) unless it is one of
the known defects listed in NOTES.md: ``fd_first`` and ``fd_higher``
report FAIL on inputs where the identity holds, and the nullspace SVD
fails to converge on a few inputs.  Those stay in the workloads and are
counted, so a fix shows as fewer failures.

Cases call opderiv through module attributes (``harness.run_checks``,
``reflexivity.reflexivity_check``, ``cli.main``) looked up at call time,
so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from opderiv import cli, harness, reflexivity, scenarios
from opderiv.core import save_operator

KNOWN_DEFECTS = frozenset({"fd_first", "fd_higher"})
# Exceptions the program is known to raise on valid inputs (see NOTES.md).
KNOWN_EXCEPTIONS = ("LinAlgError: SVD did not converge",)
CALCULUS_CHECKS = tuple(c for c in harness.CHECK_NAMES if c not in ("invariance", "reflexivity"))


@dataclass
class Case:
    label: str
    ops: int  # operations attempted per run of the case
    run: Callable[[], object]
    judge: Callable[[object], "Verdict"]

    def verdict(self, out, err):
        """(failed operation names, wrong outputs) for one run of the case."""
        if err is not None:
            known = err.startswith(KNOWN_EXCEPTIONS)
            return [f"raised {err}"] * self.ops, [] if known else [f"raised {err}"]
        try:
            verdict = self.judge(out)
        except Exception as exc:  # e.g. no report written: the output is unusable
            return [f"unjudgeable {exc}"] * self.ops, [f"unjudgeable: {exc}"]
        return verdict.failed, verdict.wrong


@dataclass
class Verdict:
    failed: list  # names of the operations that failed
    wrong: list  # outputs that contradict a reference or a theorem


def _judge_checks(results, expected_checks, reference_dim=None):
    """Verdict for a list of CheckReport-like dicts."""
    by_name = {r["check"]: r for r in results}
    failed, wrong = [], []
    for name in expected_checks:
        r = by_name.get(name)
        if r is None:
            failed.append(name)
            wrong.append(f"{name}: missing from the report")
            continue
        ok = bool(r["pass"])
        if name == "reflexivity" and r["details"].get("dim_computed") != reference_dim:
            ok = False
            wrong.append(f"reflexivity: dim {r['details'].get('dim_computed')} != reference {reference_dim}")
        if not ok:
            failed.append(name)
            if name not in KNOWN_DEFECTS:
                wrong.append(f"{name}: FAIL")
    return Verdict(failed, wrong)


# ---------------------------------------------------------------- calculus
# The derivation and triangular layers do all of the work; no nullspace.
CALC_SIZES = {  # scenario kind -> sizes (random: base dim; circle: N, dim 2N+1)
    ("random", "general"): (4, 8, 12, 16, 20, 25),
    ("random", "hermitian"): (4, 8, 12, 16, 20, 25),
    ("circle_fourier", "shift"): (2, 4, 6, 8, 10, 12),
    ("circle_fourier", "random_symbol"): (2, 4, 6, 8, 10, 12),
}


def calculus_cases(rng, workdir):
    cases = []
    for (kind, x_kind), sizes in CALC_SIZES.items():
        for i, size in enumerate(sizes):
            for n in (1, 2, 3):
                seed = int(rng.integers(2**31))
                if kind == "random":
                    x = x_kind
                elif x_kind == "shift":
                    x = {"kind": "shift", "k": (i + n) % 3}  # k = 0 commutes with D
                else:
                    x = {"kind": "random_symbol", "seed": seed, "degree": 2}
                cfg = harness.ScenarioConfig.from_dict({
                    "scenario": {"kind": kind, "N": size, "x_kind": x},
                    "n": n, "seed": seed, "checks": list(CALCULUS_CHECKS),
                })
                cases.append(Case(
                    label=f"{kind}/{x_kind} N={size} n={n}",
                    ops=len(CALCULUS_CHECKS),
                    run=lambda cfg=cfg: harness.run_checks(cfg),
                    judge=lambda rep: _judge_checks([r.to_json() for r in rep.results], CALCULUS_CHECKS),
                ))
    return cases


def calculus_warmup(rng, workdir):
    cfg = harness.ScenarioConfig.from_dict({
        "scenario": {"kind": "random", "N": 4}, "n": 1, "seed": 0, "checks": list(CALCULUS_CHECKS)})
    harness.run_checks(cfg)


# ------------------------------------------------------------ corner_solve
# A few wide corner solves (d = N(n+1) up to 24, d^2 up to 576).
CORNER_GRID = ((4, 2), (6, 2), (8, 2))
CORNER_KINDS = ("full", "diagonal_masa", "block_diagonal")


def _corner_case(kind, size, n, seed):
    pattern = (size // 2, size - size // 2) if kind == "block_diagonal" else None
    spec = reflexivity.VonNeumannAlgebraSpec(kind, size, pattern=pattern)
    gen, _ = scenarios.random_scenario(size, seed)
    expected = spec.expected_dim()

    def judge(report):
        failed, wrong = [], []
        if report.dim_computed != expected:
            wrong.append(f"dim {report.dim_computed} != expected {expected}")
        if not report.passed:
            wrong.append("reflexivity: FAIL")
        if wrong:
            failed.append("reflexivity")
        return Verdict(failed, wrong)

    return Case(
        label=f"{spec.label()} n={n}",
        ops=1,
        run=lambda: reflexivity.reflexivity_check(spec, gen, n, seed=seed, raise_on_fail=False),
        judge=judge,
    )


def corner_solve_cases(rng, workdir):
    return [_corner_case(kind, size, n, int(rng.integers(2**31)))
            for kind in CORNER_KINDS for size, n in CORNER_GRID]


def corner_solve_warmup(rng, workdir):
    _corner_case("full", 3, 1, 0).run()


# ----------------------------------------------------------------- run_all
# The user's path: ``opderiv run`` with every check.
def _rotated_block_generator(rng, pattern):
    """U (A_1 + ... + A_k) U* with random blocks: its bicommutant is the
    direct sum of full matrix algebras, of dimension sum k_i^2."""
    dim = sum(pattern)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(z)
    blocks = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for k in pattern:
        blocks[offset:offset + k, offset:offset + k] = (
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        offset += k
    return u @ blocks @ u.conj().T


def _cli_case(label, config, reference_dim, workdir, name):
    cfg_path = workdir / f"{name}.json"
    report_path = workdir / f"{name}.report.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["run", str(cfg_path), "--report", str(report_path)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def judge(code):
        report = json.loads(report_path.read_text())
        report_path.unlink()
        verdict = _judge_checks(report["results"], harness.CHECK_NAMES, reference_dim)
        if code != (0 if report["overall_pass"] else 1):
            verdict.wrong.append(f"exit code {code} disagrees with the report")
        return verdict

    return Case(label, len(harness.CHECK_NAMES), run, judge)


def run_all_cases(rng, workdir):
    gen_pattern = (4, 4, 4)
    gen_path = workdir / "generator.json"
    save_operator(gen_path, _rotated_block_generator(rng, gen_pattern))
    specs = [  # label, scenario, algebra, n, reference dimension
        ("circle N=3 masa n=2", {"kind": "circle_fourier", "N": 3, "x_kind": {"kind": "shift", "k": 1}},
         {"kind": "diagonal_masa"}, 2, 7),
        ("random N=6 full n=2", {"kind": "random", "N": 6}, {"kind": "full"}, 2, 36),
        ("random N=12 full n=1", {"kind": "random", "N": 12}, {"kind": "full"}, 1, 144),
        ("random N=16 block[8,8] n=0", {"kind": "random", "N": 16},
         {"kind": "block_diagonal", "pattern": [8, 8]}, 0, 128),
        ("random N=12 generated[4,4,4] n=1", {"kind": "random", "N": 12},
         {"kind": "generated", "paths": [str(gen_path)]}, 1, sum(k * k for k in gen_pattern)),
    ]
    return [
        _cli_case(label, {"scenario": scen, "algebra": alg, "n": n,
                          "seed": int(rng.integers(2**31)), "checks": ["all"]},
                  ref, workdir, f"case{i}")
        for i, (label, scen, alg, n, ref) in enumerate(specs)
    ]


def run_all_warmup(rng, workdir):
    case = _cli_case("warm-up", {"scenario": {"kind": "circle_fourier", "N": 1},
                                 "algebra": {"kind": "diagonal_masa"}, "n": 1, "seed": 0,
                                 "checks": ["all"]}, 3, workdir, "warmup")
    case.judge(case.run())


# ------------------------------------------------------------ speed probes
# A fixed computation outside opderiv, timed after every case.  The time
# metrics are reported in units of its median time in the same run, which
# cancels most of the drift in machine speed on a shared host.  Each probe
# has the instruction mix of its workload's hot path: a probe with the other
# mix tracked that drift far worse.
_PROBE_RNG = np.random.default_rng(20150413)
_SMALL = [_PROBE_RNG.standard_normal((6, 6)) + 0j for _ in range(50)]
_TALL = _PROBE_RNG.standard_normal((400, 100)) + 1j * _PROBE_RNG.standard_normal((400, 100))


def small_ops_probe():
    """A Python loop over tiny matrix products, like the band and commutator code."""
    acc = _SMALL[0]
    for _ in range(8):
        for m in _SMALL:
            acc = acc @ m * 0.1 + m
    return acc


def tall_svd_probe():
    """A full SVD of a tall complex matrix, like the nullspace solve."""
    return np.linalg.svd(_TALL, full_matrices=True)


@dataclass(frozen=True)
class Workload:
    cases: Callable  # (rng, workdir) -> list of Case
    warm_up: Callable  # (rng, workdir) -> None
    probe: Callable[[], object]
    probes_per_case: int


WORKLOADS = {
    "calculus": Workload(calculus_cases, calculus_warmup, small_ops_probe, 3),
    "corner_solve": Workload(corner_solve_cases, corner_solve_warmup, tall_svd_probe, 5),
    "run_all": Workload(run_all_cases, run_all_warmup, tall_svd_probe, 5),
}
