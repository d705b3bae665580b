"""The benchmark tracer's wrap targets exist in the program.

``perfbench/tracing.py`` wraps opderiv functions by module and attribute
name and reads some of their arguments by parameter name.  A rename in the
program breaks ``perfbench/run.py --trace 1`` only when the benchmark runs;
these tests catch it in the ordinary test run.  The tracer module imports
only the standard library and is loaded by path, read-only.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from opderiv import reflexivity
from opderiv.core import eig_hermitian
from opderiv.harness import ScenarioConfig, run_checks
from opderiv.scenarios import random_scenario
from opderiv.triangular import _exponential_terms

_TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# Argument names each hook reads from the bound arguments of its target.
_HOOK_ARGS = {
    "_count_nullspace": ("constraints", "dim"),
    "_classify_solve": ("family",),
    "_count_blocks": ("bm",),
    "_count_membership": (),
}


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_target_resolves(target):
    module, path, _, hook = target
    owner, attr = tracing._resolve(module, path)
    assert attr in owner.__dict__
    if hook is not None:
        params = inspect.signature(owner.__dict__[attr]).parameters
        for name in _HOOK_ARGS[hook.__name__]:
            assert name in params, (path, name)


def test_tracer_counts_band_pairs():
    raw = {
        "scenario": {"kind": "random", "N": 6, "x_kind": "general"},
        "algebra": {"kind": "full"},
        "n": 1,
        "seed": 3,
        "checks": ["band_eq"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_checks(ScenarioConfig.from_dict(raw))
    finally:
        tracer.uninstall()
    spans, counts = tracer.passes[0]
    bands = len(report.results[0].details["bands"])
    assert counts["derivation.band.blocks"] == 5 * bands**2
    assert {span[0] for span in spans} >= {"derivation.band"}


def test_tracer_sees_one_family_per_scenario():
    # invariance and reflexivity share one family; the algebra is not solved again
    raw = {
        "scenario": {"kind": "random", "N": 3, "x_kind": "general"},
        "algebra": {"kind": "diagonal_masa"},
        "n": 1,
        "seed": 2,
        "checks": ["invariance", "reflexivity"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_checks(ScenarioConfig.from_dict(raw))
    finally:
        tracer.uninstall()
    assert report.overall_pass
    spans, _ = tracer.passes[0]
    names = [span[0] for span in spans]
    assert names.count("reflexivity.lat_family") == 1
    assert names.count("reflexivity.invariant_family") == 1
    assert names.count("reflexivity.check") == 1
    assert "reflexivity.bicommutant" not in names


def test_tracer_sees_no_automorphism_under_the_lipschitz_check():
    # the samples are entrywise products in the eigenbasis of D: the check
    # never forms the automorphism itself
    raw = {
        "scenario": {"kind": "random", "N": 4, "x_kind": "general"},
        "algebra": {"kind": "full"},
        "n": 1,
        "seed": 5,
        "checks": ["lipschitz"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = run_checks(ScenarioConfig.from_dict(raw))
    finally:
        tracer.uninstall()
    assert report.overall_pass and len(report.results[0].residuals) == 50
    spans, _ = tracer.passes[0]
    assert "derivation.checks" in [span[0] for span in spans]
    assert "derivation.automorphism" not in [span[0] for span in spans]


def _traced_check(spec, gen, n, **kwargs):
    """The check's report, its spans and counts, and the index of its span."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = reflexivity.reflexivity_check(spec, gen, n, **kwargs)
    finally:
        tracer.uninstall()
    spans, counts = tracer.passes[0]
    (check,) = [i for i, span in enumerate(spans) if span[0] == "reflexivity.check"]
    return report, spans, counts, check


def test_tracer_sees_the_corner_tower_solves_under_the_check():
    # the tower solves nothing: on a built family every level's constraint
    # is certified rank 0, and on one whose Q_3 is off the generator's graph
    # (level 3's pair with G' from a perturbed generator) the certificate
    # fails the check without a fallback solve.  Either way the check makes
    # no core.nullspace span of its own.  The tracer names alg_of_family's
    # solve from the family's labels and order: a built family's is the
    # main corner solve
    spec = reflexivity.VonNeumannAlgebraSpec("full", 3)
    gen, _ = random_scenario(3, 4)
    family = reflexivity.invariant_family(spec, gen, 3, seed=4)
    report, spans, _, check = _traced_check(spec, gen, 3, family=family)
    assert report.passed and report.dim_computed == 9
    assert not [span for span in spans if span[0] == "core.nullspace" and span[3] == check]

    perturbed = eig_hermitian(gen.base + 1e-3 * np.diag([1.0, -1.0, 0.5]))
    terms = _exponential_terms(perturbed, 3, 1.0)
    graphs = family.graphs[:2] + ((family.graphs[2][0], np.vstack(terms[3:0:-1])),)
    uncertified = reflexivity.InvariantFamily(family.lat, graphs, family.algebra)
    report, spans, _, check = _traced_check(
        spec, gen, 3, family=uncertified, raise_on_fail=False
    )
    assert not report.passed and report.certificate_ratio > 1
    assert not [span for span in spans if span[0] == "core.nullspace" and span[3] == check]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        reflexivity.alg_of_family(reflexivity.invariant_family(spec, gen, 3, seed=4))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.passes[0][0]]
    assert "reflexivity.alg_solve" in names and "reflexivity.needed_q_solve" not in names


def test_tracer_sees_one_solve_and_no_certification_under_lat_family():
    # the algebra and the family come from the commutant's block structure:
    # the commutant is the one nullspace solve, and nothing is certified by a solve
    u, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((8, 8)))
    g = u @ np.diag([1.0] * 6 + [2.0] * 2) @ u.T
    spec = reflexivity.VonNeumannAlgebraSpec("generated", 8, generators=(g,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        members, algebra = reflexivity.lat_family(spec)
    finally:
        tracer.uninstall()
    assert len(members) == 14 and algebra.dim == 2
    spans, _ = tracer.passes[0]
    (lat,) = [i for i, span in enumerate(spans) if span[0] == "reflexivity.lat_family"]

    def under_lat(i):
        while i >= 0:
            i = spans[i][3]
            if i == lat:
                return True
        return False

    inside = [span[0] for i, span in enumerate(spans) if under_lat(i)]
    assert inside.count("core.nullspace") == 1
    assert "reflexivity.certify" not in inside
