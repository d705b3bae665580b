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

import pytest

from opderiv.harness import ScenarioConfig, run_checks

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
