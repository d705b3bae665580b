"""The benchmark's workloads run on the program as it is.

``perfbench/workloads.py`` builds each workload's cases from the program's
public API and judges their output.  A change that removes or renames
something a case calls would otherwise show only when the benchmark
runs; here the first case of each workload runs in the ordinary test run
and its own judge must find nothing wrong, every calculus and run_all case
of one seed must fail no operation, and every corner_solve case of one seed
must pass at its closed-form dimension.  The module is loaded by path,
read-only.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from opderiv.reflexivity import VonNeumannAlgebraSpec

_WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_case_of_each_workload_is_judged_right(name, tmp_path):
    cases = workloads.WORKLOADS[name].cases(np.random.default_rng(1), tmp_path)
    assert cases
    case = cases[0]
    failed, wrong = case.verdict(case.run(), None)
    assert not wrong, (case.label, failed, wrong)


def test_no_calculus_operation_fails(tmp_path):
    # every calculus check holds on every case of seed 1, the fd probes too
    cases = workloads.WORKLOADS["calculus"].cases(np.random.default_rng(1), tmp_path)
    assert len(cases) == 72
    for case in cases:
        failed, wrong = case.verdict(case.run(), None)
        assert not failed and not wrong, (case.label, failed, wrong)


def test_no_run_all_operation_fails(tmp_path):
    # the five ``opderiv run`` configs of seed 1 with every check, each
    # reflexivity verdict at its reference dimension
    cases = workloads.WORKLOADS["run_all"].cases(np.random.default_rng(1), tmp_path)
    assert len(cases) == 5
    for case in cases:
        failed, wrong = case.verdict(case.run(), None)
        assert not failed and not wrong, (case.label, failed, wrong)


def test_every_corner_solve_case_passes(tmp_path):
    # the nine checks the corner_solve workload times, at seed 1, each at
    # the closed-form dimension of its algebra
    cases = workloads.WORKLOADS["corner_solve"].cases(np.random.default_rng(1), tmp_path)
    grid = [(kind, size, n) for kind in workloads.CORNER_KINDS for size, n in workloads.CORNER_GRID]
    assert len(cases) == len(grid) == 9
    for case, (kind, size, n) in zip(cases, grid):
        pattern = (size // 2, size - size // 2) if kind == "block_diagonal" else None
        report = case.run()
        failed, wrong = case.verdict(report, None)
        assert not failed and not wrong, (case.label, failed, wrong)
        assert report.passed and report.order == n
        assert report.dim_computed == VonNeumannAlgebraSpec(kind, size, pattern=pattern).expected_dim()
