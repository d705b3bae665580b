"""The benchmark's workloads run on the program as it is.

``perfbench/workloads.py`` builds each workload's cases from the program's
public API and judges their output.  A change that removes or renames
something a case calls would otherwise show only when the benchmark
runs; here the first case of each workload runs in the ordinary test run
and its own judge must find nothing wrong.  The module is loaded by path,
read-only.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

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
