"""tools/compare_reports.py: the diff of two report dumps."""

import copy
import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)

DUMP = {
    "case/n=1": {
        "results": [
            {"check": "invariance", "residuals": [1e-16, 0.0], "tolerance": 1e-8, "pass": True, "details": {}},
            {"check": "reflexivity", "residuals": [3e-15], "tolerance": 1e-8, "pass": True,
             "details": {"dim_computed": 4, "max_residual": 3e-15, "pass": True}},
        ]
    }
}


def _diff(tmp_path, other, within=None):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(DUMP))
    b.write_text(json.dumps(other))
    return compare_reports.diff(str(a), str(b), within)


def test_residuals_within_allows_residuals_to_move_by_a_share_of_the_tolerance(tmp_path, capsys):
    # a reflexivity residual 5e-13 apart, 5e-5 of its tolerance: exact diff
    # names it, --residuals-within passes it at 1e-4 and names it at 1e-5,
    # and prints the largest |delta| / tolerance per check
    moved = copy.deepcopy(DUMP)
    refl = moved["case/n=1"]["results"][1]
    refl["residuals"] = [5.03e-13]
    refl["details"]["max_residual"] = 5.03e-13
    assert _diff(tmp_path, moved) == 1
    assert "results[1].residuals[0]" in capsys.readouterr().out
    assert _diff(tmp_path, moved, 1e-4) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("reflexivity")).split()
    assert float(row[1]) == 5.000e-05 and float(row[3]) == 5.030e-05
    assert _diff(tmp_path, moved, 1e-5) == 1
    assert "results[1] residual 0" in capsys.readouterr().out


def test_residuals_within_compares_every_other_field_exactly(tmp_path, capsys):
    # the tolerance, a verdict, a dimension and the residual count are not residuals
    for field, value in (("tolerance", 1.0000000001e-8), ("pass", False), ("residuals", [3e-15, 0.0])):
        changed = copy.deepcopy(DUMP)
        changed["case/n=1"]["results"][1][field] = value
        assert _diff(tmp_path, changed, 1.0) == 1
        assert "differs at" in capsys.readouterr().out
    changed = copy.deepcopy(DUMP)
    changed["case/n=1"]["results"][1]["details"]["dim_computed"] = 5
    assert _diff(tmp_path, changed, 1.0) == 1
    assert _diff(tmp_path, copy.deepcopy(DUMP), 0.0) == 0
