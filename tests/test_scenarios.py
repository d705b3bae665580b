"""Tests for scenario generation, the check harness, and the CLI."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opderiv import harness, reflexivity
from opderiv.cli import main as cli_main
from opderiv.core import load_operator, save_operator, spectral_band_projections
from opderiv.harness import CHECK_NAMES, ScenarioConfig, ScenarioData, build_scenario, run_checks
from opderiv.reflexivity import VonNeumannAlgebraSpec
from opderiv.scenarios import (
    ConfigError,
    circle_generator,
    circle_scenario,
    circle_shift,
    custom_scenario,
    random_scenario,
    random_symbol_coeffs,
    toeplitz_from_symbol,
)


# -------------------------------------------------------------- circle scenario


def test_circle_scenario_shift_frozen_5x5():
    gen, x = circle_scenario(2, {"kind": "shift", "k": 1})
    np.testing.assert_array_equal(gen.eigenvalues, [-2, -1, 0, 1, 2])
    expected = np.zeros((5, 5))
    for p in range(4):
        expected[p + 1, p] = 1.0
    np.testing.assert_array_equal(x, expected)
    # direct matrix-product oracle: D S - S D = S
    np.testing.assert_array_equal(gen.base @ x - x @ gen.base, x)


def test_circle_scenario_constant_symbol_is_scalar():
    gen, x = circle_scenario(3, {"kind": "trig_poly", "coeffs": {0: [2.0, -1.0]}})
    np.testing.assert_array_equal(x, (2.0 - 1.0j) * np.eye(7))
    assert gen.base @ x - x @ gen.base == pytest.approx(np.zeros((7, 7)))


def test_circle_scenario_trig_poly_is_toeplitz_sum():
    coeffs = {1: 0.5 + 0.1j, -2: 1.0}
    _, x = circle_scenario(3, {"kind": "trig_poly", "coeffs": coeffs})
    expected = (0.5 + 0.1j) * circle_shift(3, 1) + circle_shift(3, -2)
    np.testing.assert_array_equal(x, expected)


@pytest.mark.parametrize("coeffs", ({2.7: 1.0}, {True: 0.5}, {"2.7": 1.0}))
def test_circle_scenario_trig_poly_rejects_keys_that_are_not_integers(coeffs):
    with pytest.raises(ConfigError, match="x_kind.coeffs"):
        circle_scenario(3, {"kind": "trig_poly", "coeffs": coeffs})


def test_circle_scenario_trig_poly_reads_integral_and_json_keys():
    _, x = circle_scenario(3, {"kind": "trig_poly", "coeffs": {0: 1.0, 2.0: 0.5, "-1": [0.0, 1.0]}})
    np.testing.assert_array_equal(x, np.eye(7) + 0.5 * circle_shift(3, 2) + 1j * circle_shift(3, -1))


@pytest.mark.parametrize(
    "coeffs, named",
    (({"2": 1.0, "+2": 0.5}, "'2' and '\\+2'"), ({"2": 1.0, "02": 0.5}, "'2' and '02'"),
     ({2: 1.0, "2": 0.5}, "2 and '2'")),
)
def test_circle_scenario_trig_poly_rejects_two_keys_for_one_mode(coeffs, named):
    # each key would overwrite the other's coefficient
    with pytest.raises(ConfigError, match=f"keys {named} are both mode 2"):
        circle_scenario(3, {"kind": "trig_poly", "coeffs": coeffs})


def test_circle_scenario_out_of_range_rejected():
    with pytest.raises(ConfigError):
        circle_scenario(2, {"kind": "shift", "k": 5})
    with pytest.raises(ConfigError):
        circle_scenario(2, {"kind": "random_symbol", "seed": 0, "degree": 5})
    with pytest.raises(ConfigError):
        circle_scenario(2, {"kind": "nope"})
    with pytest.raises(ConfigError):
        circle_generator(0)


def test_random_symbol_deterministic():
    a = random_symbol_coeffs(42, 2)
    b = random_symbol_coeffs(42, 2)
    assert a == b and set(a) == {-2, -1, 0, 1, 2}
    xa = toeplitz_from_symbol(3, a)
    xb = toeplitz_from_symbol(3, b)
    np.testing.assert_array_equal(xa, xb)


# -------------------------------------------------------------- random scenario


def test_random_scenario_bitwise_deterministic():
    d1, x1 = random_scenario(4, 9)
    d2, x2 = random_scenario(4, 9)
    np.testing.assert_array_equal(d1.base, d2.base)
    np.testing.assert_array_equal(x1, x2)
    d3, _ = random_scenario(4, 10)
    assert not np.array_equal(d1.base, d3.base)


@pytest.mark.parametrize("seed", range(10))
def test_random_scenario_populates_bands(seed):
    d, _ = random_scenario(4, seed)
    assert len(spectral_band_projections(d)) >= 2


def test_random_scenario_hermitian_kind():
    _, x = random_scenario(5, 3, "hermitian")
    assert np.linalg.norm(x - x.conj().T) <= 1e-12
    with pytest.raises(ConfigError):
        random_scenario(5, 3, "bogus")


def test_custom_scenario_roundtrip(tmp_path):
    d_mat = np.diag([0.5, 1.5]).astype(complex)
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    save_operator(tmp_path / "D.json", d_mat)
    save_operator(tmp_path / "x.json", x)
    gen, loaded = custom_scenario(tmp_path / "D.json", tmp_path / "x.json")
    np.testing.assert_allclose(gen.eigenvalues, [0.5, 1.5])
    np.testing.assert_array_equal(loaded, x)
    with pytest.raises(ConfigError):
        custom_scenario(tmp_path / "missing.json", tmp_path / "x.json")


# ---------------------------------------------------------------------- config


def base_config(**overrides):
    raw = {
        "scenario": {"kind": "circle_fourier", "N": 2, "x_kind": {"kind": "shift", "k": 1}},
        "algebra": {"kind": "full"},
        "n": 1,
        "seed": 3,
        "checks": ["leibniz"],
    }
    raw.update(overrides)
    return raw


def test_config_validation():
    cfg = ScenarioConfig.from_dict(base_config(checks=["all"]))
    assert cfg.checks == CHECK_NAMES
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(checks=[]))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(checks=["bogus"]))
    # a repeated check would run twice and be reported once
    with pytest.raises(ConfigError, match=r"more than once: \['leibniz'\]"):
        ScenarioConfig.from_dict(base_config(checks=["leibniz", "lipschitz", "leibniz"]))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(n=-1))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(scenario={"kind": "random", "N": 0}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(algebra={"kind": "nope"}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(base_config(tolerances={"tol_alg": -1.0}))


@pytest.mark.parametrize(
    "field, value",
    [("N", 2.7), ("n", "3"), ("seed", 1.9), ("N", True), ("n", None), ("seed", float("inf"))],
    ids=["N_non_integral", "n_string", "seed_non_integral", "N_bool", "n_null", "seed_inf"],
)
def test_config_integer_fields_are_strict(field, value):
    # coerced with int(), these would be N = 2, order 3, seed 1 and N = 1
    raw = base_config(scenario={"kind": "random", "N": 4})
    (raw["scenario"] if field == "N" else raw)[field] = value
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig.from_dict(raw)


def test_config_integer_fields_take_integral_floats():
    raw = base_config(scenario={"kind": "random", "N": 4.0}, n=2.0, seed=np.int64(5))
    cfg = ScenarioConfig.from_dict(raw)
    assert (cfg.n, cfg.seed) == (2, 5) and type(cfg.n) is int and type(cfg.seed) is int
    assert build_scenario(cfg).x.shape == (4, 4)


@pytest.mark.parametrize(
    "x_kind, field",
    [
        ({"kind": "shift", "k": 2.7}, "x_kind.k"),
        ({"kind": "shift", "k": True}, "x_kind.k"),
        ({"kind": "shift", "k": "1"}, "x_kind.k"),
        ({"kind": "random_symbol", "seed": 0.5, "degree": 1}, "x_kind.seed"),
        ({"kind": "random_symbol", "seed": 0, "degree": 1.9}, "x_kind.degree"),
    ],
    ids=["k_non_integral", "k_bool", "k_string", "seed_non_integral", "degree_non_integral"],
)
def test_circle_x_kind_integers_are_strict(x_kind, field):
    # coerced with int(), these would be the 2-shift, the 1-shift (twice),
    # seed 0 and degree 1
    raw = base_config(scenario={"kind": "circle_fourier", "N": 2, "x_kind": x_kind})
    with pytest.raises(ConfigError, match=re.escape(field)):
        build_scenario(ScenarioConfig.from_dict(raw))


def test_circle_x_kind_integers_take_integral_floats():
    raw = base_config(scenario={"kind": "circle_fourier", "N": 2, "x_kind": {"kind": "shift", "k": 1.0}})
    np.testing.assert_array_equal(build_scenario(ScenarioConfig.from_dict(raw)).x, circle_shift(2, 1))
    _, x = circle_scenario(2, {"kind": "random_symbol", "seed": 4.0, "degree": 2.0})
    np.testing.assert_array_equal(x, toeplitz_from_symbol(2, random_symbol_coeffs(4, 2)))


def test_config_tolerance_override():
    cfg = ScenarioConfig.from_dict(base_config(tolerances={"tol_alg": 1e-7}))
    assert cfg.tol.tol_alg == 1e-7 and cfg.tol.tol_eig == 1e-9


def test_config_rejects_the_removed_tol_fd():
    # the fd probes are judged by their Taylor remainder, with no tolerance
    with pytest.raises(ConfigError, match="tol_fd"):
        ScenarioConfig.from_dict(base_config(tolerances={"tol_fd": 1e-4}))


def test_build_scenario_block_pattern_must_match():
    raw = base_config(algebra={"kind": "block_diagonal", "pattern": [2, 2]})
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig.from_dict(raw))  # circle N=2 has dim 5


@pytest.mark.parametrize(
    "pattern, dim", [("22", 4), ([2.7, 1.9], 3)], ids=["string", "non_integral"]
)
def test_block_pattern_must_be_a_list_of_integers(pattern, dim):
    # read character by character or truncated, these would be the valid
    # blocks (2, 2) on C^4 and (2, 1) on C^3
    with pytest.raises(ValueError, match="block"):
        VonNeumannAlgebraSpec("block_diagonal", dim, pattern=pattern)
    raw = base_config(
        scenario={"kind": "random", "N": dim}, algebra={"kind": "block_diagonal", "pattern": pattern}
    )
    with pytest.raises(ConfigError, match="algebra.pattern"):
        build_scenario(ScenarioConfig.from_dict(raw))
    raw["algebra"]["pattern"] = [2.0, dim - 2]  # integral sizes are accepted
    assert build_scenario(ScenarioConfig.from_dict(raw)).algebra.pattern == (2, dim - 2)


# Config dicts mixing valid and invalid kinds, field types and missing
# fields; sizes stay <= 3 and every path names a file that does not exist.
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([float("nan"), float("inf"), -0.5, 2.5, 10**400, "2", "x", ""]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "a"]), st.integers(0, 2), max_size=2),
)


def _mostly(valid):
    """A value of ``valid`` seven times in eight, else junk."""
    return st.integers(0, 7).flatmap(lambda i: _junk if i == 7 else valid)


def _obj(**fields):
    """A dict of the given fields, each one dropped one time in eight."""
    keep = st.lists(st.integers(0, 7), min_size=len(fields), max_size=len(fields))
    return st.tuples(st.fixed_dictionaries(fields), keep).map(
        lambda pair: {k: v for (k, v), i in zip(pair[0].items(), pair[1]) if i != 7}
    )


_paths = _mostly(st.sampled_from(["no_such_dir/D.json", "no_such_dir/x.json"]))
_coefficient = _mostly(st.lists(st.sampled_from([0.5, -1.0, float("inf"), float("nan")]), max_size=3))
_x_kinds = _mostly(st.one_of(
    _obj(
        kind=_mostly(st.sampled_from(["shift", "trig_poly", "random_symbol", "bogus"])),
        k=_mostly(st.integers(-5, 5)),
        coeffs=_mostly(st.dictionaries(st.sampled_from(["0", "1", "-7", "a"]), _coefficient, max_size=2)),
        seed=_mostly(st.integers(-1, 5)),
        degree=_mostly(st.integers(-1, 5)),
    ),
    st.sampled_from(["general", "hermitian", "bogus"]),
))
_algebra_kinds = _mostly(st.sampled_from(VonNeumannAlgebraSpec.KINDS + ("bogus",)))
_configs = _mostly(_obj(
    scenario=_mostly(_obj(
        kind=_mostly(st.sampled_from(["circle_fourier", "random", "custom", "bogus"])),
        N=_mostly(st.integers(1, 3)),
        x_kind=_x_kinds,
        d_path=_paths,
        x_path=_paths,
    )),
    algebra=_mostly(_algebra_kinds | _obj(
        kind=_algebra_kinds,
        pattern=_mostly(st.lists(_mostly(st.integers(0, 3)), max_size=3)),
        paths=_mostly(st.lists(_paths, max_size=2) | _paths),
    )),
    n=_mostly(st.integers(-1, 4)),
    seed=_mostly(st.integers(-1, 2**40)),
    checks=_mostly(st.just("all") | st.lists(st.sampled_from(CHECK_NAMES + ("all", "bogus")), max_size=3)),
    tolerances=_mostly(st.dictionaries(
        st.sampled_from(["tol_herm", "tol_eig", "tol_alg", "tol_fd", "rank_cutoff", "bogus"]),
        _mostly(st.sampled_from([1e-300, 1e-12, 1e-9, 1e-6, 0.0, -1.0, 2.0])),
        max_size=2,
    )),
))


@settings(max_examples=400, deadline=None, database=None)
@given(_configs)
@example({"scenario": {"kind": "random", "N": 2}, "algebra": {"kind": "generated", "paths": "g.json"}})
def test_config_builds_or_raises_config_error(raw):
    try:
        data = build_scenario(ScenarioConfig.from_dict(raw))
    except ConfigError:
        return
    assert isinstance(data, ScenarioData)


# ------------------------------------------------------------------ run_checks


def test_run_checks_leibniz_circle():
    report = run_checks(ScenarioConfig.from_dict(base_config()))
    assert report.overall_pass
    assert [r.check for r in report.results] == ["leibniz"]
    assert report.to_json()["schema"] == "opderiv-report/1"


def test_run_checks_reflexivity_dimension():
    raw = base_config(
        scenario={"kind": "random", "N": 3, "x_kind": "general"},
        checks=["reflexivity"],
        n=1,
    )
    report = run_checks(ScenarioConfig.from_dict(raw))
    assert report.overall_pass
    assert report.results[0].details["dim_computed"] == 9


def test_run_checks_reflexivity_reports_deciding_tolerance():
    # the verdict is judged against tol_alg * (1 + ||exp S|| ||exp -S||), not tol_alg * 1
    raw = base_config(scenario={"kind": "circle_fourier", "N": 3}, checks=["reflexivity"], n=2)
    cfg = ScenarioConfig.from_dict(raw)
    result = run_checks(cfg).results[0]
    assert result.passed
    assert result.tolerance > 10 * cfg.tol.alg()
    assert max(result.residuals) <= result.tolerance


@pytest.mark.parametrize("k,commutes", [(0, True), (1, False)])
def test_fd_checks_pass_when_x_commutes_with_d(k, commutes):
    # the shift by k = 0 is the identity: every derivative is 0 and every
    # fd error is roundoff, within the roundoff part of its bound
    raw = base_config(
        scenario={"kind": "circle_fourier", "N": 3, "x_kind": {"kind": "shift", "k": k}},
        checks=["fd_first", "fd_higher"],
        n=2,
    )
    for result in run_checks(ScenarioConfig.from_dict(raw)).results:
        assert result.passed, result.check
        assert max(result.residuals) <= result.tolerance
        assert (max(result.residuals) <= 1e-9) == commutes


def test_run_checks_all_random_scenario():
    raw = base_config(
        scenario={"kind": "random", "N": 3, "x_kind": "general"}, checks=["all"], n=2
    )
    report = run_checks(ScenarioConfig.from_dict(raw))
    assert report.overall_pass
    assert [r.check for r in report.results] == list(CHECK_NAMES)


@pytest.mark.parametrize(
    "checks", (["invariance", "reflexivity"], ["reflexivity", "invariance"], ["reflexivity"])
)
def test_one_invariant_family_per_scenario(checks, monkeypatch):
    # the family (and with it h's components and the algebra) is built once;
    # h's eigenvalues are separated, so no commutant is solved
    counts = {"invariant_family": 0, "commutant": 0, "_h_components": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(harness, "invariant_family")
    counting(reflexivity, "invariant_family")
    counting(reflexivity, "commutant")
    counting(reflexivity, "_h_components")
    raw = base_config(scenario={"kind": "random", "N": 3, "x_kind": "general"}, checks=checks, n=1)
    report = run_checks(ScenarioConfig.from_dict(raw))
    assert report.overall_pass and len(report.results) == len(checks)
    # the algebra comes from the components, one per class
    assert counts == {"invariant_family": 1, "commutant": 0, "_h_components": 1}


def test_run_checks_reports_reproducible():
    raw = base_config(checks=["all"], n=1)
    a = run_checks(ScenarioConfig.from_dict(raw)).to_json()
    b = run_checks(ScenarioConfig.from_dict(raw)).to_json()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_checks_canonical_result_order():
    raw = base_config(checks=["reflexivity", "leibniz"])
    report = run_checks(ScenarioConfig.from_dict(raw))
    assert [r.check for r in report.results] == ["leibniz", "reflexivity"]


def test_generated_paths_must_be_a_list(tmp_path):
    # a bare string is not iterated as a list of one-character paths
    save_operator(tmp_path / "g.json", np.diag([1.0, 2.0]))
    raw = {"scenario": {"kind": "random", "N": 2}, "algebra": {"kind": "generated"}}
    raw["algebra"]["paths"] = str(tmp_path / "g.json")
    with pytest.raises(ConfigError, match="algebra.paths must be a list"):
        build_scenario(ScenarioConfig.from_dict(raw))
    raw["algebra"]["paths"] = [raw["algebra"]["paths"]]
    assert build_scenario(ScenarioConfig.from_dict(raw)).algebra.kind == "generated"


def test_check_failure_recorded_not_thrown():
    raw = base_config(checks=["leibniz", "phi_conj", "reflexivity"], tolerances={"tol_alg": 1e-300})
    raw["scenario"] = {"kind": "random", "N": 3, "x_kind": "general"}
    report = run_checks(ScenarioConfig.from_dict(raw))
    assert not report.overall_pass
    assert any(not r.passed for r in report.results)
    # residuals of about 1e-14 fail a tol_alg of 1e-300: the reflexivity
    # check's own report is recorded, and nothing is raised
    reflexive = report.results[-1]
    assert not reflexive.passed and reflexive.details["pass"] is False
    assert reflexive.details["dim_computed"] == 9
    assert reflexive.residuals == [reflexive.details["max_residual"]]
    assert reflexive.residuals[0] > 0


# ------------------------------------------------------------------------- CLI


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_run_pass_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(checks=["leibniz", "norm_sandwich"]))
    report_path = tmp_path / "report.json"
    code = cli_main(["run", str(cfg), "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "leibniz" in out
    payload = json.loads(report_path.read_text())
    assert payload["schema"] == "opderiv-report/1"
    assert payload["overall_pass"] is True


def test_cli_run_check_failure_exit_1(tmp_path):
    raw = base_config(checks=["phi_conj"], tolerances={"tol_alg": 1e-300})
    raw["scenario"] = {"kind": "random", "N": 3, "x_kind": "general"}
    cfg = write_config(tmp_path, raw)
    code = cli_main(["run", str(cfg), "--report", str(tmp_path / "r.json")])
    assert code == 1


def _custom_non_hermitian(tmp_path):
    save_operator(tmp_path / "D.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
    save_operator(tmp_path / "x.json", np.eye(2))
    return base_config(
        scenario={"kind": "custom", "d_path": str(tmp_path / "D.json"), "x_path": str(tmp_path / "x.json")}
    )


# malformed config -> raw config dict (None: the config file is missing)
CONFIG_ERRORS = {
    "empty_checks": lambda tmp_path: base_config(checks=[]),
    "missing_file": None,
    "block_pattern_zero": lambda tmp_path: base_config(
        algebra={"kind": "block_diagonal", "pattern": [0, 5]}
    ),
    "custom_without_d_path": lambda tmp_path: base_config(
        scenario={"kind": "custom", "x_path": str(tmp_path / "x.json")}
    ),
    "shift_without_k": lambda tmp_path: base_config(
        scenario={"kind": "circle_fourier", "N": 2, "x_kind": {"kind": "shift"}}
    ),
    "N_not_an_integer": lambda tmp_path: base_config(scenario={"kind": "circle_fourier", "N": "x"}),
    "n_not_an_integer": lambda tmp_path: base_config(n="two"),
    "algebra_is_a_list": lambda tmp_path: base_config(algebra=["full"]),
    "trig_poly_infinite_coefficient": lambda tmp_path: base_config(
        scenario={"kind": "circle_fourier", "N": 2,
                  "x_kind": {"kind": "trig_poly", "coeffs": {"0": [float("inf"), 0.0]}}}
    ),
    "custom_non_hermitian": _custom_non_hermitian,
    "tol_fd_removed": lambda tmp_path: base_config(tolerances={"tol_fd": 1e-4}),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_cli_run_config_error_exit_2(tmp_path, capsys, case):
    make = CONFIG_ERRORS[case]
    path = tmp_path / "nope.json" if make is None else write_config(tmp_path, make(tmp_path))
    assert cli_main(["run", str(path), "--report", str(tmp_path / "r.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_run_overrides(tmp_path):
    cfg = write_config(tmp_path, base_config(checks=["all"]))
    report_path = tmp_path / "report.json"
    code = cli_main(
        [
            "run",
            str(cfg),
            "--check",
            "leibniz",
            "--n",
            "2",
            "--seed",
            "5",
            "--tol-alg",
            "1e-8",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["config"]["n"] == 2
    assert payload["config"]["seed"] == 5
    assert payload["config"]["checks"] == ["leibniz"]
    assert payload["config"]["tolerances"]["tol_alg"] == 1e-8


def test_cli_gen_and_show(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    out_dir = tmp_path / "scen"
    assert cli_main(["gen", str(cfg), "--out-dir", str(out_dir)]) == 0
    d = load_operator(out_dir / "D.json")
    np.testing.assert_array_equal(d, np.diag([-2.0, -1.0, 0.0, 1.0, 2.0]))
    assert (out_dir / "x.json").exists() and (out_dir / "y.json").exists()
    assert cli_main(["show", str(out_dir / "D.json")]) == 0
    out = capsys.readouterr().out
    assert "dim 5" in out and "operator norm 2, ||A - A*|| = 0" in out


def test_cli_run_unwritable_report_exit_2(tmp_path, capsys):
    # every check passes, but the report's directory is missing: an I/O
    # error is exit 2 with one stderr line, not exit 1 with a traceback
    cfg = write_config(tmp_path, base_config(checks=["leibniz"]))
    report_path = tmp_path / "missing" / "r.json"
    assert cli_main(["run", str(cfg), "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write report") and err.count("\n") == 1
    assert str(report_path) in err and not report_path.exists()


def test_cli_gen_out_dir_on_a_file_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert cli_main(["gen", str(cfg), "--out-dir", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write scenario matrices") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_cli_show_bad_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli_main(["show", str(bad)]) == 2


MALFORMED_ENTRIES = {
    "long_cell": [[[1.0, 0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "short_cell": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "non_numeric_cell": [[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "null_cell": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "bool_cell": [[[True, 1], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "short_row": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


@pytest.mark.parametrize("case", MALFORMED_ENTRIES)
def test_malformed_matrix_file_is_a_config_error(tmp_path, capsys, case):
    # a cell that is not an [re, im] pair of numbers names the file, never a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": MALFORMED_ENTRIES[case]}))
    assert cli_main(["show", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(bad) in err
    raw = {"scenario": {"kind": "random", "N": 2}, "algebra": {"kind": "generated", "paths": [str(bad)]}}
    with pytest.raises(ConfigError, match="bad.json"):
        run_checks(ScenarioConfig.from_dict(raw))


def test_cli_parser_carries_no_state_between_calls(tmp_path):
    # the parser is built once per process; a second call sees none of the first's options
    cfg = write_config(tmp_path, base_config(checks=["all"], n=1))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["run", str(cfg), "--check", "leibniz", "--check", "lipschitz", "--n", "2"]
    assert cli_main([*argv, "--report", str(first)]) == 0
    assert cli_main(["run", str(cfg), "--report", str(second)]) == 0
    one, two = json.loads(first.read_text()), json.loads(second.read_text())
    assert [r["check"] for r in one["results"]] == ["leibniz", "lipschitz"]
    assert one["config"]["n"] == 2
    assert [r["check"] for r in two["results"]] == list(CHECK_NAMES) and len(CHECK_NAMES) == 13
    assert two["config"]["n"] == 1 and two["config"]["checks"] == list(CHECK_NAMES)
