"""Check orchestration: configs, the check registry, and run reports.

Every check name maps one-to-one onto an operation of the calculus /
representation / reflexivity modules; the harness only generates the
scenario operands, invokes the operation, and collects the reports.
Each kind of decision lives in one registry: ``_CHECKS`` maps check
names, in report order, to their operations (``CHECK_NAMES`` is its key
tuple); ``_SCENARIOS`` maps scenario kinds to their builders; algebra
kinds and their field rules belong to ``VonNeumannAlgebraSpec``.  A
malformed config raises ConfigError from ``ScenarioConfig.from_dict`` or
``build_scenario``.  Identical config and seed reproduce identical
numerical report fields (timings excluded) on one platform.

The invariance and reflexivity checks share one invariant family per
scenario: ``ScenarioData.family`` builds it (with the algebra) on first
use, so a run that selects either check or both solves the commutant and
builds the algebra and the family once.  In the same way the checks
share one derivative chain of x per order (``ScenarioData.chain``): the
homomorphism, conjugation and norm-sandwich checks share the order-n
chain, and the homomorphism check and the norm sandwich one norm of its
triangular representation.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import DEFAULT_TOL, TolerancePolicy, load_operator, operator_norm
from .derivation import (
    DerivativeChain,
    binomial_derivative,
    band_derivation,
    band_embed,
    central_difference_derivative,
    central_difference_scalar,
    commutator_derivative,
    default_step,
    derivative_chain,
    leibniz_check,
    lipschitz_check,
    automorphism,
    uniform_convergence_check,
)
from .reflexivity import (
    InvariantFamily,
    VonNeumannAlgebraSpec,
    invariance_residuals,
    invariant_family,
    reflexivity_check,
)
from .reports import CheckReport
from .scenarios import (
    ConfigError,
    circle_scenario,
    custom_scenario,
    random_operator,
    random_scenario,
    random_symbol_coeffs,
    toeplitz_from_symbol,
)
from .triangular import (
    ad_expansion_check,
    conjugation_identity_check,
    homomorphism_check,
    norm_sandwich_check,
)

__all__ = [
    "CHECK_NAMES",
    "REPORT_SCHEMA",
    "ScenarioConfig",
    "ScenarioData",
    "build_scenario",
    "run_checks",
    "RunReport",
]

REPORT_SCHEMA = "opderiv-report/1"


@dataclass
class ScenarioData:
    """Concrete operands one config run works on."""

    label: str
    generator: object
    x: np.ndarray
    y: np.ndarray
    algebra: VonNeumannAlgebraSpec
    n: int
    seed: int
    _families: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chain(self, order: int) -> DerivativeChain:
        """The derivative chain of x to the given order, built on first use."""
        if order not in self._chains:
            self._chains[order] = derivative_chain(self.generator, self.x, order)
        return self._chains[order]

    def family(self, tol: TolerancePolicy) -> InvariantFamily:
        """The invariant family of the algebra at order n, built on first use."""
        if tol not in self._families:
            self._families[tol] = invariant_family(
                self.algebra, self.generator, self.n, tol=tol, seed=self.seed
            )
        return self._families[tol]


def _unit_vectors(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(2):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vecs.append(v / np.linalg.norm(v))
    return vecs[0], vecs[1]


def _check_leibniz(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return leibniz_check(data.generator, data.x, data.y, tol, instance_id=data.label)


def _against_chain(data: ScenarioData, tol: TolerancePolicy, approx) -> tuple[list, float, bool]:
    """Residuals of approx(k) against delta^k(x) for k = 1..5, the largest bound
    tol_alg(||D||^k, ||x||), and whether each residual is within its bound."""
    d, x = data.generator, data.x
    x_norm, d_norm = operator_norm(x), d.norm()
    chain = data.chain(5)
    resids = operator_norm(np.stack([approx(k) - chain.delta(k) for k in range(1, 6)]))
    bounds = [tol.alg(d_norm**k, x_norm) for k in range(1, 6)]
    return list(resids), max(bounds), all(r <= b for r, b in zip(resids, bounds))


def _check_binomial_eq(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    d, x = data.generator, data.x
    residuals, tolerance, passed = _against_chain(data, tol, lambda k: binomial_derivative(d, x, k))
    return CheckReport("binomial_eq", data.label, residuals, tolerance, passed)


def _check_band_eq(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    d, x = data.generator, data.x
    bm = band_embed(d, x)
    embed_resid = operator_norm(bm.assemble() - x)
    embed_tol = tol.alg(operator_norm(x))
    residuals, tolerance, passed = _against_chain(data, tol, lambda k: band_derivation(bm, k).assemble())
    return CheckReport(
        "band_eq",
        data.label,
        [embed_resid, *residuals],
        max(embed_tol, tolerance),
        embed_resid <= embed_tol and passed,
        details={"bands": list(bm.slices)},
    )


def _check_fd_first(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    d, x = data.generator, data.x
    exact = commutator_derivative(d, x)
    h = default_step(d)
    err_h = operator_norm(central_difference_derivative(d, x, h) - exact)
    h_big = 50.0 * h
    err_big = operator_norm(central_difference_derivative(d, x, h_big) - exact)
    err_half = operator_norm(central_difference_derivative(d, x, h_big / 2) - exact)
    # x commuting with D: every error is roundoff, so no order can be observed
    degenerate = max(err_h, err_big, err_half) <= tol.alg(d.norm(), operator_norm(x))
    order = np.log2(err_big / err_half) if err_half > 0 else np.inf
    passed = degenerate or (err_h <= tol.tol_fd and order >= 1.9)
    return CheckReport(
        "fd_first",
        data.label,
        [err_h],
        tol.tol_fd,
        bool(passed),
        details={"order": float(order), "h": h, "degenerate": bool(degenerate)},
    )


def _check_fd_higher(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    d, x = data.generator, data.x
    xi, eta = _unit_vectors(d.dim, data.seed + 11)
    t0 = 0.3
    h = default_step(d)
    residuals, orders, passed, degenerate = [], [], True, True
    top = min(3, max(1, data.n))
    chain = data.chain(top)
    for m in range(1, top + 1):
        exact = complex(np.vdot(eta, automorphism(d, chain.delta(m), t0) @ xi))
        err = abs(central_difference_scalar(d, x, m, xi, eta, t0, h) - exact)
        h_big = 50.0 * h
        e1 = abs(central_difference_scalar(d, x, m, xi, eta, t0, h_big) - exact)
        e2 = abs(central_difference_scalar(d, x, m, xi, eta, t0, h_big / 2) - exact)
        with np.errstate(divide="ignore"):  # e1 == 0 gives order -inf
            order = float(np.log2(e1 / e2)) if e2 > 0 else np.inf
        residuals.append(err)
        orders.append(order)
        passed = passed and err <= tol.tol_fd and order >= 1.9
        # x commuting with D: every error is roundoff, so no order can be observed
        degenerate = degenerate and max(err, e1, e2) <= tol.alg(d.norm() ** m, operator_norm(x))
    return CheckReport(
        "fd_higher",
        data.label,
        residuals,
        tol.tol_fd,
        passed or degenerate,
        details={"orders": orders, "degenerate": degenerate},
    )


def _check_lipschitz(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    rng = np.random.default_rng(data.seed + 17)
    ts = np.concatenate(
        [[0.1, 1.0, 10.0], rng.uniform(-10, 10, size=47)]
    )
    return lipschitz_check(data.generator, data.x, ts, tol, instance_id=data.label)


def _check_uniform_conv(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return uniform_convergence_check(data.generator, data.x, tol=tol, instance_id=data.label)


def _check_phi_hom(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    cy = derivative_chain(data.generator, data.y, data.n)
    return homomorphism_check(data.chain(data.n), cy, tol, instance_id=data.label)


def _check_phi_conj(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return conjugation_identity_check(data.generator, data.chain(data.n), tol, instance_id=data.label)


def _check_norm_sandwich(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return norm_sandwich_check(data.chain(data.n), tol, instance_id=data.label)


def _check_ad_identity(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return ad_expansion_check(data.x, data.y, max(1, data.n), tol, instance_id=data.label)


def _check_invariance(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    residuals_by_label = invariance_residuals(
        data.family(tol), data.generator, data.algebra.generating_set()
    )
    fwd_norm = 1.0 + data.generator.norm()
    tolerance = tol.alg(fwd_norm ** data.n)
    residuals = list(residuals_by_label.values())
    passed = all(r <= tolerance for r in residuals)
    return CheckReport(
        "invariance",
        data.label,
        residuals,
        tolerance,
        passed,
        details={"members": list(residuals_by_label)},
    )


def _check_reflexivity(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    report = reflexivity_check(
        data.algebra, data.generator, data.n, tol=tol, seed=data.seed,
        raise_on_fail=False, family=data.family(tol),
    )
    resid = max(report.max_reconstruction_residual, report.membership_bound)
    return CheckReport(
        "reflexivity",
        data.label,
        [resid],
        report.tolerance,
        report.passed,
        details=report.to_json(),
    )


# The check registry: name -> operation, in report order.
_CHECKS = {
    "leibniz": _check_leibniz,
    "binomial_eq": _check_binomial_eq,
    "band_eq": _check_band_eq,
    "fd_first": _check_fd_first,
    "fd_higher": _check_fd_higher,
    "lipschitz": _check_lipschitz,
    "uniform_conv": _check_uniform_conv,
    "phi_hom": _check_phi_hom,
    "phi_conj": _check_phi_conj,
    "norm_sandwich": _check_norm_sandwich,
    "ad_identity": _check_ad_identity,
    "invariance": _check_invariance,
    "reflexivity": _check_reflexivity,
}
CHECK_NAMES = tuple(_CHECKS)


@dataclass
class ScenarioConfig:
    """Validated run configuration (scenario, algebra, order, checks)."""

    scenario: dict
    algebra: dict
    n: int = 1
    seed: int = 0
    checks: tuple = CHECK_NAMES
    tol: TolerancePolicy = DEFAULT_TOL

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        scenario = raw.get("scenario")
        if not isinstance(scenario, dict) or not isinstance(scenario.get("kind"), str):
            raise ConfigError("config.scenario must be an object with a 'kind'")
        if scenario["kind"] not in _SCENARIOS:
            raise ConfigError(f"unknown scenario kind {scenario['kind']!r}")
        if scenario["kind"] in ("circle_fourier", "random"):
            _int_field(scenario, "N", 0, lowest=1)
        algebra = raw.get("algebra", {"kind": "full"})
        if isinstance(algebra, str):
            algebra = {"kind": algebra}
        if not isinstance(algebra, dict):
            raise ConfigError("config.algebra must be an object or a kind name")
        if algebra.get("kind") not in VonNeumannAlgebraSpec.KINDS:
            raise ConfigError(f"unknown algebra kind {algebra.get('kind')!r}")
        n = _int_field(raw, "n", 1, lowest=0)
        seed = _int_field(raw, "seed", 0, lowest=0)
        checks = raw.get("checks", ["all"])
        if isinstance(checks, str):
            checks = [checks]
        if not isinstance(checks, (list, tuple)):
            raise ConfigError("checks must be a list of check names")
        if checks == ["all"]:
            checks = list(CHECK_NAMES)
        if not checks:
            raise ConfigError("checks list must not be empty")
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}; valid names: {list(CHECK_NAMES)}")
        tol_overrides = raw.get("tolerances", {})
        if not isinstance(tol_overrides, dict):
            raise ConfigError("tolerances must be an object")
        try:
            tol = DEFAULT_TOL.replace(**{k: float(v) for k, v in tol_overrides.items()})
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad tolerance overrides: {exc}") from exc
        return cls(scenario=dict(scenario), algebra=dict(algebra), n=n, seed=seed,
                   checks=tuple(checks), tol=tol)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "algebra": self.algebra,
            "n": self.n,
            "seed": self.seed,
            "checks": list(self.checks),
            "tolerances": asdict(self.tol),
        }


def _int_field(raw: dict, key: str, default: int, lowest: int) -> int:
    """raw[key] (default when absent) as an integer >= lowest."""
    try:
        value = int(raw.get(key, default))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, got {raw.get(key)!r}") from exc
    if value < lowest:
        raise ConfigError(f"{key} must be >= {lowest}")
    return value


def _circle(scenario: dict, seed: int, tol: TolerancePolicy) -> tuple:
    n_modes = int(scenario["N"])
    x_kind = scenario.get("x_kind", {"kind": "shift", "k": 1})
    gen, x = circle_scenario(n_modes, x_kind)
    y = toeplitz_from_symbol(n_modes, random_symbol_coeffs(seed + 1, min(2, 2 * n_modes)))
    return f"circle_fourier(N={n_modes},{x_kind.get('kind', '?')})", gen, x, y


def _random(scenario: dict, seed: int, tol: TolerancePolicy) -> tuple:
    dim = int(scenario["N"])
    x_kind = scenario.get("x_kind", "general")
    gen, x = random_scenario(dim, seed, x_kind, tol=tol)
    y = random_operator(dim, np.random.default_rng(seed + 1000003), "general")
    return f"random(N={dim},seed={seed},{x_kind})", gen, x, y


def _custom(scenario: dict, seed: int, tol: TolerancePolicy) -> tuple:
    gen, x = custom_scenario(scenario["d_path"], scenario["x_path"], tol=tol)
    y = random_operator(gen.dim, np.random.default_rng(seed + 1000003), "general")
    return f"custom({scenario['d_path']})", gen, x, y


# The scenario registry: kind -> builder of (label, generator, x, y).
_SCENARIOS = {"circle_fourier": _circle, "random": _random, "custom": _custom}


def _algebra_spec(algebra: dict, dim: int) -> VonNeumannAlgebraSpec:
    """The spec of a config's algebra block, with its generator files loaded."""
    kind = algebra["kind"]
    paths = algebra.get("paths") or []
    if kind == "generated" and not isinstance(paths, list):
        raise ConfigError(f"algebra.paths must be a list of file paths, got {paths!r}")
    try:
        if kind == "generated":
            gens = tuple(load_operator(p) for p in paths)
            return VonNeumannAlgebraSpec(kind, dim, generators=gens)
        pattern = algebra.get("pattern") if kind == "block_diagonal" else None
        return VonNeumannAlgebraSpec(kind, dim, pattern=pattern)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} algebra: {exc}") from exc


def build_scenario(config: ScenarioConfig) -> ScenarioData:
    """Generate (D, x) per the config plus a companion operator y."""
    kind = config.scenario["kind"]
    try:
        label, gen, x, y = _SCENARIOS[kind](config.scenario, config.seed, config.tol)
    except ConfigError:
        raise
    # a missing or malformed field, a non-Hermitian D, or a tol_eig no
    # eigensolver can meet: the config, not a check, is at fault
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} scenario: {type(exc).__name__}: {exc}") from exc
    algebra = _algebra_spec(config.algebra, gen.dim)
    return ScenarioData(label, gen, x, y, algebra, config.n, config.seed)


@dataclass
class RunReport:
    """Aggregated results of one config run."""

    config: dict
    results: list
    timings: dict
    overall_pass: bool
    schema: str = REPORT_SCHEMA
    version: str = __version__

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "config": self.config,
            "results": [r.to_json() for r in self.results],
            "timings": {k: float(v) for k, v in self.timings.items()},
            "overall_pass": bool(self.overall_pass),
        }

    def table(self) -> str:
        """Fixed-width summary table, one row per check."""
        header = f"{'check':<14} {'scenario':<34} {'residual':>12} {'tolerance':>12}  result"
        lines = [header, "-" * len(header)]
        for r in self.results:
            worst = max(r.residuals, default=0.0)
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.check:<14} {r.instance_id[:34]:<34} {worst:>12.3e} {r.tolerance:>12.3e}  {verdict}"
            )
        lines.append(
            f"overall: {'PASS' if self.overall_pass else 'FAIL'} "
            f"({sum(r.passed for r in self.results)}/{len(self.results)} checks)"
        )
        return "\n".join(lines)


def run_checks(config: ScenarioConfig) -> RunReport:
    """Execute the selected checks on the configured scenario.

    Results are keyed by check name and emitted in canonical order, so the
    report layout is independent of execution order.
    """
    data = build_scenario(config)
    cells = {}
    timings = {}
    for name in config.checks:
        t0 = time.perf_counter()
        cells[name] = _CHECKS[name](data, config.tol)
        timings[name] = time.perf_counter() - t0
    ordered = [cells[name] for name in CHECK_NAMES if name in cells]
    overall = all(r.passed for r in ordered)
    return RunReport(
        config=config.to_dict(), results=ordered, timings=timings, overall_pass=overall
    )
