"""Check orchestration: configs, the check registry, and run reports.

Every check name maps to one operation, in report order.  Most are
operations of the calculus / representation / reflexivity modules, which
the harness calls on the scenario's operands; five make their judgement
here: fd_first and fd_higher (the probes of ``opderiv.derivation`` with
Taylor bounds), binomial_eq and band_eq (the binomial and band forms
against the chain) and invariance (the leak residuals of
``invariance_residuals`` against one tolerance).  Each kind of decision
lives in one registry: ``_CHECKS`` maps check names, in report order, to
their operations (``CHECK_NAMES`` is its key tuple); ``_SCENARIOS`` maps
scenario kinds to their builders; algebra kinds and their field rules
belong to ``VonNeumannAlgebraSpec``.  A
malformed config raises ConfigError from ``ScenarioConfig.from_dict`` or
``build_scenario``.  Identical config and seed reproduce identical
numerical report fields (timings excluded) on one platform.

Per scenario the checks share, each built on first use: one invariant
family (with the algebra) for invariance and reflexivity, and the
derivative chains of x and y (``opderiv.derivation.DerivativeChain``),
which keep what is derived from them.  ``ScenarioData.chain`` is x's
chain of order max(n, top + 4), top = min(3, max(1, n)) the highest
difference order of fd_higher; its norms ||delta^j(x)|| are one stacked
``operator_norm``, which its prefixes read.  ``probes``, its prefix of
order top + 2, holds V* delta^k(x) V in the eigenbasis of D, one stacked
product, where fd_first, fd_higher, lipschitz and uniform_conv sample
alpha_t without forming it.  ``rep_chain``, its prefix of order n, holds
the triangular representation and its norm that phi_hom, phi_conj and
norm_sandwich share.  ``y_chain`` is y's chain of order 0, for ||y||.
So a calculus run takes each norm and each change of basis once.

The identity checks (leibniz, binomial_eq, band_eq, phi_hom, phi_conj,
ad_identity, invariance) report Frobenius residuals, with no SVD, against
tolerances that keep their operator-norm scales; since ||R||_2 <=
||R||_F, no verdict loosens.  band_eq reassembles all its matrices as
one stacked V (.) V*.  The probes fd_first, fd_higher and uniform_conv
take no tolerance: each residual is judged against its Taylor remainder
(proved in the check's docstring) plus ``derivation._fd_roundoff``; the
report's tolerance is the largest bound.  Every probe works in the
eigenbasis of D (see ``opderiv.derivation``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .core import DEFAULT_TOL, TolerancePolicy, _integer, frobenius_norm, load_operator, operator_norm
# automorphism and commutator_derivative are not called here; the benchmark
# tracer (perfbench/tracing.py) wraps them under this module's name.
from .derivation import (
    DerivativeChain,
    _binomial_sums,
    _central_difference,
    _fd_roundoff,
    _matrix_elements,
    _phase_differences,
    _stencil_samples,
    automorphism,
    band_derivation,
    band_embed,
    commutator_derivative,
    default_step,
    derivative_chain,
    leibniz_check,
    lipschitz_check,
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

    @property
    def _fd_top(self) -> int:
        """fd_higher's top difference order, min(3, max(1, n))."""
        return min(3, max(1, self.n))

    @cached_property
    def chain(self) -> DerivativeChain:
        """x's derivative chain, of order max(n, top + 4), top = ``_fd_top``."""
        # fd_higher's remainder at its top order m is delta^(m+4)(x), at
        # least delta^5(x), which binomial_eq and band_eq read too; the phi
        # checks read delta^n(x)
        return derivative_chain(self.generator, self.x, max(self.n, self._fd_top + 4))

    @cached_property
    def probes(self) -> DerivativeChain:
        """The prefix of order top + 2 of ``chain``, whose ``eigen`` fd_first,
        fd_higher, lipschitz and uniform_conv read (fd_higher reads up to
        delta^(top+2)(x))."""
        return self.chain.prefix(self._fd_top + 2)

    @cached_property
    def rep_chain(self) -> DerivativeChain:
        """The prefix of order n of ``chain``, which the phi checks represent."""
        return self.chain.prefix(self.n)

    @cached_property
    def y_chain(self) -> DerivativeChain:
        """y's derivative chain of order 0."""
        return derivative_chain(self.generator, self.y, 0)

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
    return leibniz_check(data.chain, data.y_chain, tol, instance_id=data.label)


def _against_chain(data: ScenarioData, tol: TolerancePolicy, approx: np.ndarray) -> tuple[list, float, bool]:
    """Frobenius residuals of approx[k - 1] against delta^k(x) for k = 1..5, the
    largest bound tol_alg(||D||^k, ||x||), and whether each residual is within
    its bound."""
    d_norm = data.generator.norm()
    chain = data.chain
    resids = frobenius_norm(approx - np.stack([chain.delta(k) for k in range(1, 6)]))
    bounds = [tol.alg(d_norm**k, chain.norms[0]) for k in range(1, 6)]
    return list(resids), max(bounds), all(r <= b for r, b in zip(resids, bounds))


def _check_binomial_eq(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    # the chain's x is the validated operand
    sums = np.stack(_binomial_sums(data.generator, data.chain.x, range(1, 6)))
    residuals, tolerance, passed = _against_chain(data, tol, sums)
    return CheckReport("binomial_eq", data.label, residuals, tolerance, passed)


def _check_band_eq(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    # the embedding and the five derivations are reassembled as one stack
    # V (.) V*, each matrix as ``BandMatrix.assemble`` forms it
    bm = band_embed(data.generator, data.x)
    coeffs = np.stack([bm.coeffs] + [band_derivation(bm, k).coeffs for k in range(1, 6)])
    v = data.generator.eigenvectors
    assembled = v @ coeffs @ v.conj().T
    embed_resid = frobenius_norm(assembled[0] - data.x)
    embed_tol = tol.alg(data.chain.norms[0])
    residuals, tolerance, passed = _against_chain(data, tol, assembled[1:])
    return CheckReport(
        "band_eq",
        data.label,
        [embed_resid, *residuals],
        max(embed_tol, tolerance),
        embed_resid <= embed_tol and passed,
        details={"bands": list(bm.slices)},
    )


def _check_fd_first(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    """||(alpha_h(x) - alpha_-h(x))/2h - i[D, x]|| <= h^2/6 ||delta^3(x)|| + _fd_roundoff(h, m=1).

    Proof: f(t) = alpha_t(x) has f^(k)(t) = alpha_t(delta^k(x)), and Taylor's
    theorem gives f(h) - f(-h) - 2h f'(0) = int_0^h (h - s)^2/2 (alpha_s +
    alpha_-s)(delta^3(x)) ds, of norm <= h^3/3 ||delta^3(x)|| as alpha_s is
    an isometry; divide by 2h.  h = ``default_step``; ``tol`` is unused.
    The quotient is taken in the eigenbasis of D, as
    ((P_h Y P_h* - Y) - (P_-h Y P_-h* - Y))/2h against V* i[D, x] V, both
    from ``probes.eigen``, with the differences by ``_phase_differences``
    (its value at -h is the conjugate of that at h).
    """
    d = data.generator
    h = default_step(d)
    y, dy = data.probes.eigen[:2]
    e = _phase_differences(d, h)
    plus, minus = e * y, e.conj() * y
    err = operator_norm((plus - minus) / (2.0 * h) - dy)
    norms = data.chain.norms
    bound = float(h**2 / 6 * norms[3] + _fd_roundoff(d, norms[0], h, 1, h))
    return CheckReport("fd_first", data.label, [err], bound, err <= bound, details={"h": h})


def _check_fd_higher(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    """m-th central difference of g(t) = <alpha_t(x) xi, eta> at t0, m = 1..min(3, max(1, n)):

        |error| <= m h^2/24 |g^(m+2)(t0)| + mu_4 h^4/24 ||delta^(m+4)(x)|| + _fd_roundoff,

    mu_4 = m/80 + m(m-1)/48.  Proof: |g^(k)| <= ||delta^k(x)|| for unit xi,
    eta.  The (m+1)-point stencil over h^m is int B_m(u) g^(m)(t0 + hu) du,
    B_m the density of a sum of m uniform variables on [-1/2, 1/2] (the
    centred B-spline): even, of integral 1, second moment m/12 and fourth
    moment mu_4.  Taylor's theorem to third order with a fourth-order
    remainder leaves m h^2/24 g^(m+2)(t0) plus at most mu_4 h^4/24
    sup |g^(m+4)|.  ``details`` holds each bound; ``tol`` is unused.
    Every value of g and of its derivatives is a ``_matrix_elements``
    contraction of ``probes.eigen``, the stencils of every order one call
    of ``_stencil_samples``.
    """
    d = data.generator
    xi, eta = _unit_vectors(d.dim, data.seed + 11)
    t0, h = 0.3, default_step(d)
    top = data._fd_top
    coeffs, norms = data.probes.eigen, data.chain.norms
    vh = d.eigenvectors.conj().T
    xi_c, eta_c = vh @ xi, vh @ eta
    # g^(k)(t0) = <alpha_t0(delta^k(x)) xi, eta> for k = 1..top+2
    at_t0 = _matrix_elements(d, coeffs[1 : top + 3], xi_c, eta_c, t0).tolist()
    samples = _stencil_samples(d, coeffs[0], xi_c, eta_c, t0, h, top)
    residuals, bounds = [], []
    for m in range(1, top + 1):
        residuals.append(abs(_central_difference(samples, m, h) - at_t0[m - 1]))
        mu4 = m / 80 + m * (m - 1) / 48
        truncation = m * h**2 / 24 * abs(at_t0[m + 1]) + mu4 * h**4 / 24 * norms[m + 4]
        bounds.append(float(truncation + _fd_roundoff(d, norms[0], h, m, t0 + m * h / 2)))
    passed = all(r <= b for r, b in zip(residuals, bounds))
    return CheckReport("fd_higher", data.label, residuals, max(bounds), passed, details={"h": h, "bounds": bounds})


def _check_lipschitz(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    rng = np.random.default_rng(data.seed + 17)
    ts = np.concatenate(
        [[0.1, 1.0, 10.0], rng.uniform(-10, 10, size=47)]
    )
    return lipschitz_check(data.probes, ts, tol, instance_id=data.label)


def _check_uniform_conv(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return uniform_convergence_check(data.probes, instance_id=data.label)


def _check_phi_hom(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    cy = derivative_chain(data.generator, data.y, data.n)
    return homomorphism_check(data.rep_chain, cy, tol, instance_id=data.label)


def _check_phi_conj(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return conjugation_identity_check(data.rep_chain, tol, instance_id=data.label)


def _check_norm_sandwich(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return norm_sandwich_check(data.rep_chain, tol, instance_id=data.label)


def _check_ad_identity(data: ScenarioData, tol: TolerancePolicy) -> CheckReport:
    return ad_expansion_check(data.chain, data.y_chain, max(1, data.n), tol, instance_id=data.label)


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
    details = report.to_json()
    return CheckReport(
        "reflexivity",
        data.label,
        [details["max_residual"]],
        report.tolerance,
        report.passed,
        details=details,
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
    """raw[key] (default when absent) as an integer >= lowest; ConfigError
    unless ``core._integer`` takes it."""
    value = _integer(raw.get(key, default), key, ConfigError)
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
        field_name = "algebra.paths" if kind == "generated" else "algebra.pattern"
        raise ConfigError(f"invalid {kind} algebra, {field_name}: {exc}") from exc


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
