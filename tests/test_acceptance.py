"""Acceptance suite: the toolkit's exit criteria.

Each test covers one numbered criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  All expected values are either closed forms or two-sided
computations along independent arithmetic paths.
"""

import math
import time

import numpy as np

from opderiv.core import eig_hermitian, operator_norm
from opderiv.derivation import (
    automorphism,
    band_derivation,
    band_embed,
    binomial_derivative,
    central_difference_scalar,
    chain_norm,
    commutator_derivative,
    default_step,
    derivative_chain,
    iterated_derivative,
)
from opderiv.reflexivity import VonNeumannAlgebraSpec, reflexivity_check
from opderiv.scenarios import circle_generator, circle_shift, random_operator, random_scenario
from opderiv.triangular import (
    ad_expansion_check,
    amplify,
    corner_exponential,
    triangular_representation,
)


def announce(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2}: {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed{suffix}"


def random_scenarios(count, dims, x_kind="general", min_bands=0, seed0=0):
    """Deterministic stream of (D, x) scenarios, filtered by band count."""
    out = []
    seed = seed0
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        d, x = random_scenario(dim, seed, x_kind)
        seed += 1
        if min_bands and len({math.ceil(l) for l in d.eigenvalues}) < min_bands:
            continue
        out.append((d, x))
    return out


def test_criterion_01_binomial_iterated_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for d, x in random_scenarios(50, dims=(2, 3, 4, 5, 6, 7, 8)):
        x_norm = operator_norm(x)
        for k in range(1, 6):
            resid = operator_norm(binomial_derivative(d, x, k) - iterated_derivative(d, x, k))
            bound = 1e-9 * (1.0 + d.norm() ** k * x_norm)
            worst = max(worst, resid / bound)
    elapsed = time.perf_counter() - t0
    announce(
        1,
        "binomial vs iterated derivative, 50 scenarios, k <= 5",
        worst <= 1.0 and elapsed < 5.0,
        f"worst residual/bound {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_band_derivation_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    scenarios = random_scenarios(50, dims=(8,), min_bands=3)
    for d, x in scenarios:
        bm = band_embed(d, x)
        assert len(bm.slices) >= 3
        x_norm = operator_norm(x)
        for k in range(1, 6):
            resid = operator_norm(
                band_derivation(bm, k).assemble() - iterated_derivative(d, x, k)
            )
            bound = 1e-9 * (1.0 + d.norm() ** k * x_norm)
            worst = max(worst, resid / bound)
    elapsed = time.perf_counter() - t0
    announce(
        2,
        "band derivation reassembly vs iterated, 50 scenarios, >= 3 bands",
        worst <= 1.0 and elapsed < 5.0,
        f"worst residual/bound {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_scalar_derivative_identity():
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_order = np.inf
    cases = [random_scenario(4, s) for s in (0, 1)]
    cases.append((circle_generator(3), circle_shift(3, 1)))
    t_probe = 0.3
    for idx, (d, x) in enumerate(cases):
        rng = np.random.default_rng(1000 + idx)
        xi = rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim)
        eta /= np.linalg.norm(eta)
        h = default_step(d)
        for n in range(1, 4):
            exact = complex(
                np.vdot(eta, automorphism(d, iterated_derivative(d, x, n), t_probe) @ xi)
            )
            err = abs(central_difference_scalar(d, x, n, xi, eta, t_probe, h) - exact)
            worst_err = max(worst_err, err)
            h_big = 50.0 * h
            e1 = abs(central_difference_scalar(d, x, n, xi, eta, t_probe, h_big) - exact)
            e2 = abs(central_difference_scalar(d, x, n, xi, eta, t_probe, h_big / 2) - exact)
            worst_order = min(worst_order, math.log2(e1 / e2))
    elapsed = time.perf_counter() - t0
    announce(
        3,
        "scalar derivative identity, n <= 3, order >= 1.9",
        worst_err <= 1e-4 and worst_order >= 1.9 and elapsed < 10.0,
        f"max err {worst_err:.2e}, min order {worst_order:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_lipschitz_bound():
    violations = 0
    scenarios = [random_scenario(4, s)[0] for s in (10, 11)] + [circle_generator(4)]
    for idx, d in enumerate(scenarios):
        rng = np.random.default_rng(2000 + idx)
        for _ in range(100):
            x = random_operator(d.dim, rng, "general")
            t = float(rng.uniform(-10.0, 10.0))
            diff = operator_norm(automorphism(d, x, t) - x)
            dx_norm = operator_norm(commutator_derivative(d, x))
            if diff > dx_norm * abs(t) * (1.0 + 1e-9):
                violations += 1
    announce(
        4,
        "Lipschitz bound, 100 (x, t) pairs per scenario",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_05_circle_shift_closed_form():
    n_modes = 8
    d = circle_generator(n_modes)
    worst = 0.0
    for k in range(1, 4):
        s = circle_shift(n_modes, k)
        for j in range(1, 5):
            resid = operator_norm(iterated_derivative(d, s, j) - (1j * k) ** j * s)
            worst = max(worst, resid)
    s1_norm2 = chain_norm(derivative_chain(d, circle_shift(n_modes, 1), 2))
    norm_err = abs(s1_norm2 - 2.5)
    announce(
        5,
        "circle shift closed form on N=8, k <= 3, j <= 4",
        worst <= 1e-12 and norm_err <= 1e-12,
        f"max residual {worst:.2e}, |norm - 2.5| = {norm_err:.2e}",
    )


def test_criterion_06_conjugation_identity():
    worst = 0.0
    seed = 0
    for i in range(50):
        dim = (2, 3, 4, 5, 6, 7, 8)[i % 7]
        n = (1, 2, 3, 4)[i % 4]
        d, x = random_scenario(dim, 3000 + seed, "general")
        seed += 1
        chain = derivative_chain(d, x, n)
        fwd, bwd = corner_exponential(d, n)
        lhs = fwd @ amplify(x, n) @ bwd
        resid = operator_norm(lhs - triangular_representation(chain))
        bound = 1e-8 * (1.0 + operator_norm(fwd) * operator_norm(x) * operator_norm(bwd))
        worst = max(worst, resid / bound)
    announce(
        6,
        "conjugation identity, 50 scenarios, n <= 4, N <= 8",
        worst <= 1.0,
        f"worst residual/bound {worst:.2e}",
    )


def test_criterion_07_homomorphism_and_banach_norm():
    worst_hom = 0.0
    worst_sub = 0.0
    for i in range(100):
        rng = np.random.default_rng(4000 + i)
        dim = (3, 4, 5)[i % 3]
        n = (1, 2, 3)[i % 3]
        d, x = random_scenario(dim, 4000 + i, "general")
        y = random_operator(dim, rng, "general")
        cx = derivative_chain(d, x, n)
        cy = derivative_chain(d, y, n)
        cxy = derivative_chain(d, x @ y, n)
        rep_x = triangular_representation(cx)
        rep_y = triangular_representation(cy)
        rep_xy = triangular_representation(cxy)
        resid = operator_norm(rep_xy - rep_x @ rep_y)
        bound = 1e-9 * (1.0 + operator_norm(rep_x) * operator_norm(rep_y))
        worst_hom = max(worst_hom, resid / bound)
        worst_sub = max(worst_sub, chain_norm(cxy) - chain_norm(cx) * chain_norm(cy))
    announce(
        7,
        "homomorphism and Banach-algebra norm, 100 pairs, n <= 3",
        worst_hom <= 1.0 and worst_sub <= 1e-9,
        f"worst hom residual/bound {worst_hom:.2e}, worst norm excess {worst_sub:.2e}",
    )


def test_criterion_08_norm_sandwich():
    violations = 0
    for i in range(200):
        dim = (2, 3, 4, 5)[i % 4]
        n = (0, 1, 2, 3)[i % 4]
        d, x = random_scenario(dim, 5000 + i, "general")
        chain = derivative_chain(d, x, n)
        weighted = chain_norm(chain)
        rep_norm = operator_norm(triangular_representation(chain))
        if weighted / (n + 1) > rep_norm + 1e-9 or rep_norm > weighted + 1e-9:
            violations += 1
    announce(
        8,
        "norm sandwich, 200 instances, n <= 3",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_09_ad_expansion_identity():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(6000 + i)
        s = random_operator(4, rng, "general")
        b = random_operator(4, rng, "general")
        for n in range(6):
            report = ad_expansion_check(s, b, n)
            bound = 1e-10 * (1.0 + operator_norm(s) ** n * operator_norm(b))
            worst = max(worst, report.residuals[0] / bound)
    announce(
        9,
        "ad-expansion identity, random 4x4 pairs, n <= 5",
        worst <= 1.0,
        f"worst residual/bound {worst:.2e}",
    )


def test_criterion_10_reflexivity_grid():
    t0 = time.perf_counter()
    patterns = {2: (1, 1), 3: (2, 1), 4: (2, 2)}
    failures = []
    worst_resid = 0.0
    for dim in (2, 3, 4):
        specs = [
            VonNeumannAlgebraSpec("full", dim),
            VonNeumannAlgebraSpec("diagonal_masa", dim),
            VonNeumannAlgebraSpec("block_diagonal", dim, pattern=patterns[dim]),
        ]
        d, _ = random_scenario(dim, 7000 + dim)
        assert np.all(np.diff(d.eigenvalues) > 0), "generator eigenvalues must be distinct"
        for spec in specs:
            for n in (1, 2):
                report = reflexivity_check(spec, d, n, raise_on_fail=False)
                worst_resid = max(worst_resid, report.max_reconstruction_residual)
                if (
                    report.dim_computed != report.dim_expected
                    or report.max_reconstruction_residual > 1e-7
                ):
                    failures.append((spec.label(), n, report.to_json()))
    elapsed = time.perf_counter() - t0
    announce(
        10,
        "reflexivity grid: 3 algebras x N in {2,3,4} x n in {1,2}",
        not failures and elapsed < 60.0,
        f"worst reconstruction residual {worst_resid:.2e}, {elapsed:.2f}s"
        + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_11_reflexivity_degenerate_n0():
    ok = True
    details = []
    d = eig_hermitian(np.diag([0.3, 1.1, 2.7]))
    for spec in (
        VonNeumannAlgebraSpec("full", 3),
        VonNeumannAlgebraSpec("diagonal_masa", 3),
        VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1)),
    ):
        report = reflexivity_check(spec, d, 0, raise_on_fail=False)
        ok = ok and report.passed and report.dim_computed == spec.expected_dim()
        details.append(f"{spec.kind}:{report.dim_computed}")
    announce(
        11,
        "n = 0 reduces to the bicommutant identity",
        ok,
        ", ".join(details),
    )
