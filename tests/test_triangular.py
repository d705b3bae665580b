"""Tests for the block upper-triangular corner representation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opderiv import core, derivation, triangular
from opderiv.core import DEFAULT_TOL, DimensionMismatch, eig_hermitian, operator_norm
from opderiv.derivation import chain_norm, derivative_chain
from opderiv.harness import ScenarioConfig, build_scenario, run_checks
from opderiv.scenarios import circle_generator, circle_shift
from opderiv.triangular import (
    ad_expansion_check,
    amplify,
    conjugation_identity_check,
    corner_exponential,
    corner_exponential_norm,
    homomorphism_check,
    norm_sandwich_check,
    triangular_representation,
    triangular_representations,
)


def rng_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rng_generator(rng, n, spread=2.0):
    z = rng_operator(rng, n)
    return eig_hermitian((z + z.conj().T) / 2 * spread)


def block(a, base, i, j):
    """Block (i, j) of a block-major corner operator over C^base."""
    return a[i * base : (i + 1) * base, j * base : (j + 1) * base]


# ------------------------------------------------------------ nilpotent shift


def nilpotent_shift(n):
    """(n+1) x (n+1) matrix J with ones on the first superdiagonal: the
    factor of the Kronecker oracle for the corner exponential below."""
    return np.eye(n + 1, k=1, dtype=complex)


def test_nilpotent_shift_small_orders():
    assert nilpotent_shift(0).shape == (1, 1)
    assert nilpotent_shift(0)[0, 0] == 0.0
    np.testing.assert_array_equal(nilpotent_shift(1), [[0.0, 1.0], [0.0, 0.0]])


def test_nilpotent_shift_powers():
    b = nilpotent_shift(2)
    b2 = b @ b
    expected = np.zeros((3, 3))
    expected[0, 2] = 1.0
    np.testing.assert_array_equal(b2, expected)
    np.testing.assert_array_equal(b2 @ b, np.zeros((3, 3)))


@pytest.mark.parametrize("n", range(5))
def test_nilpotent_shift_index(n):
    b = nilpotent_shift(n)
    assert operator_norm(np.linalg.matrix_power(b, n + 1)) == 0.0
    if n >= 1:
        assert operator_norm(np.linalg.matrix_power(b, n)) > 0.0


# ------------------------------------------------------------ amplification


def test_amplify_is_block_diagonal():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    amp = amplify(x, 2)
    for i in range(3):
        np.testing.assert_array_equal(block(amp, 2, i, i), x)
        for j in range(3):
            if i != j:
                assert operator_norm(block(amp, 2, i, j)) == 0.0


# --------------------------------------------------------- representation


def test_representation_of_identity():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    rep = triangular_representation(derivative_chain(d, np.eye(2), 3))
    np.testing.assert_allclose(rep, np.eye(8), atol=1e-14)


def test_representation_blocks_hand_2x2():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = triangular_representation(derivative_chain(d, x, 1))
    np.testing.assert_allclose(rep[:2, :2], x, atol=1e-15)
    np.testing.assert_allclose(rep[2:, 2:], x, atol=1e-15)
    np.testing.assert_allclose(rep[:2, 2:], [[0.0, -1j], [0.0, 0.0]], atol=1e-15)
    assert operator_norm(rep[2:, :2]) == 0.0


def test_representation_circle_diagonals():
    d = circle_generator(3)
    s = circle_shift(3, 1)
    rep = triangular_representation(derivative_chain(d, s, 2))
    for i in range(3):
        for j in range(i, 3):
            expected = (1j) ** (j - i) * s / math.factorial(j - i)
            np.testing.assert_allclose(block(rep, 7, i, j), expected, atol=1e-14)


def test_representation_linear_and_injective():
    rng = np.random.default_rng(20)
    d = rng_generator(rng, 3)
    x, y = rng_operator(rng, 3), rng_operator(rng, 3)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = triangular_representation(derivative_chain(d, a * x + b * y, 2))
    rhs = (
        a * triangular_representation(derivative_chain(d, x, 2))
        + b * triangular_representation(derivative_chain(d, y, 2))
    )
    assert operator_norm(lhs - rhs) <= DEFAULT_TOL.alg(operator_norm(x), operator_norm(y))
    # block (0, 0) recovers the operator exactly
    rep = triangular_representation(derivative_chain(d, x, 2))
    np.testing.assert_array_equal(rep[:3, :3], x)


@pytest.mark.parametrize("n", (0, 1, 2, 3))
def test_stacked_representations_match_one_at_a_time(n):
    rng = np.random.default_rng(23)
    d = rng_generator(rng, 3)
    xs = np.stack([rng_operator(rng, 3) for _ in range(5)])
    reps = triangular_representations(d, xs, n)
    assert reps.shape == (5, 3 * (n + 1), 3 * (n + 1))
    for x, rep in zip(xs, reps):
        expected = triangular_representation(derivative_chain(d, x, n))
        assert operator_norm(rep - expected) <= 1e-12 * (1 + operator_norm(expected))
        np.testing.assert_array_equal(rep[:3, :3], x)


def test_stacked_representations_shapes():
    d = rng_generator(np.random.default_rng(24), 2)
    assert triangular_representations(d, np.zeros((0, 2, 2)), 2).shape == (0, 6, 6)
    with pytest.raises(DimensionMismatch):
        triangular_representations(d, np.zeros((1, 3, 3)), 1)
    with pytest.raises(DimensionMismatch):
        triangular_representations(d, np.eye(2), 1)
    with pytest.raises(ValueError):
        triangular_representations(d, np.zeros((1, 2, 2)), -1)


def test_representation_restriction_compatibility():
    # the leading (j+1)-block corner of the order-n representation is the order-j one
    rng = np.random.default_rng(21)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    rep3 = triangular_representation(derivative_chain(d, x, 3))
    for j in range(3):
        repj = triangular_representation(derivative_chain(d, x, j))
        k = 3 * (j + 1)
        np.testing.assert_array_equal(rep3[:k, :k], repj)


def test_representation_shift_invariance():
    # D and D + cI induce identical chains and identical representations
    rng = np.random.default_rng(22)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    rep = triangular_representation(derivative_chain(d, x, 2))
    rep_shifted = triangular_representation(derivative_chain(d.shifted(-1.8), x, 2))
    assert operator_norm(rep - rep_shifted) <= DEFAULT_TOL.alg(
        (1 + d.norm()) ** 2, operator_norm(x)
    )


# ------------------------------------------------------- corner exponential


def test_corner_exponential_order_zero():
    d = eig_hermitian(np.diag([0.3, 0.9]))
    fwd, bwd = corner_exponential(d, 0)
    np.testing.assert_array_equal(fwd, np.eye(2))
    np.testing.assert_array_equal(bwd, np.eye(2))


def test_corner_exponential_order_one_hand():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    fwd, bwd = corner_exponential(d, 1)
    expected = np.eye(4, dtype=complex)
    expected[0:2, 2:4] = 1j * d.base
    np.testing.assert_allclose(fwd, expected, atol=1e-15)
    expected[0:2, 2:4] = -1j * d.base
    np.testing.assert_allclose(bwd, expected, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 5))
def test_corner_exponential_inverse(n):
    rng = np.random.default_rng(30 + n)
    d = rng_generator(rng, 3)
    fwd, bwd = corner_exponential(d, n)
    dim = 3 * (n + 1)
    assert operator_norm(fwd @ bwd - np.eye(dim)) <= 1e-10 * (1 + operator_norm(fwd))


def test_corner_exponential_shifted():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    fwd, _ = corner_exponential(d, 1, shift=1.0)
    np.testing.assert_allclose(fwd[:2, 2:], 1j * (d.base + np.eye(2)), atol=1e-15)


def _kron_corner_exponential(d, n, shift=0.0):
    """exp(+-S) as dense power series of S = kron(J, i(D + shift)):
    an oracle that shares no block arithmetic with ``corner_exponential``."""
    s = np.kron(nilpotent_shift(n), 1j * (d.base + shift * np.eye(d.dim)))
    dim = d.dim * (n + 1)
    fwd, bwd = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
    pow_fwd, pow_bwd = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
    for j in range(1, n + 1):
        pow_fwd = pow_fwd @ s
        pow_bwd = pow_bwd @ (-s)
        fwd += pow_fwd / math.factorial(j)
        bwd += pow_bwd / math.factorial(j)
    return fwd, bwd


@pytest.mark.parametrize("shift", [0.0, -1.3])
@pytest.mark.parametrize("n", range(5))
def test_corner_exponential_matches_kron_series_oracle(n, shift):
    rng = np.random.default_rng(70 + n)
    d = rng_generator(rng, 4)
    fwd, bwd = corner_exponential(d, n, shift=shift)
    oracle = _kron_corner_exponential(d, n, shift)
    for got, want in zip((fwd, bwd), oracle):
        scale = np.abs(want).max()
        for i in range(n + 1):
            for j in range(n + 1):
                if j < i:
                    assert not np.any(block(got, 4, i, j))
                else:
                    np.testing.assert_allclose(block(got, 4, i, j), block(want, 4, i, j), rtol=0, atol=1e-14 * scale)


_spectra = st.lists(
    st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0, allow_nan=False)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    _spectra,
    st.integers(0, 4),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False)),
    st.integers(0, 2**32 - 1),
)
@example([0.7], 3, 0.0, 0)  # dimension 1
@example([0.0, 0.0, 0.0], 2, 0.0, 1)  # D = 0
@example([0.0, 0.0], 3, -1.5, 2)  # D = 0, shifted
@example([-2.0, -2.0, 1.0, 1.0], 4, 0.5, 3)  # repeated and negative eigenvalues
def test_corner_exponential_norm_matches_dense_norms(eigenvalues, n, shift, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng_operator(rng, len(eigenvalues)))
    d = eig_hermitian((u * np.asarray(eigenvalues)) @ u.conj().T)
    # a shifted exponential is the exponential of the shifted generator
    shifted = d.shifted(shift)
    fwd, bwd = corner_exponential(shifted, n)
    closed = corner_exponential_norm(shifted, n)
    assert closed == pytest.approx(operator_norm(fwd), rel=1e-13, abs=0)
    assert closed == pytest.approx(operator_norm(bwd), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", (0, 1, 2, 3, 5))
@pytest.mark.parametrize("radius", (0.0, 0.7, 13.0))
def test_corner_exponential_norm_is_bitwise_the_eye_sum(radius, n):
    # exp(rJ) by superdiagonal index holds the same values as the sum of
    # n + 1 shifted identities it replaced
    d = eig_hermitian(np.diag([-radius, radius / 2]))
    exp_rj = sum(np.eye(n + 1, k=j) * radius**j / math.factorial(j) for j in range(n + 1))
    assert corner_exponential_norm(d, n) == operator_norm(exp_rj)


# ------------------------------------------------------- conjugation identity


def test_conjugation_identity_trivial():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    report = conjugation_identity_check(derivative_chain(d, np.eye(2), 2))
    assert report.passed and report.residuals[0] <= 1e-13


def test_conjugation_identity_random_2x2():
    rng = np.random.default_rng(31)
    d = rng_generator(rng, 2)
    report = conjugation_identity_check(derivative_chain(d, rng_operator(rng, 2), 1))
    assert report.passed and report.residuals[0] <= 1e-10


def test_conjugation_identity_circle_n3():
    d = circle_generator(4)  # dimension 9
    s = circle_shift(4, 1)
    report = conjugation_identity_check(derivative_chain(d, s, 3))
    assert report.passed and report.residuals[0] <= 1e-8
    # the tolerance is decided by the closed-form norm of exp(+-S), reported
    exp_norm = report.details["exp_norm"]
    assert exp_norm == corner_exponential_norm(d, 3)
    assert report.tolerance == DEFAULT_TOL.alg(exp_norm, operator_norm(s), exp_norm)


# ----------------------------------------------------------- homomorphism


def test_homomorphism_identity_pair():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    cx = derivative_chain(d, np.eye(2), 2)
    report = homomorphism_check(cx, cx)
    assert report.passed and report.residuals[0] <= 1e-14


def test_homomorphism_random_pairs():
    rng = np.random.default_rng(32)
    d = rng_generator(rng, 3)
    cx = derivative_chain(d, rng_operator(rng, 3), 2)
    cy = derivative_chain(d, rng_operator(rng, 3), 2)
    report = homomorphism_check(cx, cy)
    assert report.passed and report.residuals[0] <= 1e-9 * (1 + chain_norm(cx) * chain_norm(cy))


def test_homomorphism_circle_shift_product():
    # S_1 S_2 = S_3 as truncated matrices, and its derivatives are (3i)^j S_3
    n_modes = 4
    d = circle_generator(n_modes)
    s1, s2, s3 = (circle_shift(n_modes, k) for k in (1, 2, 3))
    np.testing.assert_array_equal(s1 @ s2, s3)
    cx = derivative_chain(d, s1, 2)
    cy = derivative_chain(d, s2, 2)
    report = homomorphism_check(cx, cy)
    assert report.passed and report.residuals[0] <= 1e-9
    rep = triangular_representation(derivative_chain(d, s3, 2))
    for j in range(3):
        np.testing.assert_allclose(
            block(rep, 2 * n_modes + 1, 0, j), (3j) ** j * s3 / math.factorial(j), atol=1e-12
        )


def test_homomorphism_rejects_mismatched_chains():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    d2 = eig_hermitian(np.diag([0.0, 2.0]))
    with pytest.raises(ValueError):
        homomorphism_check(derivative_chain(d, np.eye(2), 1), derivative_chain(d, np.eye(2), 2))
    with pytest.raises(ValueError):
        homomorphism_check(derivative_chain(d, np.eye(2), 1), derivative_chain(d2, np.eye(2), 1))


# ------------------------------------------------------------ norm sandwich


def test_norm_sandwich_identity():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    report = norm_sandwich_check(derivative_chain(d, np.eye(2), 2))
    assert report.passed
    assert report.details["chain_norm"] == pytest.approx(1.0)
    assert report.details["rep_norm"] == pytest.approx(1.0)


def test_norm_sandwich_circle_values():
    d = circle_generator(2)
    s = circle_shift(2, 1)
    report = norm_sandwich_check(derivative_chain(d, s, 2))
    assert report.passed
    assert report.details["chain_norm"] == pytest.approx(2.5, abs=1e-12)
    assert 2.5 / 3 - 1e-12 <= report.details["rep_norm"] <= 2.5 + 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_norm_sandwich_sweep(seed):
    rng = np.random.default_rng(330 + seed)
    d = rng_generator(rng, 4)
    for n in range(4):
        report = norm_sandwich_check(derivative_chain(d, rng_operator(rng, 4), n))
        assert report.passed


def test_phi_hom_and_norm_sandwich_take_one_representation_norm(monkeypatch):
    # the scenario's chain of x is built once, and the norm of its
    # representation is one operator_norm call shared by both checks
    config = ScenarioConfig.from_dict({
        "scenario": {"kind": "random", "N": 5}, "n": 2, "seed": 3,
        "checks": ["phi_hom", "norm_sandwich"],
    })
    data = build_scenario(config)
    rep = triangular_representation(derivative_chain(data.generator, data.x, data.n))
    norm, seen = core.operator_norm, []

    def counting(a):
        a = np.asarray(a)
        seen.extend(m.shape == rep.shape and np.array_equal(m, rep) for m in a.reshape((-1,) + a.shape[-2:]))
        return norm(a)

    for module in (core, derivation, triangular):
        monkeypatch.setattr(module, "operator_norm", counting)
    report = run_checks(config)
    assert report.overall_pass and len(report.results) == 2
    assert sum(seen) == 1


# ------------------------------------------------------------- ad expansion


def operand_chains(*ops):
    """Chains of order 0 of the operands, under the generator I: the ad
    identity reads only each operand and its norm."""
    d = eig_hermitian(np.eye(len(ops[0])))
    return [derivative_chain(d, a, 0) for a in ops]


def test_ad_expansion_trivial_orders():
    rng = np.random.default_rng(34)
    s, b = rng_operator(rng, 3), rng_operator(rng, 3)
    assert ad_expansion_check(*operand_chains(s, b), 0).residuals[0] <= 1e-14
    # n = 1: [s, b] + b s = s b by hand
    assert ad_expansion_check(*operand_chains(s, b), 1).passed


@pytest.mark.parametrize("n", range(2, 6))
def test_ad_expansion_random(n):
    rng = np.random.default_rng(340 + n)
    s, b = rng_operator(rng, 4), rng_operator(rng, 4)
    report = ad_expansion_check(*operand_chains(s, b), n)
    assert report.passed
    assert report.residuals[0] <= 1e-10 * (1 + operator_norm(s) ** n * operator_norm(b))
