"""Tests for the commutator-derivative calculus.

The main independent oracle is the truncated circle shift: a direct
matrix-product computation shows D S_k - S_k D = k S_k, so every
derivative of S_k has the closed form (ik)^j S_k.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opderiv import derivation, triangular
from opderiv.core import (
    DEFAULT_TOL,
    DimensionMismatch,
    SelfAdjointGenerator,
    band_groups,
    eig_hermitian,
    operator_norm,
)
from opderiv.derivation import (
    automorphism,
    band_derivation,
    band_embed,
    binomial_derivative,
    central_difference_derivative,
    central_difference_scalar,
    chain_norm,
    commutator_derivative,
    derivative_chain,
    iterated_derivative,
    leibniz_check,
    lipschitz_check,
    uniform_convergence_check,
)
from opderiv.harness import _CHECKS, ScenarioData, _check_band_eq
from opderiv.reflexivity import VonNeumannAlgebraSpec
from opderiv.scenarios import circle_generator, circle_shift, random_scenario


def rng_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rng_generator(rng, n, spread=3.0):
    z = rng_operator(rng, n)
    return eig_hermitian((z + z.conj().T) / 2 * spread)


# -------------------------------------------------------------- automorphism


def test_automorphism_t0_and_identity():
    rng = np.random.default_rng(0)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    np.testing.assert_allclose(automorphism(d, x, 0.0), x, atol=1e-14)
    np.testing.assert_allclose(automorphism(d, np.eye(3), 1.3), np.eye(3), atol=1e-13)


def test_automorphism_hand_2x2():
    # e^{itD} x e^{-itD} with D = diag(0,1): the (0,1) entry picks up e^{-it}
    d = eig_hermitian(np.diag([0.0, 1.0]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.3, -1.2, 7.0):
        expected = np.array([[0.0, np.exp(-1j * t)], [0.0, 0.0]])
        np.testing.assert_allclose(automorphism(d, x, t), expected, atol=1e-14)


def test_automorphism_norm_preserving_and_multiplicative():
    rng = np.random.default_rng(1)
    d = rng_generator(rng, 4)
    x, y = rng_operator(rng, 4), rng_operator(rng, 4)
    t = 0.7
    assert abs(operator_norm(automorphism(d, x, t)) - operator_norm(x)) <= 1e-12
    lhs = automorphism(d, x @ y, t)
    rhs = automorphism(d, x, t) @ automorphism(d, y, t)
    assert operator_norm(lhs - rhs) <= DEFAULT_TOL.alg(operator_norm(x), operator_norm(y))


@pytest.mark.parametrize("dim", [1, 4])
def test_automorphism_stack_matches_scalar_calls(dim):
    rng = np.random.default_rng(40 + dim)
    d = rng_generator(rng, dim)
    x = rng_operator(rng, dim)
    ts = np.concatenate([[0.0, 0.1, -10.0], rng.uniform(-10, 10, size=6)])
    stack = automorphism(d, x, ts)
    assert stack.shape == (len(ts), dim, dim)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(stack[k], automorphism(d, x, t), rtol=1e-13, atol=0)


def test_automorphism_empty_and_zero_dimensional_times():
    rng = np.random.default_rng(45)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    assert automorphism(d, x, np.array([])).shape == (0, 3, 3)
    zero_d = automorphism(d, x, np.array(1.3))
    assert zero_d.shape == (3, 3)
    np.testing.assert_array_equal(zero_d, automorphism(d, x, 1.3))


def test_automorphism_dimension_mismatch():
    d = eig_hermitian(np.eye(2))
    with pytest.raises(DimensionMismatch):
        automorphism(d, np.eye(3), 0.1)


# ------------------------------------------------------ commutator derivative


def test_commutator_trivial_cases():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    assert operator_norm(commutator_derivative(d, np.eye(2))) == 0.0
    assert operator_norm(commutator_derivative(d, np.diag([2.0, 5.0]))) == 0.0


def test_commutator_hand_2x2():
    # Dx - xD = -[[0,1],[0,0]] for D = diag(0,1), so i[D,x] = [[0,-i],[0,0]]
    d = eig_hermitian(np.diag([0.0, 1.0]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        commutator_derivative(d, x), np.array([[0.0, -1j], [0.0, 0.0]]), atol=1e-15
    )


def test_commutator_star_compatibility():
    # the derivative is a *-map: i[D, x*] = (i[D, x])*; equivalently the
    # plain commutator satisfies [D, x*] = -([D, x])*
    rng = np.random.default_rng(2)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    lhs = commutator_derivative(d, x.conj().T)
    rhs = commutator_derivative(d, x).conj().T
    assert operator_norm(lhs - rhs) <= DEFAULT_TOL.alg(d.norm(), operator_norm(x))
    plain = d.base @ x - x @ d.base
    plain_star = d.base @ x.conj().T - x.conj().T @ d.base
    assert operator_norm(plain_star + plain.conj().T) <= DEFAULT_TOL.alg(
        d.norm(), operator_norm(x)
    )


# ------------------------------------------------------------- circle oracle


def circle_shift_commutator_oracle(n_modes, k):
    """Direct matrix-product check that D S_k - S_k D = k S_k."""
    d_mat = np.diag(np.arange(-n_modes, n_modes + 1, dtype=complex))
    s = circle_shift(n_modes, k)
    np.testing.assert_array_equal(d_mat @ s - s @ d_mat, k * s)
    return s


@pytest.mark.parametrize("k", [1, 2, 3, -2])
def test_circle_shift_closed_form(k):
    n_modes = 4
    s = circle_shift_commutator_oracle(n_modes, k)
    d = circle_generator(n_modes)
    for j in range(1, 5):
        expected = (1j * k) ** j * s
        assert operator_norm(iterated_derivative(d, s, j) - expected) == 0.0


def test_iterated_is_repeated_commutator():
    rng = np.random.default_rng(3)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    twice = commutator_derivative(d, commutator_derivative(d, x))
    np.testing.assert_array_equal(iterated_derivative(d, x, 2), twice)


def test_iterated_order_validation():
    d = eig_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        iterated_derivative(d, np.eye(2), 0)
    with pytest.raises(ValueError):
        iterated_derivative(d, np.eye(2), 9)


# --------------------------------------------------------------- binomial sum


def test_binomial_k1_equals_commutator():
    rng = np.random.default_rng(4)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    np.testing.assert_allclose(
        binomial_derivative(d, x, 1), commutator_derivative(d, x), atol=1e-14
    )


def test_binomial_matches_iterated_small_cases():
    rng = np.random.default_rng(5)
    d = rng_generator(rng, 3)
    x = rng_operator(rng, 3)
    assert operator_norm(binomial_derivative(d, x, 2) - iterated_derivative(d, x, 2)) <= 1e-10
    d3 = eig_hermitian(np.diag([0.0, 1.0, 2.0]))
    ones = np.ones((3, 3))
    assert operator_norm(binomial_derivative(d3, ones, 3) - iterated_derivative(d3, ones, 3)) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_binomial_matches_iterated_sweep(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 7))
    d = rng_generator(rng, n)
    x = rng_operator(rng, n)
    for k in range(1, 6):
        resid = operator_norm(binomial_derivative(d, x, k) - iterated_derivative(d, x, k))
        assert resid <= DEFAULT_TOL.alg(d.norm() ** k, operator_norm(x))


# ------------------------------------------------------------------- chains


def test_chain_order_zero_and_identity():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    chain = derivative_chain(d, np.eye(2), 0)
    assert chain.order == 0 and chain.derivatives == ()
    chain3 = derivative_chain(d, np.eye(2), 3)
    assert all(operator_norm(a) == 0.0 for a in chain3.derivatives)


def test_chain_circle_closed_form():
    d = circle_generator(3)
    s = circle_shift(3, 2)
    chain = derivative_chain(d, s, 2)
    np.testing.assert_array_equal(chain.derivatives[0], 2j * s)
    np.testing.assert_array_equal(chain.derivatives[1], (2j) ** 2 * s)
    for j in (1, 2):  # the recursion delta^j(x) = i[D, delta^(j-1)(x)]
        residual = chain.delta(j) - commutator_derivative(d, chain.delta(j - 1))
        assert operator_norm(residual) <= 1e-14


def test_derivative_chain_validates_its_input_once(monkeypatch):
    # one as_operator per chain: the derivatives are computed from the
    # validated x and are not validated again, and the stacked representation
    # shares the same chain helper, validating nothing per element
    calls = []
    validate = derivation.as_operator

    def counting(a):
        calls.append(np.shape(a))
        return validate(a)

    monkeypatch.setattr(derivation, "as_operator", counting)
    d = circle_generator(2)
    s = circle_shift(2, 1)
    chain = derivative_chain(d, s, 5)
    assert calls == [(5, 5)]
    for j in range(1, 6):
        np.testing.assert_allclose(chain.delta(j), 1j**j * s, atol=1e-12)
    stack = triangular.triangular_representations(d, np.stack([s, 2 * s]), 5)
    assert len(calls) == 1
    np.testing.assert_array_equal(stack[1], 2 * stack[0])
    np.testing.assert_array_equal(stack[0], triangular.triangular_representation(chain).matrix)


def test_calculus_checks_validate_each_operand_once(monkeypatch):
    # i[D, .] comes from the chain helper on operands already validated: the
    # Leibniz check validates x and y, the Lipschitz and convergence checks x
    # and the one public call they make on it (band_embed, automorphism)
    calls = []
    validate = derivation.as_operator

    def counting(a):
        calls.append(np.shape(a))
        return validate(a)

    rng = np.random.default_rng(21)
    d, x, y = rng_generator(rng, 4), rng_operator(rng, 4), rng_operator(rng, 4)
    lhs = commutator_derivative(d, x @ y)
    rhs = commutator_derivative(d, x) @ y + x @ commutator_derivative(d, y)
    monkeypatch.setattr(derivation, "as_operator", counting)
    report = leibniz_check(d, x, y)
    assert len(calls) == 2 and report.residuals == [operator_norm(lhs - rhs)]
    for check in (lambda: lipschitz_check(d, x, [0.5, -1.0]), lambda: uniform_convergence_check(d, x)):
        calls.clear()
        assert check().passed and len(calls) == 2
    small = np.eye(3)
    for check in (
        lambda: leibniz_check(d, small, small),
        lambda: leibniz_check(d, x, small),
        lambda: lipschitz_check(d, small, [0.5]),
        lambda: uniform_convergence_check(d, small),
    ):
        with pytest.raises(DimensionMismatch):
            check()


def test_chain_norm_values():
    d = circle_generator(2)
    assert chain_norm(derivative_chain(d, np.eye(5), 3)) == pytest.approx(1.0)
    assert chain_norm(derivative_chain(d, np.zeros((5, 5)), 2)) == 0.0
    # shift: all derivatives have norm 1, so 1 + 1 + 1/2
    s = circle_shift(2, 1)
    assert chain_norm(derivative_chain(d, s, 2)) == pytest.approx(2.5, abs=1e-12)


def test_chain_norm_matches_per_order_sum():
    rng = np.random.default_rng(48)
    d = rng_generator(rng, 4)
    chain = derivative_chain(d, rng_operator(rng, 4), 3)
    oracle = sum(operator_norm(chain.delta(j)) / math.factorial(j) for j in range(4))
    assert chain_norm(chain) == pytest.approx(oracle, rel=1e-13, abs=0)


def test_chain_norm_dominates_operator_norm():
    rng = np.random.default_rng(9)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    assert chain_norm(derivative_chain(d, x, 3)) >= operator_norm(x)


@pytest.mark.parametrize("seed", range(5))
def test_chain_norm_submultiplicative(seed):
    rng = np.random.default_rng(900 + seed)
    d = rng_generator(rng, 4)
    x, y = rng_operator(rng, 4), rng_operator(rng, 4)
    for n in range(4):
        cx = chain_norm(derivative_chain(d, x, n))
        cy = chain_norm(derivative_chain(d, y, n))
        cxy = chain_norm(derivative_chain(d, x @ y, n))
        assert cxy <= cx * cy + 1e-9


# ------------------------------------------------------------- band matrices


def test_band_embed_two_scalar_bands():
    d = eig_hermitian(np.diag([0.5, 1.5]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    bm = band_embed(d, x)
    assert bm.slices == {1: slice(0, 1), 2: slice(1, 2)}
    # scalar blocks are just the entries (eigenbasis is the standard basis)
    assert bm.blocks[(1, 1)].shape == (1, 1)
    np.testing.assert_allclose(bm.blocks[(1, 2)], [[2.0]], atol=1e-14)
    np.testing.assert_allclose(bm.blocks[(2, 1)], [[3.0]], atol=1e-14)


def test_band_embed_identity_and_single_band():
    d = eig_hermitian(np.diag([0.5, 1.5]))
    bm = band_embed(d, np.eye(2))
    assert operator_norm(bm.blocks[(1, 2)]) <= 1e-14
    assert operator_norm(bm.blocks[(2, 1)]) <= 1e-14
    single = eig_hermitian(np.diag([0.2, 0.7]))
    x = np.array([[1.0, 1.0], [0.0, 2.0]])
    bm2 = band_embed(single, x)
    assert bm2.slices == {1: slice(0, 2)}
    np.testing.assert_allclose(bm2.assemble(), x, atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_band_embed_reassembly(seed):
    rng = np.random.default_rng(40 + seed)
    d = rng_generator(rng, 5, spread=2.5)
    x = rng_operator(rng, 5)
    bm = band_embed(d, x)
    assert operator_norm(bm.assemble() - x) <= DEFAULT_TOL.alg(operator_norm(x))


def test_band_derivation_scalar_oracle():
    # single nonzero block: i(d_r y - y d_c) = i(0.5 - 1.5) = -i
    d = eig_hermitian(np.diag([0.5, 1.5]))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    der = band_derivation(band_embed(d, x), 1)
    np.testing.assert_allclose(der.blocks[(1, 2)], [[-1j]], atol=1e-14)
    assert operator_norm(der.blocks[(1, 1)]) <= 1e-14
    assert operator_norm(der.blocks[(2, 2)]) <= 1e-14


def test_band_derivation_identity_is_zero():
    d = eig_hermitian(np.diag([0.5, 1.5]))
    der = band_derivation(band_embed(d, np.eye(2)), 1)
    assert operator_norm(der.assemble()) <= 1e-14


@pytest.mark.parametrize("k", range(1, 6))
def test_band_derivation_matches_iterated(k):
    rng = np.random.default_rng(70 + k)
    d = rng_generator(rng, 4, spread=2.0)
    x = rng_operator(rng, 4)
    resid = operator_norm(
        band_derivation(band_embed(d, x), k).assemble() - iterated_derivative(d, x, k)
    )
    assert resid <= 1e-10 * (1.0 + d.norm() ** k * operator_norm(x))


def _per_block_derivation(d, bm, k):
    """The band derivation evaluated block by block, as a loop over band pairs."""
    groups = band_groups(d.eigenvalues)
    out = {}
    for (r, c), y in bm.blocks.items():
        lr, lc = d.eigenvalues[groups[r]], d.eigenvalues[groups[c]]
        acc = np.zeros_like(y)
        for j in range(k + 1):
            weight = math.comb(k, j) * ((-1) ** (k - j))
            acc += weight * ((lr**j)[:, None] * y * (lc ** (k - j))[None, :])
        out[(r, c)] = (1j**k) * acc
    return out


def _oracle_scenarios():
    for dim in (4, 12, 25):
        yield random_scenario(dim, seed=dim)
    d = circle_generator(3)
    yield d, rng_operator(np.random.default_rng(9), d.dim)


@pytest.mark.parametrize("case", range(4))
def test_band_derivation_matches_per_block_oracle_exactly(case):
    d, x = list(_oracle_scenarios())[case]
    bm = band_embed(d, x)
    groups = band_groups(d.eigenvalues)
    # the slices are ascending, contiguous and tile the d x d array
    slices = list(bm.slices.values())
    assert list(bm.slices) == sorted(bm.slices)
    assert slices[0].start == 0 and slices[-1].stop == d.dim
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert len(bm.blocks) == len(slices) ** 2
    for (r, c), block in bm.blocks.items():
        assert block.shape == (len(groups[r]), len(groups[c]))
        assert np.shares_memory(block, bm.coeffs)
    for k in range(1, 6):
        der = band_derivation(bm, k)
        expected = _per_block_derivation(d, bm, k)
        for key, block in der.blocks.items():
            assert np.array_equal(block, expected[key]), (k, key)


def test_band_oracle_scenarios_have_multi_eigenvalue_bands():
    assert any(
        len(idx) > 1 for d, _ in _oracle_scenarios() for idx in band_groups(d.eigenvalues).values()
    )


_eigenvalue = st.one_of(
    st.integers(-3, 4).map(float),
    st.tuples(st.integers(-3, 4), st.sampled_from([-1e-12, 1e-12])).map(sum),
    st.floats(-3.0, 4.0, allow_nan=False),
)
# drawn values, some of them repeated, ascending
_spectra = st.tuples(st.lists(_eigenvalue, min_size=1, max_size=8), st.integers(0, 3)).map(
    lambda pair: sorted(pair[0] + pair[0][: pair[1]])
)


def _generator_with_spectrum(eigenvalues, rng):
    """D = U diag(eigenvalues) U* for a random unitary U, keeping the drawn eigenvalues."""
    n = len(eigenvalues)
    u, _ = np.linalg.qr(rng_operator(rng, n))
    base = (u * np.asarray(eigenvalues)) @ u.conj().T
    return SelfAdjointGenerator((base + base.conj().T) / 2, eigenvalues, u)


@settings(max_examples=200, deadline=None, database=None)
@given(_spectra, st.sampled_from(["random", "zero", "polynomial"]), st.integers(0, 2**32 - 1))
@example([0.5], "random", 0)
@example([0.1, 0.5, 1.0, 1.0], "random", 1)
@example([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0], "polynomial", 2)
def test_band_layer_properties(eigenvalues, x_kind, seed):
    rng = np.random.default_rng(seed)
    d = _generator_with_spectrum(eigenvalues, rng)
    if x_kind == "random":
        x = rng_operator(rng, d.dim)
    elif x_kind == "zero":
        x = np.zeros((d.dim, d.dim), dtype=complex)
    else:
        # a polynomial in D commutes with D
        x = sum(c * np.linalg.matrix_power(d.base, p) for p, c in enumerate(rng.standard_normal(3)))
    bm = band_embed(d, x)
    for r, s in bm.slices.items():
        assert np.all((r - 1 < d.eigenvalues[s]) & (d.eigenvalues[s] <= r))
    data = ScenarioData("hypothesis", d, x, x, VonNeumannAlgebraSpec("full", d.dim), 1, seed)
    report = _check_band_eq(data, DEFAULT_TOL)
    assert report.passed, report.residuals


# ||D|| <= 3 and N <= 5: integer eigenvalues (band ties), near-integers,
# repeats, dimension 1
_calculus_spectra = st.tuples(
    st.lists(_eigenvalue.filter(lambda lam: abs(lam) <= 3.0), min_size=1, max_size=4),
    st.integers(0, 1),
).map(lambda pair: sorted(pair[0] + pair[0][: pair[1]]))


def _calculus_operand(d, x_kind, rng):
    if x_kind == "random":
        return rng_operator(rng, d.dim)
    if x_kind == "zero":
        return np.zeros((d.dim, d.dim), dtype=complex)
    # a polynomial in D commutes with D
    return sum(c * np.linalg.matrix_power(d.base, p) for p, c in enumerate(rng.standard_normal(3)))


# Known defects of the finite-difference criteria (ROADMAP, "fd checks judged
# by their Taylor remainder"): fd_first and fd_higher compare the error with
# the absolute tol_fd although it grows like ||D||^3 ||x|| (the [-3, 1, 1, 3, 3]
# example: error 6.7e-4, order 1.97), and fd_higher's degenerate test omits the
# 1/h^m roundoff of its stencil (D = 2I: every derivative is 0, yet order 3
# gives an error of 3e-8 above the 2.5e-8 cut).  Strict, so the fix that makes
# the property hold must remove this mark.
_FD_CRITERIA_DEFECT = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="fd criteria FAIL where the identity holds"
)


@pytest.mark.parametrize(
    "check",
    [
        "lipschitz",
        "uniform_conv",
        pytest.param("fd_first", marks=_FD_CRITERIA_DEFECT),
        pytest.param("fd_higher", marks=_FD_CRITERIA_DEFECT),
    ],
)
@settings(max_examples=60, deadline=None, database=None)
@given(
    eigenvalues=_calculus_spectra,
    x_kind=st.sampled_from(["random", "zero", "polynomial"]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(eigenvalues=[0.5], x_kind="random", n=1, seed=0)
@example(eigenvalues=[-3.0, 1.0, 1.0, 3.0, 3.0], x_kind="random", n=3, seed=1)
@example(eigenvalues=[1.0 - 1e-12, 1.0, 1.0 + 1e-12], x_kind="polynomial", n=2, seed=2)
@example(eigenvalues=[2.0, 2.0], x_kind="random", n=3, seed=3)
@example(eigenvalues=[0.0, 1e-9], x_kind="random", n=1, seed=0)
def test_calculus_check_properties(check, eigenvalues, x_kind, n, seed):
    rng = np.random.default_rng(seed)
    d = _generator_with_spectrum(eigenvalues, rng)
    x = _calculus_operand(d, x_kind, rng)
    data = ScenarioData("hypothesis", d, x, x, VonNeumannAlgebraSpec("full", d.dim), n, seed)
    try:
        report = _CHECKS[check](data, DEFAULT_TOL)
    except (ArithmeticError, ValueError):
        # a typed refusal is allowed for the finite-difference probes only
        if check in ("lipschitz", "uniform_conv"):
            raise
        return
    assert report.passed, (report.residuals, report.details)


# ------------------------------------------------------------ finite differences


def test_fd_derivative_identity_is_exact_zero():
    d = eig_hermitian(np.diag([0.0, 2.0]))
    est = central_difference_derivative(d, np.eye(2), 1e-3)
    assert operator_norm(est) <= 1e-12


def test_fd_derivative_circle_error_bound():
    # alpha_h(S_1) = e^{ih} S_1, so the estimate is i sin(h)/h S_1;
    # error |sin(h)/h - 1| = h^2/6 + O(h^4)
    d = circle_generator(3)
    s = circle_shift(3, 1)
    h = 1e-3
    err = operator_norm(central_difference_derivative(d, s, h) - 1j * s)
    assert err <= 1e-6
    assert err == pytest.approx(abs(np.sin(h) / h - 1.0), rel=1e-3)


def test_fd_derivative_second_order():
    rng = np.random.default_rng(11)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    exact = commutator_derivative(d, x)
    h = 2e-3
    e1 = operator_norm(central_difference_derivative(d, x, h) - exact)
    e2 = operator_norm(central_difference_derivative(d, x, h / 2) - exact)
    assert np.log2(e1 / e2) >= 1.9


def test_fd_scalar_trivial_and_first_order():
    rng = np.random.default_rng(12)
    d = rng_generator(rng, 3)
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    eta /= np.linalg.norm(eta)
    assert abs(central_difference_scalar(d, np.eye(3), 1, xi, eta)) <= 1e-10
    x = rng_operator(rng, 3)
    est = central_difference_scalar(d, x, 1, xi, eta, t0=0.0)
    exact = complex(np.vdot(eta, commutator_derivative(d, x) @ xi))
    assert abs(est - exact) <= DEFAULT_TOL.tol_fd


def test_fd_scalar_second_order_circle():
    d = circle_generator(2)
    s = circle_shift(2, 1)
    xi = np.zeros(5, dtype=complex)
    xi[0] = 1.0
    t0 = 0.4
    est = central_difference_scalar(d, s, 2, xi, xi, t0=t0)
    exact = complex(np.vdot(xi, automorphism(d, (1j) ** 2 * s, t0) @ xi))
    assert abs(est - exact) <= DEFAULT_TOL.tol_fd


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fd_scalar_matches_per_point_oracle(dim, n):
    rng = np.random.default_rng(10 * dim + n)
    d = rng_generator(rng, dim)
    x = rng_operator(rng, dim)
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    eta /= np.linalg.norm(eta)
    t0, h = 0.3, 1e-2
    total = 0.0 + 0.0j
    for j in range(n + 1):
        alpha = automorphism(d, x, t0 + (n / 2.0 - j) * h)
        total += (-1) ** j * math.comb(n, j) * complex(np.vdot(eta, alpha @ xi))
    oracle = total / h**n
    est = central_difference_scalar(d, x, n, xi, eta, t0, h)
    assert est == pytest.approx(oracle, rel=1e-13, abs=0)


def test_fd_derivative_matches_two_scalar_calls():
    rng = np.random.default_rng(46)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    h = 3e-3
    oracle = (automorphism(d, x, h) - automorphism(d, x, -h)) / (2.0 * h)
    np.testing.assert_allclose(central_difference_derivative(d, x, h), oracle, rtol=1e-13, atol=0)


def test_fd_scalar_validates_unit_vectors():
    d = eig_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        central_difference_scalar(d, np.eye(2), 1, np.array([2.0, 0.0]), np.array([1.0, 0.0]))


# ------------------------------------------------------------------- checks


def test_leibniz_check_passes():
    rng = np.random.default_rng(13)
    d = rng_generator(rng, 4)
    report = leibniz_check(d, rng_operator(rng, 4), rng_operator(rng, 4), instance_id="case-1")
    assert report.passed and report.check == "leibniz"
    payload = report.to_json()
    assert {"check", "instance_id", "residuals", "tolerance", "pass"} <= set(payload)
    assert payload["instance_id"] == "case-1" and payload["pass"] is True


def test_lipschitz_identity_degenerate_pass():
    d = eig_hermitian(np.diag([0.0, 3.0]))
    report = lipschitz_check(d, np.eye(2), [0.0, 0.5, 10.0])
    assert report.passed and report.details["degenerate"]


def test_lipschitz_circle_ratio_approaches_one():
    # ||alpha_t(S_1) - S_1|| = |e^{it} - 1| = 2|sin(t/2)| <= |t|
    d = circle_generator(2)
    s = circle_shift(2, 1)
    report = lipschitz_check(d, s, [0.1, 1.0, 10.0])
    assert report.passed
    assert report.residuals[0] == pytest.approx(2 * np.sin(0.05) / 0.1, rel=1e-10)
    tiny = lipschitz_check(d, s, [1e-4])
    assert tiny.residuals[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_lipschitz_random_sweep(seed):
    rng = np.random.default_rng(130 + seed)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    report = lipschitz_check(d, x, rng.uniform(-10, 10, size=100))
    assert report.passed


def test_lipschitz_and_uniform_convergence_match_per_sample_oracle():
    rng = np.random.default_rng(47)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    ts = np.concatenate([[0.0], rng.uniform(-10, 10, size=7)])
    dx_norm = operator_norm(commutator_derivative(d, x))
    oracle = [operator_norm(automorphism(d, x, t) - x) / (dx_norm * abs(t)) for t in ts[1:]]
    residuals = lipschitz_check(d, x, ts).residuals
    # the eigenbasis form gives an exact 0 at t = 0, where the oracle has roundoff
    assert residuals[0] == 0.0
    np.testing.assert_allclose(residuals[1:], oracle, rtol=1e-13, atol=0)
    hs = [0.05 * 0.5**i for i in range(4)]
    dx = commutator_derivative(d, x)
    oracle = [operator_norm((automorphism(d, x, h) - x) / h - dx) for h in hs]
    np.testing.assert_allclose(uniform_convergence_check(d, x, hs).residuals, oracle, rtol=1e-13, atol=0)


def test_lipschitz_no_samples_passes_empty():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    report = lipschitz_check(d, np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    assert report.passed and report.residuals == [] and report.details["max_ratio"] == 0.0


def test_uniform_convergence_identity_degenerate():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    report = uniform_convergence_check(d, np.eye(2))
    assert report.passed and report.details["degenerate"]
    assert all(r <= 1e-12 for r in report.residuals)


def test_uniform_convergence_circle_scalar_residual():
    # residual = |(e^{ih} - 1)/h - i| for the basic shift
    d = circle_generator(2)
    s = circle_shift(2, 1)
    hs = [0.1 / 2**i for i in range(5)]
    report = uniform_convergence_check(d, s, hs)
    assert report.passed
    for h, r in zip(hs, report.residuals):
        assert r == pytest.approx(abs((np.exp(1j * h) - 1.0) / h - 1j), rel=1e-8)


def test_uniform_convergence_random_decay():
    rng = np.random.default_rng(14)
    d = rng_generator(rng, 4)
    x = (lambda z: (z + z.conj().T) / 2)(rng_operator(rng, 4))
    report = uniform_convergence_check(d, x)
    assert report.passed
    assert all(b < a for a, b in zip(report.residuals, report.residuals[1:]))
    assert all(o >= 0.9 for o in report.details["orders"])


def test_uniform_convergence_validates_sequence():
    d = eig_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        uniform_convergence_check(d, np.eye(2), [0.1, 0.2])


# --------------------------------------------------------------- invariants


@pytest.mark.parametrize("seed", range(4))
def test_leibniz_invariant_sweep(seed):
    rng = np.random.default_rng(1300 + seed)
    d = rng_generator(rng, 5)
    x, y = rng_operator(rng, 5), rng_operator(rng, 5)
    lhs = commutator_derivative(d, x @ y)
    rhs = commutator_derivative(d, x) @ y + x @ commutator_derivative(d, y)
    assert operator_norm(lhs - rhs) <= DEFAULT_TOL.alg(
        d.norm(), operator_norm(x), operator_norm(y)
    )


def test_shift_invariance_of_derivatives():
    # i[D + cI, x] = i[D, x]
    rng = np.random.default_rng(15)
    d = rng_generator(rng, 4)
    x = rng_operator(rng, 4)
    shifted = d.shifted(2.7)
    for k in range(1, 4):
        resid = operator_norm(iterated_derivative(shifted, x, k) - iterated_derivative(d, x, k))
        assert resid <= DEFAULT_TOL.alg((1 + d.norm()) ** k, operator_norm(x))
