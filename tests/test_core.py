"""Tests for the matrix substrate: eigendecomposition, unitary group,
band projections, subspaces, nullspace solving, JSON format, and the
package's exported names."""

import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import opderiv
from opderiv import core
from opderiv.core import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    OperatorSpace,
    Subspace,
    TolerancePolicy,
    as_operator,
    band_groups,
    eig_hermitian,
    frobenius_norm,
    load_matrix_json,
    load_operator,
    nullspace_of_constraints,
    operator_norm,
    save_operator,
    spectral_band_projections,
    unitary_group,
)
from oracles import (
    commutation_constraint,
    embedded,
    invariance_constraint,
    projection,
    space_of_vec_columns,
    spans_equal,
    subspace_distance,
    subspace_from_columns,
    vec,
)


def rng_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


# ---------------------------------------------------------------- tolerances


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(tol_alg=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(rank_cutoff=1.5)
    t = TolerancePolicy().replace(tol_alg=1e-7)
    assert t.tol_alg == 1e-7 and t.tol_eig == 1e-9
    with pytest.raises(TypeError, match="tol_fd"):
        TolerancePolicy(tol_fd=1e-4)
    assert t.alg(2.0, 3.0) == pytest.approx(1e-7 * 7.0)


def test_as_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


# ------------------------------------------------------------ eig_hermitian


def test_eig_identity():
    gen = eig_hermitian(np.eye(2))
    np.testing.assert_allclose(gen.eigenvalues, [1.0, 1.0])
    recon = (gen.eigenvectors * gen.eigenvalues) @ gen.eigenvectors.conj().T
    np.testing.assert_allclose(recon, np.eye(2), atol=1e-14)


def test_eig_already_diagonal():
    gen = eig_hermitian(np.diag([0.0, 1.0]))
    np.testing.assert_allclose(gen.eigenvalues, [0.0, 1.0])


def test_eig_pauli_x_hand_oracle():
    # hand 2x2 eigensolve: [[0,1],[1,0]] has eigenvalues -1, 1
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    gen = eig_hermitian(a)
    np.testing.assert_allclose(gen.eigenvalues, [-1.0, 1.0], atol=1e-14)
    recon = (gen.eigenvectors * gen.eigenvalues) @ gen.eigenvectors.conj().T
    assert operator_norm(a - recon) <= 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(5))
def test_eig_reconstruction_and_sorting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng_hermitian(rng, n)
    gen = eig_hermitian(a)
    assert np.all(np.diff(gen.eigenvalues) >= 0)
    recon = (gen.eigenvectors * gen.eigenvalues) @ gen.eigenvectors.conj().T
    assert operator_norm(a - recon) <= DEFAULT_TOL.eig(operator_norm(a))


@pytest.mark.parametrize("guard", ["hermitian", "unitary", "reconstruction"])
def test_generator_guards_judge_frobenius_norms(guard):
    # an error E = delta I has ||E||_2 = delta below the guard 1e-7 (1 +
    # max |lambda|) but ||E||_F = 3 delta above it: a Frobenius guard rejects it
    evals = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    guard_value = 1e-7 * (1 + evals.max())
    delta = 0.5 * guard_value
    base, evecs = np.diag(evals).astype(complex), np.eye(9, dtype=complex)
    ok = core.SelfAdjointGenerator(base, evals, evecs)
    assert ok.residual == 0.0
    if guard == "hermitian":
        base = base + 0.5j * delta * np.eye(9)  # base - base* = i delta I
    elif guard == "unitary":
        evecs = evecs * np.sqrt(1 + delta)  # V V* - I = delta I
        base = (evecs * evals) @ evecs.conj().T
    else:
        base = base + delta * np.eye(9)
    error = NotHermitian if guard == "hermitian" else ValueError
    with pytest.raises(error, match={"hermitian": "Hermitian", "unitary": "unitary"}.get(guard, "reconstruct")):
        core.SelfAdjointGenerator(base, evals, evecs)


def test_eig_hermitian_reports_the_generator_reconstruction_residual():
    rng = np.random.default_rng(44)
    a = rng_hermitian(rng, 6)
    gen = eig_hermitian(a)
    recon = (gen.eigenvectors * gen.eigenvalues) @ gen.eigenvectors.conj().T
    assert gen.residual == frobenius_norm(gen.base - recon)
    with pytest.raises(ArithmeticError, match="tol_eig"):
        eig_hermitian(a, DEFAULT_TOL.replace(tol_eig=gen.residual / (2 * (1 + operator_norm(a)))))


def test_generator_shifted():
    gen = eig_hermitian(np.diag([0.0, 1.0]))
    shifted = gen.shifted(2.5)
    np.testing.assert_allclose(shifted.eigenvalues, [2.5, 3.5])
    np.testing.assert_array_equal(shifted.eigenvectors, gen.eigenvectors)


# ------------------------------------------------------------ operator_norm


def test_operator_norm_cases():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    # singular values of the nilpotent shift: sqrt(eig(A*A)) = {1, 0}
    assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def _gram_bound(shape) -> float:
    """The relative error bound of ``operator_norm``'s docstring, (M + 1)(N + 1) eps."""
    m, n = shape[-2:]
    return (m + 1) * (n + 1) * np.finfo(float).eps


@pytest.mark.parametrize("shape", [(6, 4, 4), (3, 1, 1), (2, 3, 5, 5), (4, 6, 2)])
def test_operator_norm_stack_matches_per_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = operator_norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == shape[:-2]
    oracle = np.array([operator_norm(a) for a in stack.reshape(-1, *shape[-2:])])
    np.testing.assert_array_equal(norms.ravel(), oracle)
    # the largest singular value of LAPACK's SVD, within the documented bound
    svd = np.linalg.svd(stack, compute_uv=False)[..., 0]
    np.testing.assert_allclose(norms, svd, rtol=_gram_bound(shape), atol=0)


def _rank_one(rng, m, n):
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(u, v.conj())


_NORM_CASES = {
    "random_stack": lambda rng: rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7)),
    "rank_one": lambda rng: _rank_one(rng, 6, 6),
    "zero": lambda rng: np.zeros((4, 4), dtype=complex),
    "zero_in_stack": lambda rng: np.stack([np.zeros((3, 3)), rng.standard_normal((3, 3))]),
    "nilpotent": lambda rng: np.array([[0.0, 1.0], [0.0, 0.0]]),
    "tall": lambda rng: rng.standard_normal((3, 9, 4)) + 1j * rng.standard_normal((3, 9, 4)),
    "wide": lambda rng: rng.standard_normal((3, 4, 9)) + 1j * rng.standard_normal((3, 4, 9)),
    "tall_rank_one": lambda rng: _rank_one(rng, 8, 3),
    "dimension_1": lambda rng: rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1)),
    "row": lambda rng: rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6)),
    "column": lambda rng: rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)),
    "empty_stack": lambda rng: np.zeros((0, 3, 3), dtype=complex),
    "large_in_range": lambda rng: 1e140 * (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))),
    "small_in_range": lambda rng: 1e-140 * (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))),
    "scaled_up_1e200": lambda rng: 1e200 * (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))),
    "scaled_down_1e-200": lambda rng: 1e-200 * (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))),
    "mixed_scales": lambda rng: np.stack([1e-200 * np.eye(3), 1e200 * np.eye(3), np.eye(3)]),
}


@pytest.mark.parametrize("case", _NORM_CASES)
def test_operator_norm_matches_svd_within_the_documented_bound(case):
    a = _NORM_CASES[case](np.random.default_rng(17))
    norms = operator_norm(a)
    svd = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[..., 0]
    if a.ndim == 2:
        assert type(norms) is float
    else:
        assert isinstance(norms, np.ndarray) and norms.shape == a.shape[:-2]
    np.testing.assert_allclose(norms, svd, rtol=_gram_bound(a.shape), atol=0)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_operator_norm_takes_the_svd_outside_the_gram_range(scale, monkeypatch):
    # squares of entries beyond 2^+-500 overflow or underflow: the Gram
    # matrix reads inf or 0, so such a stack takes the SVD, exactly
    rng = np.random.default_rng(5)
    a = scale * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gram = a.conj().swapaxes(-1, -2) @ a
    assert not np.all(np.isfinite(gram)) or not np.any(gram)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    norms = operator_norm(a)
    assert not calls
    np.testing.assert_array_equal(norms, np.linalg.svd(a, compute_uv=False)[..., 0])
    assert operator_norm(a / scale) == pytest.approx(norms / scale, rel=_gram_bound(a.shape))
    assert len(calls) == 1


_EDGE_NORM_CASES = {
    # input, and the solver called: eigvalsh where the Gram diagonal vouches
    # for the input, the SVD where it does not, none for no entries
    "column_norm_2^500": (lambda: 2.0**500 * np.diag([1.0, 0.5, 0.25]), "eigvalsh"),
    "column_norm_2^501": (lambda: 2.0**501 * np.eye(3), "svd"),
    "entries_2^-499": (lambda: 2.0**-499 * np.eye(3), "eigvalsh"),
    # the largest |entry| is in range, but the diagonal cannot tell
    "entries_2^-500": (lambda: 2.0**-500 * np.eye(3), "svd"),
    # every square underflows to a zero diagonal
    "entries_1e-170": (lambda: np.full((3, 3), 1e-170), "svd"),
    "1e-170_in_stack": (lambda: np.stack([np.full((3, 3), 1e-170), np.eye(3)]), "svd"),
    "inf": (lambda: np.array([[np.inf, 1.0], [0.0, 1.0]]), "svd"),
    "nan": (lambda: np.array([[np.nan, 1.0], [0.0, 1.0]]), "svd"),
    "zero": (lambda: np.zeros((3, 3)), "eigvalsh"),
    "zero_in_stack": (lambda: np.stack([np.zeros((3, 3)), np.eye(3)]), "eigvalsh"),
    "zero_size_3x0": (lambda: np.zeros((3, 0)), None),
    "zero_size_0x3": (lambda: np.zeros((0, 3)), None),
    "zero_size_stack": (lambda: np.zeros((2, 0, 0)), None),
}


@pytest.mark.parametrize("case", _EDGE_NORM_CASES)
def test_operator_norm_decides_its_path_from_the_gram_diagonal(case, monkeypatch):
    # the Gram path is taken only where the diagonal of A*A vouches that no
    # square overflows or underflows (or the matrix is exactly zero), and its
    # value is bitwise sqrt(lambda_max(A*A)); elsewhere the value is the
    # SVD's, an error included, and a zero-size matrix has norm 0
    a = np.asarray(_EDGE_NORM_CASES[case][0](), dtype=complex)
    path = _EDGE_NORM_CASES[case][1]
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return counted

    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    if path is None:
        np.testing.assert_array_equal(operator_norm(a), np.zeros(a.shape[:-2]))
        assert calls == []
        return
    if path == "eigvalsh":
        gram = a.conj().swapaxes(-1, -2) @ a
        expected = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    else:
        try:
            expected = np.linalg.svd(a, compute_uv=False)[..., 0]
        except np.linalg.LinAlgError:
            expected = None
    calls.clear()
    if expected is None:
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(a)
    else:
        with np.errstate(all="raise"):  # no warning from the squares that overflow
            np.testing.assert_array_equal(operator_norm(a), expected)
    assert calls == [path]


def test_operator_norm_empty_stack_and_matrix_type():
    assert operator_norm(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert type(operator_norm(np.eye(2))) is float
    assert type(operator_norm(np.ones((1, 1)))) is float


@pytest.mark.parametrize(
    "shape",
    [(3, 3), (6, 4, 4), (2, 3, 5, 5), (4, 6, 2), (0, 3, 3),
     (1, 1), (7, 7), (4, 24, 24), (2, 96, 96), (2, 0, 0), (3, 0), (0, 3)],
)
def test_frobenius_norm_contract_and_bracket(shape):
    # the operator_norm contract, and ||R||_2 <= ||R||_F <= sqrt(rank R) ||R||_2
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = frobenius_norm(stack)
    if len(shape) == 2:
        assert type(norms) is float
    else:
        assert isinstance(norms, np.ndarray) and norms.shape == shape[:-2]
    # a sum of 2 M N real squares and a square root, in either order of summation
    rtol = 2 * (shape[-2] * shape[-1] + 1) * np.finfo(float).eps
    np.testing.assert_allclose(norms, np.linalg.norm(stack, axis=(-2, -1)), rtol=rtol, atol=0)
    rank = min(shape[-2:])
    ops = operator_norm(stack)
    if len(shape) == 2:
        assert type(ops) is float
    else:
        assert isinstance(ops, np.ndarray) and ops.shape == shape[:-2]
    if rank == 0:  # matrices with no entries: zeros of the leading shape from both
        assert np.all(norms == 0.0) and np.all(ops == 0.0)
        return
    assert np.all(ops * (1 - 1e-13) <= norms) and np.all(norms <= np.sqrt(rank) * ops * (1 + 1e-13))


def test_frobenius_norm_of_rows_slices_and_real_input():
    rng = np.random.default_rng(31)
    elems = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    corners = elems[:, :3, :3]  # not contiguous
    assert not corners.flags.c_contiguous
    np.testing.assert_allclose(
        frobenius_norm(corners), np.linalg.norm(corners, axis=(1, 2)), rtol=1e-14, atol=0
    )
    rows = elems.reshape(5, 36)
    np.testing.assert_allclose(
        frobenius_norm(rows[:, None]), np.linalg.norm(rows, axis=1), rtol=1e-14, atol=0
    )
    real = elems.real
    assert frobenius_norm(real[0]) == pytest.approx(np.linalg.norm(real[0]), rel=1e-14, abs=0)
    np.testing.assert_allclose(
        frobenius_norm(real[:, ::2, 1::2]), np.linalg.norm(real[:, ::2, 1::2], axis=(1, 2)),
        rtol=1e-14, atol=0,
    )
    assert frobenius_norm(np.array([[3, 0], [0, 4]])) == 5.0  # integer input
    # empty rows: the part of a basis below its span, as the tower's support checks take it
    sub = Subspace(3, np.eye(3, dtype=complex))
    assert sub.basis[sub.dim :].shape == (0, 3) and frobenius_norm(sub.basis[sub.dim :]) == 0.0


# ------------------------------------------------------------ unitary_group


def test_unitary_group_t0_is_identity():
    gen = eig_hermitian(np.diag([0.2, 1.7, 3.0]))
    np.testing.assert_allclose(unitary_group(gen, 0.0), np.eye(3), atol=1e-15)


def test_unitary_group_scalar_exponentials():
    # D = diag(0, pi), t = 1: phases are e^0 = 1 and e^{i pi} = -1
    gen = eig_hermitian(np.diag([0.0, np.pi]))
    np.testing.assert_allclose(unitary_group(gen, 1.0), np.diag([1.0, -1.0]), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_unitary_group_unitarity_and_group_law(seed):
    rng = np.random.default_rng(100 + seed)
    gen = eig_hermitian(rng_hermitian(rng, 5))
    s, t = rng.uniform(-3, 3, size=2)
    u = unitary_group(gen, t)
    assert operator_norm(u @ u.conj().T - np.eye(5)) <= 1e-12
    lhs = unitary_group(gen, s + t)
    rhs = unitary_group(gen, s) @ unitary_group(gen, t)
    assert operator_norm(lhs - rhs) <= DEFAULT_TOL.alg(1.0)


@pytest.mark.parametrize("dim", [1, 5])
def test_unitary_group_stack_matches_scalar_calls(dim):
    rng = np.random.default_rng(110 + dim)
    gen = eig_hermitian(rng_hermitian(rng, dim))
    ts = np.concatenate([[0.0, -1.5], rng.uniform(-10, 10, size=5)])
    stack = unitary_group(gen, ts)
    assert stack.shape == (len(ts), dim, dim)
    for k, t in enumerate(ts):
        np.testing.assert_allclose(stack[k], unitary_group(gen, t), rtol=1e-13, atol=0)


def test_unitary_group_empty_and_zero_dimensional_times():
    gen = eig_hermitian(np.diag([0.5, 2.0]))
    assert unitary_group(gen, np.array([])).shape == (0, 2, 2)
    zero_d = unitary_group(gen, np.array(0.7))
    assert zero_d.shape == (2, 2)
    np.testing.assert_array_equal(zero_d, unitary_group(gen, 0.7))


# ------------------------------------------------------- band projections


def test_bands_interval_membership_by_hand():
    gen = eig_hermitian(np.diag([0.5, 1.5]))
    bands = spectral_band_projections(gen)
    assert [r for r, _ in bands] == [1, 2]
    np.testing.assert_allclose(bands[0][1], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(bands[1][1], np.diag([0.0, 1.0]), atol=1e-14)


def test_bands_degenerate_single():
    gen = eig_hermitian(np.diag([1.0, 1.0]))
    bands = spectral_band_projections(gen)
    assert len(bands) == 1 and bands[0][0] == 1
    np.testing.assert_allclose(bands[0][1], np.eye(2), atol=1e-14)


def test_band_boundary_is_right_closed():
    # eigenvalue exactly 2.0 belongs to (1, 2], i.e. band 2
    gen = eig_hermitian(np.diag([2.0, 2.2]))
    assert [r for r, _ in spectral_band_projections(gen)] == [2, 3]
    assert band_groups([2.0, 2.2]) == {2: [0], 3: [1]}


@pytest.mark.parametrize("seed", range(4))
def test_band_partition_of_unity(seed):
    rng = np.random.default_rng(200 + seed)
    gen = eig_hermitian(rng_hermitian(rng, 6) * 3)
    bands = spectral_band_projections(gen)
    total = sum(p for _, p in bands)
    assert operator_norm(total - np.eye(6)) <= 1e-12
    for i, (_, p) in enumerate(bands):
        for j, (_, q) in enumerate(bands):
            expect = p if i == j else np.zeros((6, 6))
            assert operator_norm(p @ q - expect) <= 1e-12


# ------------------------------------------------------------------ subspace


def test_subspace_from_columns_orthonormalizes():
    cols = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    sub = subspace_from_columns(cols)
    assert sub.dim == 2
    p = projection(sub)
    assert operator_norm(p @ p - p) <= 1e-12
    assert operator_norm(p - p.conj().T) <= 1e-12


def test_projection_of_identity_columns_is_exact():
    sub = Subspace(3, np.eye(3)[:, :2])
    np.testing.assert_array_equal(projection(sub), np.diag([1.0, 1.0, 0.0]))


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_subspace_and_operator_space_reject_a_non_finite_basis(bad):
    # a NaN Gram deviation is no proof of orthonormality
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, [[bad], [0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, [[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpace(1, [[[bad]]])
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpace(2, [np.diag([bad, 0.0]), np.diag([0.0, 1.0])])


def test_subspace_embedding():
    sub = Subspace(2, np.eye(2)[:, :1])
    emb = embedded(sub, 5, offset=2)
    assert emb.ambient_dim == 5 and emb.dim == 1
    expected = np.zeros((5, 1))
    expected[2, 0] = 1.0
    np.testing.assert_allclose(emb.basis, expected)


def test_subspace_embedding_is_the_zero_padded_basis_unchecked(monkeypatch):
    # zero rows leave the Gram matrix of a checked basis unchanged, so the
    # embedding is not checked again; the constructor still checks its input
    sub = subspace_from_columns(rng_hermitian(np.random.default_rng(5), 4)[:, :2])
    calls = []
    gram = core._gram_deviation
    monkeypatch.setattr(core, "_gram_deviation", lambda r: calls.append(r.shape) or gram(r))
    emb = embedded(sub, 9, offset=3)
    assert not calls
    padded = np.zeros((9, 2), dtype=complex)
    padded[3:7] = sub.basis
    np.testing.assert_array_equal(emb.basis, padded)
    assert emb.ambient_dim == 9 and emb.dim == 2
    Subspace(9, padded)
    assert calls == [(2, 9)]
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(9, padded * (1 + 1e-8))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_subspace_from_graph_is_one_checked_qr(monkeypatch):
    # the graph of a (p, k) map G lies in C^(p + k): its basis is the Q factor
    # of one QR of [G; I], checked once by the constructor
    g = np.array([[1.0, 2.0j], [0.0, 1.0], [3.0, 0.5]])
    calls = []
    gram = core._gram_deviation
    monkeypatch.setattr(core, "_gram_deviation", lambda r: calls.append(r.shape) or gram(r))
    sub = Subspace.from_graph(g)
    assert sub.ambient_dim == 5 and sub.dim == 2 and calls == [(2, 5)]
    q, _ = np.linalg.qr(np.vstack([g, np.eye(2)]).astype(complex))
    np.testing.assert_array_equal(sub.basis, q)
    # the span is the graph: the columns [G xi; xi] lie in it
    cols = np.vstack([g, np.eye(2)])
    assert operator_norm(cols - projection(sub) @ cols) <= 1e-14
    with pytest.raises(ValueError, match="2-D"):
        Subspace.from_graph(g[0])
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace.from_graph(np.full((3, 2), np.nan))


def test_subspace_distance_is_projection_based():
    a = Subspace(2, np.array([[1.0], [0.0]]))
    b = subspace_from_columns(np.array([[2.0], [0.0]]))  # same space, other basis
    assert subspace_distance(a, b) <= 1e-14
    with pytest.raises(DimensionMismatch):
        subspace_distance(a, Subspace(3, np.eye(3)[:, :1]))


# ------------------------------------------------------------ operator space


def test_operator_space_membership_and_equality():
    diag = OperatorSpace(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert diag.dim == 2
    assert diag.membership_residual(np.diag([3.0, -2.0])) <= 1e-14
    assert diag.membership_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) > 0.1
    other = OperatorSpace.span(2, (np.eye(2), np.diag([1.0, -1.0])))
    assert spans_equal(diag, other, tol=1e-12)


def test_operator_space_equals_matches_elementwise_membership():
    # the batched verdict is the per-element one, judged against the same tol
    rng = np.random.default_rng(9)
    elems = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    a = OperatorSpace.span(3, elems)
    b = OperatorSpace.span(3, elems + 1e-6 * rng.standard_normal((3, 3, 3)))
    worst = max(
        max(a.membership_residual(x) for x in b.basis_elements),
        max(b.membership_residual(x) for x in a.basis_elements),
    )
    assert worst > 1e-8
    assert spans_equal(a, b, tol=1.001 * worst) and spans_equal(b, a, tol=1.001 * worst)
    assert not spans_equal(a, b, tol=0.999 * worst) and not spans_equal(b, a, tol=0.999 * worst)
    assert spans_equal(OperatorSpace(3, ()), OperatorSpace(3, ()))
    assert not spans_equal(a, OperatorSpace.span(3, elems[:2]))


def test_operator_space_membership_rejects_other_dimension():
    space = OperatorSpace.span(2, (np.eye(2),))
    with pytest.raises(DimensionMismatch):
        space.membership_residual(np.eye(4))


def test_operator_space_rejects_dependent_basis():
    with pytest.raises(ValueError, match="independent"):
        OperatorSpace.span(2, (np.eye(2), 2.0 * np.eye(2)))
    with pytest.raises(ValueError, match="independent"):  # more elements than dimensions
        OperatorSpace.span(2, np.random.default_rng(12).standard_normal((5, 2, 2)))


def test_operator_space_takes_an_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpace(2, (np.eye(2),))  # Frobenius norm sqrt(2)
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpace(2, (np.diag([1.0, 0.0]), np.eye(2) / np.sqrt(2)))  # unit, not orthogonal
    with pytest.raises(DimensionMismatch):
        OperatorSpace(2, np.zeros((1, 3, 3)))
    with pytest.raises(DimensionMismatch):
        OperatorSpace.span(2, np.ones((1, 3, 3)))


@pytest.mark.parametrize("perturb", ["entry", "norm"])
@pytest.mark.parametrize("batch_entries", [1 << 20, 40])  # one Gram block; six
def test_orthonormality_guard_catches_a_1e_7_perturbation(monkeypatch, batch_entries, perturb):
    monkeypatch.setattr(core, "_BATCH_ENTRIES", batch_entries)
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((16, 12)) + 1j * rng.standard_normal((16, 12)))
    elems = np.ascontiguousarray(q.T).reshape(12, 4, 4)
    OperatorSpace(4, elems)
    Subspace(16, q)
    # element 9: one entry moved, or its norm off by 1e-7 (then only G[9, 9]
    # moves, in the fifth of the six row blocks)
    if perturb == "entry":
        elems[9, 2, 1] += 1e-7
        q[3, 9] += 1e-7
    else:
        elems[9] *= 1 + 1e-7
        q[:, 9] *= 1 + 1e-7
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpace(4, elems)
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(16, q)


def test_operator_space_span_orthonormalizes_independent_elements():
    rng = np.random.default_rng(10)
    elems = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    space = OperatorSpace.span(3, elems)
    assert space.basis_elements.shape == (4, 3, 3)
    flat = space.basis_elements.reshape(4, -1)
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(4), atol=1e-12)
    # four independent elements in a 4-dimensional span: the spans agree
    assert max(space.membership_residual(x) for x in elems) <= 1e-12
    # the stack is taken as given, and an empty span is the zero space
    assert spans_equal(OperatorSpace(3, space.basis_elements), space, tol=1e-14)
    assert OperatorSpace.span(3, ()).dim == 0


def test_operator_space_span_r_has_the_stack_singular_values():
    # the rank check reads the singular values of R, which are the stack's own
    # (to 1e-13 relative to the largest, as for any backward-stable method)
    rng = np.random.default_rng(11)
    elems = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    elems[5] = elems[4] + 1e-6 * elems[3]  # a small singular value
    _, r = np.linalg.qr(elems.reshape(6, -1).T)
    s_stack = np.linalg.svd(elems.reshape(6, -1), compute_uv=False)
    s_r = np.linalg.svd(r, compute_uv=False)
    assert s_stack[-1] < 1e-5 * s_stack[0]
    np.testing.assert_allclose(s_r, s_stack, rtol=0, atol=1e-13 * s_stack[0])


@pytest.mark.parametrize("ratio, independent", ((0.5, False), (2.0, True)))
def test_operator_space_span_rank_check_at_the_cutoff(ratio, independent):
    # three orthogonal elements with singular values 1, 1 and ratio * cutoff
    units = np.eye(9).reshape(9, 3, 3)
    elems = np.stack([units[0], units[4], ratio * DEFAULT_TOL.rank_cutoff * units[8]])
    if independent:
        assert OperatorSpace.span(3, elems).dim == 3
    else:
        with pytest.raises(ValueError, match="independent"):
            OperatorSpace.span(3, elems)


def test_operator_space_span_matches_the_svd_basis():
    # orthonormal, and the same span as the right singular vectors of the stack
    rng = np.random.default_rng(13)
    elems = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
    space = OperatorSpace.span(5, elems)
    flat = space.basis_elements.reshape(7, -1)
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(7), atol=1e-13)
    _, _, vh = np.linalg.svd(elems.reshape(7, -1), full_matrices=False)
    assert spans_equal(space, OperatorSpace(5, vh.reshape(7, 5, 5)), tol=1e-12)


@pytest.mark.parametrize("max_pairs", (None, 7))
def test_closure_residual_matches_pairwise_membership(max_pairs):
    rng = np.random.default_rng(8)
    space = OperatorSpace.span(3, rng.standard_normal((4, 3, 3)))  # not closed
    k = space.dim
    if max_pairs is None:
        pairs = [(i, j) for i in range(k) for j in range(k)]
    else:
        pairs = np.random.default_rng(0).integers(0, k, size=(max_pairs, 2))
    elems = space.basis_elements
    expected = max(space.membership_residual(elems[i] @ elems[j]) for i, j in pairs)
    assert expected > 0.1
    assert space.product_closure_residual(max_pairs) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------- nullspace solving


def test_nullspace_no_constraints_full_space():
    space = nullspace_of_constraints([], 2)
    assert space.shape == (4, 4)


def test_nullspace_zero_constraint_kills_everything():
    space = nullspace_of_constraints([np.eye(4)], 2)
    assert space.shape == (4, 0)


def test_nullspace_commutant_of_distinct_diagonal():
    # entrywise oracle: (lam_i - lam_j) x_ij = 0 forces x diagonal
    g = np.diag([1.0, 2.0])
    space = space_of_vec_columns(2, nullspace_of_constraints([commutation_constraint(g)], 2))
    assert space.dim == 2
    expected = OperatorSpace(2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert spans_equal(space, expected, tol=1e-12)


def test_nullspace_residuals_and_brute_force_rank():
    rng = np.random.default_rng(5)
    g = rng_hermitian(rng, 3)
    c = commutation_constraint(g)
    space = space_of_vec_columns(3, nullspace_of_constraints([c], 3))
    for b in space.basis_elements:
        assert operator_norm(b @ g - g @ b) <= DEFAULT_TOL.alg(operator_norm(g))
    # dimension agrees with an independent rank computation
    assert space.dim == 9 - np.linalg.matrix_rank(c, tol=1e-9)


def test_nullspace_tall_stack_compression():
    rng = np.random.default_rng(6)
    g = np.diag([1.0, 2.0, 3.0])
    # 360 rows, 9 cols; every repeat after the first is roundoff on the null basis
    constraints = [commutation_constraint(g) for _ in range(40)]
    space = nullspace_of_constraints(constraints, 3)
    assert space.shape == (9, 3)


def _random_flag_family(rng, dim):
    """A random flag (nested subspaces) plus one unrelated random subspace."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    family = [subspace_from_columns(z[:, :k]) for k in range(1, dim)]
    k = int(rng.integers(1, dim))
    family.append(subspace_from_columns(rng.standard_normal((dim, k))))
    return family[int(rng.integers(0, 2)) :]  # sometimes drop the 1-dim member


def _dense_oracle(constraints, dim, within=None):
    """Null space of the vstacked constraints by one SVD, as orthonormal columns."""
    d2 = dim * dim
    rows = list(constraints)
    if within is not None:
        rows.append(np.eye(d2) - within @ within.conj().T)  # X in within
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-9 * s[0]))
    return vh[rank:].conj().T


def _span_distance(q, columns):
    """Distance of the projections onto two spans given by orthonormal columns."""
    return operator_norm(q @ q.conj().T - columns @ columns.conj().T)


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_matches_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    dim = 3 + seed % 2
    family = _random_flag_family(rng, dim)
    constraints = [invariance_constraint(sub.basis) for sub in family]
    space = nullspace_of_constraints(constraints, dim, scale=1.0)
    oracle = _dense_oracle(constraints, dim)
    assert space.shape[1] == oracle.shape[1] > 0
    assert _span_distance(space, oracle) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_within_matches_dense_oracle(seed):
    # narrowing inside an earlier solution: the caller restricts the later
    # constraints to its orthonormal basis
    rng = np.random.default_rng(200 + seed)
    dim = 3 + seed % 2
    constraints = [invariance_constraint(sub.basis) for sub in _random_flag_family(rng, dim)]
    cut = int(rng.integers(1, len(constraints)))
    outer = nullspace_of_constraints(constraints[:cut], dim, scale=1.0)
    space = outer @ nullspace_of_constraints([c @ outer for c in constraints[cut:]], dim, scale=1.0)
    oracle = _dense_oracle(constraints[cut:], dim, within=outer)
    assert outer.shape[1] > space.shape[1] == oracle.shape[1] > 0
    assert _span_distance(space, oracle) <= 1e-10
    # narrowing in two calls matches imposing every constraint in one
    assert _span_distance(space, _dense_oracle(constraints, dim)) <= 1e-10


def test_nullspace_in_other_coordinates():
    # constraints on 5 coordinates, not on the 4 vec coordinates of a 2 x 2 operator
    rng = np.random.default_rng(8)
    c = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    space = nullspace_of_constraints([c], 2, scale=1.0)
    assert space.shape == (5, 3)
    np.testing.assert_allclose(c @ space, 0.0, atol=1e-12)
    np.testing.assert_allclose(space.conj().T @ space, np.eye(3), atol=1e-12)
    # no coordinates at all: the solution is the zero space of C^0, not C^(2 x 2)
    assert nullspace_of_constraints([np.zeros((3, 0))], 2).shape == (0, 0)
    with pytest.raises(ValueError, match="5 columns"):
        nullspace_of_constraints([c, np.eye(4)], 2)
    with pytest.raises(ValueError, match="2-D"):
        nullspace_of_constraints([np.ones(4)], 2)


def test_invariance_constraint_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    sub = subspace_from_columns(rng.standard_normal((4, 2)))
    c = invariance_constraint(sub.basis)
    assert c.shape == (2 * (4 - 2), 16)  # k * (d - k) rows
    q, _ = np.linalg.qr(sub.basis, mode="complete")
    complement = q[:, 2:]
    np.testing.assert_allclose(complement.conj().T @ sub.basis, 0.0, atol=1e-12)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = complement.conj().T @ x @ sub.basis
    np.testing.assert_allclose(c @ vec(x), vec(direct), atol=1e-12)
    # orthonormal rows whose Gram is the full-space map X -> (I - P) X P
    np.testing.assert_allclose(c @ c.conj().T, np.eye(4), atol=1e-12)
    p = projection(sub)
    np.testing.assert_allclose(c.conj().T @ c, np.kron(p.T, np.eye(4) - p), atol=1e-12)


def test_invariance_constraint_trivial_subspaces_have_no_rows():
    assert invariance_constraint(np.zeros((3, 0))).shape == (0, 9)
    assert invariance_constraint(np.eye(3)).shape == (0, 9)


# ------------------------------------------------------------------ file I/O


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "a.json"
    save_operator(path, a)
    b, extra = load_matrix_json(path)
    np.testing.assert_array_equal(a, b)
    assert extra == {}
    # fields beside dim and entries come back as the extras
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps({"dim": 1, "entries": [[[2.0, -1.0]]], "base_dim": 3, "order": 0}))
    b, extra = load_matrix_json(tagged)
    np.testing.assert_array_equal(b, [[2.0 - 1.0j]])
    assert extra == {"base_dim": 3, "order": 0}


def test_matrix_json_format_is_row_major_re_im(tmp_path):
    a = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    path = tmp_path / "m.json"
    save_operator(path, a)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert payload["entries"][0][0] == [1.0, 2.0]
    assert payload["entries"][0][1] == [3.0, 0.0]
    assert payload["entries"][1][1] == [0.0, -1.0]


def test_save_operator_output_is_unchanged(tmp_path):
    # compact JSON, no whitespace: one tolist of the [re, im] stack, -0.0 and
    # the +-1e300 cells written as Python's repr writes them; the file reads
    # back bitwise, the signs of the zeros included
    a = np.array([
        [complex(1.5, -0.0), complex(-0.0, 2.0), 3.0],
        [0.1, complex(-1e-300, 1e300), 0.0],
        [7, 1j, -2.5],
    ])
    assert math.copysign(1.0, a[0, 0].imag) == -1.0 and math.copysign(1.0, a[0, 1].real) == -1.0
    path = tmp_path / "m.json"
    save_operator(path, a)
    assert path.read_text() == (
        '{"dim":3,"entries":[[[1.5,-0.0],[-0.0,2.0],[3.0,0.0]],'
        '[[0.1,0.0],[-1e-300,1e+300],[0.0,0.0]],[[7.0,0.0],[0.0,1.0],[-2.5,0.0]]]}'
    )
    back = load_operator(path)
    np.testing.assert_array_equal(back.view(float), a.view(float))
    np.testing.assert_array_equal(np.signbit(back.view(float)), np.signbit(a.view(float)))


def test_matrix_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[[1, 0]]]}))
    with pytest.raises(ValueError):
        load_operator(path)


def test_matrix_json_takes_any_json_number(tmp_path):
    # an integer beyond 64 bits parses to an object array; it is still a number
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[[10**20, 0], [1, 2]], [[0, 0], [3.5, 0]]]}))
    np.testing.assert_array_equal(load_operator(path), [[1e20, 1 + 2j], [0, 3.5]])
    path.write_text(json.dumps({"dim": 1, "entries": [[[10**400, 0]]]}))
    with pytest.raises(ValueError, match="big.json"):
        load_operator(path)


# ------------------------------------------------------------ public surface


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(opderiv.__path__)))
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks only ``from opderiv.<module> import *``
    mod = importlib.import_module(f"opderiv.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
