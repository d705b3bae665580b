"""Tests for commutants, invariant families, and the reflexivity check."""

import numpy as np
import pytest

from opderiv import reflexivity
from opderiv.core import (
    DEFAULT_TOL,
    OperatorSpace,
    Subspace,
    eig_hermitian,
    operator_norm,
    vec,
)
from opderiv.derivation import derivative_chain
from opderiv.reflexivity import (
    InvariantFamily,
    LatGenerationFailed,
    ReflexivityViolation,
    VonNeumannAlgebraSpec,
    alg_of_family,
    bicommutant,
    commutant,
    graph_subspace,
    invariance_residuals,
    invariant_family,
    lat_family,
    reflexivity_check,
)
from opderiv.scenarios import random_scenario
from opderiv.triangular import (
    corner_exponential,
    triangular_representation,
    triangular_representations,
)


def rng_generator(rng, n, spread=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return eig_hermitian((z + z.conj().T) / 2 * spread)


def diag_space(n):
    return OperatorSpace(n, tuple(np.diag(row.astype(complex)) for row in np.eye(n)))


# ---------------------------------------------------------------- algebra spec


def test_spec_validation():
    with pytest.raises(ValueError):
        VonNeumannAlgebraSpec("nonsense", 3)
    with pytest.raises(ValueError):
        VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 2))
    with pytest.raises(ValueError):
        VonNeumannAlgebraSpec("generated", 3)
    spec = VonNeumannAlgebraSpec("block_diagonal", 5, pattern=(3, 2))
    assert spec.expected_dim() == 13


# ------------------------------------------------------------------ commutant


def test_commutant_full_is_scalars():
    space = commutant(VonNeumannAlgebraSpec("full", 3))
    assert space.dim == 1
    assert space.membership_residual(np.eye(3)) <= 1e-12


def test_commutant_masa_is_diagonal():
    # entrywise oracle: distinct diagonal generator forces y_ij = 0 off diagonal
    space = commutant(VonNeumannAlgebraSpec("diagonal_masa", 3))
    assert space.dim == 3
    assert space.equals(diag_space(3), tol=1e-10)


def test_commutant_of_identity_is_everything():
    space = commutant([np.eye(4)], dim=4)
    assert space.dim == 16


def test_commutant_block_diagonal():
    space = commutant(VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1)))
    assert space.dim == 2  # c1 * I_2 (+) c2 * I_1
    assert space.membership_residual(np.diag([1.0, 1.0, 0.0])) <= 1e-10
    assert space.membership_residual(np.diag([0.0, 0.0, 1.0])) <= 1e-10


# ---------------------------------------------------------------- bicommutant


@pytest.mark.parametrize(
    "spec, expected",
    [
        (VonNeumannAlgebraSpec("full", 3), 9),
        (VonNeumannAlgebraSpec("diagonal_masa", 4), 4),
        (VonNeumannAlgebraSpec("block_diagonal", 4, pattern=(2, 2)), 8),
        (VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1)), 5),
    ],
)
def test_bicommutant_closed_forms(spec, expected):
    algebra = bicommutant(spec)
    assert algebra.dim == expected == spec.expected_dim()


def test_bicommutant_generated_self_consistency():
    # g = diag(1,1,2): commutant is M_2 (+) M_1 (dim 5); the generated
    # algebra (bicommutant) is the span of the two spectral projections
    g = np.diag([1.0, 1.0, 2.0]).astype(complex)
    spec = VonNeumannAlgebraSpec("generated", 3, generators=(g,))
    first = commutant(spec)
    assert first.dim == 5
    algebra = bicommutant(spec)
    assert algebra.dim == 2
    assert algebra.membership_residual(np.diag([1.0, 1.0, 0.0])) <= 1e-10
    assert algebra.membership_residual(np.diag([0.0, 0.0, 1.0])) <= 1e-10
    # M' = gens' (the third commutant collapses to the first)
    third = commutant(algebra.basis_elements, dim=3)
    assert first.equals(third, tol=1e-9)


# ----------------------------------------------------------------- lat family


def test_lat_family_full_gives_whole_space_only():
    spec = VonNeumannAlgebraSpec("full", 3)
    fam, algebra = lat_family(spec)
    assert algebra.dim == 9
    assert all(s.dim in (0, 3) for s in fam)
    computed = alg_of_family(fam, ambient_dim=3)
    assert computed.dim == 9


def test_lat_family_masa_contains_axes():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    fam, _ = lat_family(spec)
    axes = [Subspace(2, np.eye(2)[:, i : i + 1]) for i in range(2)]
    for axis in axes:
        assert any(s.dim == 1 and s.distance(axis) <= 1e-8 for s in fam)
    computed = alg_of_family(fam, ambient_dim=2)
    assert computed.dim == 2


def test_lat_family_block_diagonal_alg_dim():
    # invariance of the two block subspaces kills 4 of the 9 entries
    spec = VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1))
    fam, algebra = lat_family(spec)
    computed = alg_of_family(fam, ambient_dim=3)
    assert computed.dim == 5
    # the algebra it hands out is the one it certified: the bicommutant
    assert algebra.equals(bicommutant(spec), tol=1e-10)


def test_lat_family_is_algebra_invariant():
    spec = VonNeumannAlgebraSpec("block_diagonal", 4, pattern=(2, 2))
    algebra = bicommutant(spec)
    for sub in lat_family(spec)[0]:
        p = sub.projection
        for g in algebra.basis_elements:
            assert operator_norm((np.eye(4) - p) @ g @ p) <= 1e-9


# ------------------------------------------------------------- graph subspace


def test_graph_subspace_hand_n1():
    # T(xi tensor e_1) = iD xi tensor e_0 + xi tensor e_1 for D = diag(0, 1):
    # span{(0,0,1,0), (0,i,0,1)} in block order (e_0 block, e_1 block)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    p1 = graph_subspace(d, 1)
    expected_cols = np.array(
        [[0.0, 0.0], [0.0, 1j], [1.0, 0.0], [0.0, 1.0]], dtype=complex
    )
    expected = Subspace.from_columns(expected_cols)
    assert p1.dim == 2
    assert p1.distance(expected) <= 1e-12


def test_graph_subspace_zero_generator():
    d = eig_hermitian(np.zeros((2, 2)))
    p2 = graph_subspace(d, 2)
    expected = np.zeros((6, 2), dtype=complex)
    expected[4:, :] = np.eye(2)
    assert p2.distance(Subspace(6, expected)) <= 1e-12


def test_graph_subspace_requires_positive_order():
    d = eig_hermitian(np.eye(2))
    with pytest.raises(ValueError):
        graph_subspace(d, 0)


def test_graph_subspace_invariance_under_representations():
    rng = np.random.default_rng(51)
    d = rng_generator(rng, 3)
    n = 2
    p = graph_subspace(d, n).projection
    eye = np.eye(3 * (n + 1))
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = triangular_representation(derivative_chain(d, x, n)).matrix
        assert operator_norm((eye - p) @ rep @ p) <= 1e-10 * (1 + operator_norm(rep))


def test_graph_subspace_shift_matches_shifted_generator():
    rng = np.random.default_rng(52)
    d = rng_generator(rng, 3)
    q = graph_subspace(d, 2, shift=1.0)
    p_shifted = graph_subspace(d.shifted(1.0), 2)
    np.testing.assert_array_equal(q.basis, p_shifted.basis)


def test_graph_subspace_is_a_graph():
    # the last-block component map of the basis is injective
    rng = np.random.default_rng(53)
    d = rng_generator(rng, 4, spread=2.0)
    for n in (1, 2, 3):
        sub = graph_subspace(d, n)
        last_block = sub.basis[n * 4 :, :]
        smin = np.linalg.svd(last_block, compute_uv=False)[-1]
        assert smin > 1e-6


# ------------------------------------------------------------ invariant family


def test_invariant_family_n0_full():
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    fam = invariant_family(spec, d, 0)
    assert fam.ambient_dim == 2
    assert all(s.dim == 2 for s in fam.subspaces)  # whole space only


def test_invariant_family_labels_n1():
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    fam = invariant_family(spec, d, 1)
    labels = set(fam.labels)
    assert {"H_0", "H_1", "P_1", "Q_1"} <= labels
    assert any(l.startswith("lat_M") for l in labels)
    without = fam.without_q()
    assert not any(l.startswith("Q_") for l in without.labels)
    assert len(without.labels) == len(labels) - 1 and without.ambient_dim == fam.ambient_dim


def test_invariant_family_residuals_small():
    rng = np.random.default_rng(54)
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = rng_generator(rng, 3, spread=1.5)
    fam = invariant_family(spec, d, 2)
    resid = invariance_residuals(fam, d, spec.generating_set())
    assert max(resid.values()) <= 1e-10


# -------------------------------------------------------------- alg of family


def test_alg_of_empty_family():
    space = alg_of_family([], ambient_dim=2)
    assert space.dim == 4


def test_alg_of_single_axis_is_upper_triangular():
    # invariance of span(e_0) kills the (1, 0) entry
    axis = Subspace(2, np.eye(2)[:, :1])
    space = alg_of_family([axis])
    assert space.dim == 3
    expected = OperatorSpace(
        2,
        (
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 1.0]]),
        ),
    )
    assert space.equals(expected, tol=1e-10)


def test_alg_of_family_corner_constrained_reconstruction():
    # the paper-style family on C^2 with D = diag(0,1): dimension 4 and every
    # element is the representation of its (0, 0) block
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    fam = invariant_family(spec, d, 1)
    space = alg_of_family(fam)
    assert space.dim == 4
    for x in space.basis_elements:
        rep = triangular_representation(derivative_chain(d, x[:2, :2], 1))
        assert operator_norm(x - rep.matrix) <= 1e-10


def test_alg_of_family_closure_check_runs():
    axis = Subspace(2, np.eye(2)[:, :1])
    space = alg_of_family([axis])
    assert space.product_closure_residual() <= 1e-10


# ------------------------------------------------------------ reflexivity check


def test_reflexivity_n0_is_bicommutant_identity():
    d = eig_hermitian(np.diag([0.3, 1.1, 2.7]))
    for kind, pattern in (("full", None), ("diagonal_masa", None), ("block_diagonal", (2, 1))):
        spec = VonNeumannAlgebraSpec(kind, 3, pattern=pattern)
        report = reflexivity_check(spec, d, 0)
        assert report.passed
        assert report.dim_computed == report.dim_expected == spec.expected_dim()


def test_reflexivity_full_c3_n1():
    spec = VonNeumannAlgebraSpec("full", 3)
    d = eig_hermitian(np.diag([0.3, 1.1, 2.7]))
    report = reflexivity_check(spec, d, 1)
    assert report.passed and report.dim_computed == 9
    assert report.max_reconstruction_residual <= 1e-8
    assert report.max_membership_residual <= 1e-8


def test_reflexivity_masa_c3_n2():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = eig_hermitian(np.diag([0.3, 1.1, 2.7]))
    report = reflexivity_check(spec, d, 2)
    assert report.passed and report.dim_computed == 3
    assert report.max_reconstruction_residual <= 1e-8


def test_reflexivity_needs_q_for_full_c2():
    # without the shifted graphs the solution space is strictly larger
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    report = reflexivity_check(spec, d, 1)
    assert report.passed and report.needed_Q


def test_dropping_q_never_shrinks_the_solution():
    rng = np.random.default_rng(55)
    d = rng_generator(rng, 3)
    for kind in ("full", "diagonal_masa"):
        spec = VonNeumannAlgebraSpec(kind, 3)
        for n in (1, 2):
            fam = invariant_family(spec, d, n)
            full = alg_of_family(fam)
            reduced = alg_of_family(fam.without_q())
            assert reduced.dim >= full.dim
            # imposing the Q_j inside the reduced solution gives the full one
            q_members = [s for s, l in zip(fam.subspaces, fam.labels) if l.startswith("Q_")]
            narrowed = alg_of_family(q_members, within=reduced)
            assert narrowed.dim == full.dim and narrowed.equals(full, tol=1e-9)
            # so does imposing every member, unstructured, inside it
            assert alg_of_family(list(fam.subspaces), within=reduced).equals(full, tol=1e-9)


def _full_space_null(subspaces, dim):
    """Operators leaving every member invariant, by one SVD of the vstacked
    full-space constraints kron(P.T, I - P), as orthonormal vec columns."""
    rows = [np.kron(s.projection.T, np.eye(dim) - s.projection) for s in subspaces]
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-9 * s[0]))
    return vh[rank:].conj().T


def _oracle_spec(kind):
    if kind == "block_diagonal":
        return VonNeumannAlgebraSpec(kind, 3, pattern=(2, 1))
    if kind == "generated":
        u, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((3, 3)))
        return VonNeumannAlgebraSpec(kind, 3, generators=(u @ np.diag([1.0, 1.0, 2.0]) @ u.T,))
    return VonNeumannAlgebraSpec(kind, 3)


@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_structured_solve_matches_full_space_oracle(kind, n, monkeypatch):
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(60), 3)
    corner_solve, solves = reflexivity._corner_solve, []

    def recording(family, tol):  # keeps the family and the solution of the check
        out = corner_solve(family, tol)
        solves.append((family, out[0]))
        return out

    monkeypatch.setattr(reflexivity, "_corner_solve", recording)
    report = reflexivity_check(spec, d, n)
    ((family, space),) = solves
    dim = family.ambient_dim
    oracle = _full_space_null(family.subspaces, dim)
    without_q = _full_space_null(family.without_q().subspaces, dim)
    assert space.dim == report.dim_computed == oracle.shape[1] == report.dim_expected
    assert report.needed_Q == (without_q.shape[1] > oracle.shape[1])
    q, _ = np.linalg.qr(np.stack([vec(b) for b in space.basis_elements], axis=1))
    assert operator_norm(q @ q.conj().T - oracle @ oracle.conj().T) <= 1e-10


@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_batched_check_matches_per_element_path(kind, n, monkeypatch):
    # per element: one chain and one triangular representation each, one
    # membership_residual per algebra element, the algebra solved as the bicommutant
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(62), 3)
    corner_solve, solved = reflexivity._corner_solve, []

    def recording(family, tol):
        out = corner_solve(family, tol)
        solved.append(out[0])
        return out

    monkeypatch.setattr(reflexivity, "_corner_solve", recording)
    report = reflexivity_check(spec, d, n, raise_on_fail=False)
    (space,) = solved
    reps = [
        triangular_representation(derivative_chain(d, x[:3, :3], n)).matrix
        for x in space.basis_elements
    ]
    batched = triangular_representations(d, space.stacked()[:, :3, :3], n)
    for rep, want in zip(batched, reps):
        assert operator_norm(rep - want) <= 1e-12 * (1 + operator_norm(want))
    recon = [operator_norm(x - rep) for x, rep in zip(space.basis_elements, reps)]
    algebra = bicommutant(spec)
    member = max(
        space.membership_residual(triangular_representation(derivative_chain(d, g, n)).matrix)
        for g in algebra.basis_elements
    )
    assert len(report.element_residuals) == len(recon) == space.dim
    for got, want in zip(report.element_residuals, recon):
        assert abs(got - want) <= 1e-12 * (1 + want)
    assert report.max_reconstruction_residual == max(report.element_residuals)
    assert abs(report.max_membership_residual - member) <= 1e-12 * (1 + member)
    assert report.dim_expected == algebra.dim
    passed = space.dim == algebra.dim and max(max(recon), member) <= report.tolerance
    assert report.passed == passed


def test_reflexivity_check_with_prebuilt_family(monkeypatch):
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = rng_generator(np.random.default_rng(63), 3)
    family = invariant_family(spec, d, 2, seed=4)
    assert family.algebra.equals(bicommutant(spec), tol=1e-10)
    small = eig_hermitian(np.diag([0.2, 1.4]))
    other_base = invariant_family(VonNeumannAlgebraSpec("diagonal_masa", 2), small, 2)
    expected = reflexivity_check(spec, d, 2, seed=4)
    calls = []
    monkeypatch.setattr(reflexivity, "commutant", lambda *a, **k: calls.append(a))
    assert reflexivity_check(spec, d, 2, seed=4, family=family) == expected
    assert not calls  # nothing is solved again
    with pytest.raises(ValueError, match="order"):
        reflexivity_check(spec, d, 1, family=family)
    with pytest.raises(ValueError, match="base dimension"):
        reflexivity_check(spec, d, 2, family=other_base)


def _relabeled(family, label, sub):
    subs = [sub if l == label else s for s, l in zip(family.subspaces, family.labels)]
    return InvariantFamily(
        tuple(subs), family.labels, family.base_dim, family.order, family.algebra
    )


def test_structured_solve_rejects_misshapen_members():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    family = invariant_family(spec, d, 1)
    axis = Subspace(2, np.eye(2)[:, :1])
    # a lat member in the second block is not of the form L + 0
    off_block = _relabeled(family, "lat_M[0]", axis.embedded(4, 2))
    with pytest.raises(ValueError, match="first block"):
        alg_of_family(off_block)
    # H_0 must span the leading basis vectors
    with pytest.raises(ValueError, match="leading"):
        alg_of_family(_relabeled(family, "H_0", Subspace(4, np.eye(4)[:, 2:])))
    # ... and whole blocks of them: a leading span inside the first block is no H_j
    with pytest.raises(ValueError, match="leading"):
        alg_of_family(_relabeled(family, "H_1", Subspace(4, np.eye(4)[:, :1])))
    # the (0, 0)-block solve of the lat members relies on H_0
    keep = [i for i, l in enumerate(family.labels) if l != "H_0"]
    no_h0 = InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        2,
        1,
        family.algebra,
    )
    with pytest.raises(ValueError, match="H_0"):
        alg_of_family(no_h0)
    # an InvariantFamily has one solve; inside a space its members go as a list
    with pytest.raises(ValueError, match="within"):
        alg_of_family(family, within=alg_of_family(family))


@pytest.mark.slow
def test_reflexivity_full_c16_n3():
    spec = VonNeumannAlgebraSpec("full", 16)
    gen, _ = random_scenario(16, 1)
    report = reflexivity_check(spec, gen, 3, seed=1)
    assert report.passed and report.dim_computed == 256


def test_lat_family_cap_exhaustion_raises(monkeypatch):
    # a solver that only ever finds span{I} can never certify the 2-dim masa
    attempts = []

    def scalars_only(subspaces, ambient_dim=None, tol=None, within=None):
        attempts.append(subspaces)
        return OperatorSpace(ambient_dim, (np.eye(ambient_dim, dtype=complex),))

    monkeypatch.setattr("opderiv.reflexivity.alg_of_family", scalars_only)
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    with pytest.raises(LatGenerationFailed):
        lat_family(spec, max_extra=1)
    assert len(attempts) == 2  # the first attempt plus max_extra retries


def test_reflexivity_full_c8_n2_seed302_generator():
    # one SVD of all constraints stacked fails to converge on this generator
    spec = VonNeumannAlgebraSpec("full", 8)
    seed = 1857855642
    gen, _ = random_scenario(8, seed)
    report = reflexivity_check(spec, gen, 2, seed=seed)
    assert report.passed and report.dim_computed == 64 and report.needed_Q


def test_reflexivity_reports_deciding_tolerance():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = eig_hermitian(np.diag([0.3, 1.1, 2.7]))
    report = reflexivity_check(spec, d, 2)
    fwd, bwd = corner_exponential(d, 2)
    assert report.tolerance == DEFAULT_TOL.alg(fwd.norm(), bwd.norm())
    assert report.tolerance > DEFAULT_TOL.alg()
    assert set(report.to_json()) == {
        "scenario", "n", "dim_expected", "dim_computed", "max_residual", "needed_Q", "pass"
    }


def test_reflexivity_generated_algebra():
    g = np.diag([1.0, 1.0, 2.0]).astype(complex)
    spec = VonNeumannAlgebraSpec("generated", 3, generators=(g,))
    d = eig_hermitian(np.diag([0.4, 1.2, 2.9]))
    report = reflexivity_check(spec, d, 1)
    assert report.passed and report.dim_computed == 2


def test_reflexivity_violation_raises_with_diagnostics():
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    squeezed = DEFAULT_TOL.replace(tol_alg=1e-30)
    with pytest.raises(ReflexivityViolation) as err:
        reflexivity_check(spec, d, 1, tol=squeezed)
    assert err.value.report.dim_computed == 4
    report = reflexivity_check(spec, d, 1, tol=squeezed, raise_on_fail=False)
    assert not report.passed


def test_reflexivity_report_json_schema():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    d = eig_hermitian(np.diag([0.2, 1.4]))
    payload = reflexivity_check(spec, d, 1).to_json()
    assert set(payload) == {
        "scenario",
        "n",
        "dim_expected",
        "dim_computed",
        "max_residual",
        "needed_Q",
        "pass",
    }
    assert payload["pass"] is True and payload["dim_expected"] == 2
