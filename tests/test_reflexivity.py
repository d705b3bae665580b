"""Tests for commutants, invariant families, and the reflexivity check."""

import numpy as np
import pytest

from opderiv import blocks, reflexivity
from opderiv.core import (
    DEFAULT_TOL,
    OperatorSpace,
    Subspace,
    eig_hermitian,
    nullspace_of_constraints,
    operator_norm,
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
from oracles import (
    alg_of_subspaces,
    commutation_constraint,
    full_space_null,
    invariance_constraint,
    space_of_vec_columns,
    spans_equal,
    subspace_distance,
    vec,
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
    assert spans_equal(space, diag_space(3), tol=1e-10)


def test_commutant_of_identity_is_everything():
    space = commutant([np.eye(4)], dim=4)
    assert space.dim == 16


def test_commutant_block_diagonal():
    space = commutant(VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1)))
    assert space.dim == 2  # c1 * I_2 (+) c2 * I_1
    assert space.membership_residual(np.diag([1.0, 1.0, 0.0])) <= 1e-10
    assert space.membership_residual(np.diag([0.0, 0.0, 1.0])) <= 1e-10


def _kron_commutant(generators, dim, tol=None):
    """The commutant by the dense Kronecker solve, independent of
    ``commutant``: the nullspace of the N^2 x N^2 constraints X -> X g - g X
    and X -> X g* - g* X (vec coordinates), with the generators' largest
    norm as the scale."""
    constraints = [commutation_constraint(x) for g in generators for x in (g, g.conj().T)]
    scale = max((operator_norm(g) for g in generators), default=0.0)
    return space_of_vec_columns(dim, nullspace_of_constraints(constraints, dim, tol, scale=scale))


def _preset_specs(n):
    patterns = {(n,), (n - 1, 1) if n > 1 else (1,), (1,) * n}
    return [VonNeumannAlgebraSpec("full", n), VonNeumannAlgebraSpec("diagonal_masa", n)] + [
        VonNeumannAlgebraSpec("block_diagonal", n, pattern=p) for p in sorted(patterns)
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_commutant_of_presets_matches_kronecker_oracle(n):
    for spec in _preset_specs(n):
        space = commutant(spec)
        assert spans_equal(space, _kron_commutant(spec.generating_set(), n)), spec.label()


def _rotated_blocks(rng, pattern):
    """U (A_1 + ... + A_k) U* with random complex (non-normal) blocks."""
    dim = sum(pattern)
    z = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    u, _ = np.linalg.qr(z[0])
    labels = np.repeat(np.arange(len(pattern)), pattern)
    return u @ np.where(labels[:, None] == labels, z[1], 0) @ u.conj().T


def _cancelling_pair():
    """A Jordan block J and c J, with c such that the weighted Hermitian parts
    of the pair cancel: ``commutant``'s h is 0, every unit is free, and only
    the adjoint constraints cut the polynomials in J down to the scalars."""
    a1, b1, a2, b2 = 1.0 / (1.0 + reflexivity._GOLDEN * np.arange(4))
    # the parts of c J (c = p + iq) are p a - q b and q a + p b, for J's parts a and b
    p, q = np.linalg.solve([[a2, b2], [b2, -a2]], [-a1, -b1])
    jordan = np.diag(np.ones(2), 1)
    return [jordan, (p + 1j * q) * jordan]


def _generator_cases():
    rng = np.random.default_rng(62)
    u, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((8, 8)))
    degenerate = u @ np.diag([1.0] * 6 + [2.0] * 2) @ u.T
    d = np.diag(np.arange(4.0))
    shift = np.roll(np.eye(4), 1, axis=0)
    return {
        "degenerate C^8": ([degenerate], 40),
        "non-normal blocks": ([_rotated_blocks(rng, (3, 2, 1))], 3),
        "two generators": ([d, shift], 1),
        "h vanishes": (_cancelling_pair(), 1),
        "scalar": ([2.5 * np.eye(4)], 16),
        "zero": ([np.zeros((3, 3))], 9),
    }


@pytest.mark.parametrize("case", list(_generator_cases()))
def test_commutant_of_generators_matches_kronecker_oracle(case):
    generators, expected = _generator_cases()[case]
    dim = len(generators[0])
    space = commutant(generators, dim=dim)
    assert space.dim == expected
    assert spans_equal(space, _kron_commutant(generators, dim))


@pytest.mark.parametrize("ratio, expected", ((1.01, 4), (0.99, 6)))
def test_commutant_gap_at_the_cut_matches_kronecker_oracle(ratio, expected):
    # eigenvalues 0, gap, 1, 2: the cut is rank_cutoff * max(||g||, spread), and a
    # gap just below it leaves the pair's units in the commutant (M_2 (+) C (+) C).
    # The cutoff is 1e-5, not the default 1e-9: roundoff determines the
    # eigenvectors of a gap of 2e-9 only to about 1e-7, of 2e-5 to about 1e-11.
    tol = DEFAULT_TOL.replace(rank_cutoff=1e-5)
    gap = ratio * tol.rank_cutoff * 2.0
    u, _ = np.linalg.qr(np.random.default_rng(63).standard_normal((4, 4)))
    g = u @ np.diag([0.0, gap, 1.0, 2.0]) @ u.T
    space = commutant([g], dim=4, tol=tol)
    assert space.dim == expected
    assert spans_equal(space, _kron_commutant([g], 4, tol))


@pytest.mark.parametrize("kind", ("full", "diagonal_masa"))
def test_commutant_makes_no_n_squared_wide_decomposition(kind, monkeypatch):
    # tripwire against the O(N^6) Kronecker solve: at N = 16 no SVD or eigh
    # operand has N^2 = 256 columns, and there is one nullspace call
    shapes, solves = [], []
    for name in ("svd", "eigh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    solve = reflexivity.nullspace_of_constraints

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(reflexivity, "nullspace_of_constraints", counting)
    spec = VonNeumannAlgebraSpec(kind, 16)
    space = commutant(spec)
    assert space.dim == {"full": 1, "diagonal_masa": 16}[kind]
    assert shapes and max(shape[-1] for shape in shapes) < 256
    assert len(solves) == 1


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
    assert spans_equal(first, third, tol=1e-9)


# ----------------------------------------------------------------- lat family


def test_lat_family_full_gives_whole_space_only():
    spec = VonNeumannAlgebraSpec("full", 3)
    fam, algebra = lat_family(spec)
    assert algebra.dim == 9
    assert [s.dim for s in fam] == [3]  # one irreducible piece, no link
    assert full_space_null(fam, 3).shape[1] == 9


def test_lat_family_masa_contains_axes():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    fam, _ = lat_family(spec)
    assert len(fam) == 2  # one piece per axis, pairwise inequivalent
    axes = [Subspace(2, np.eye(2)[:, i : i + 1]) for i in range(2)]
    for axis in axes:
        assert any(s.dim == 1 and subspace_distance(s, axis) <= 1e-8 for s in fam)
    assert full_space_null(fam, 2).shape[1] == 2


def test_lat_family_block_diagonal_alg_dim():
    # invariance of the two block subspaces kills 4 of the 9 entries
    spec = VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1))
    fam, algebra = lat_family(spec)
    computed = alg_of_subspaces(fam, 3)
    assert computed.dim == 5
    # the algebra it builds in closed form is the bicommutant ...
    assert spans_equal(algebra, bicommutant(spec), tol=1e-10)
    # ... and Alg(family), the corner solve's level 0
    assert spans_equal(algebra, computed, tol=1e-10)


def test_lat_family_is_algebra_invariant():
    spec = VonNeumannAlgebraSpec("block_diagonal", 4, pattern=(2, 2))
    algebra = bicommutant(spec)
    for sub in lat_family(spec)[0]:
        p = sub.projection
        for g in algebra.basis_elements:
            assert operator_norm((np.eye(4) - p) @ g @ p) <= 1e-9


def _multiplicity_spec():
    """U (A (x) I_2 (+) B) U* on C^7: the algebra M_2 (x) I_2 (+) M_3, whose
    commutant I_2 (x) M_2 (+) C makes one class of two equivalent pieces."""
    rng = np.random.default_rng(69)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    blocks = np.zeros((7, 7), dtype=complex)
    blocks[:4, :4] = np.kron(a, np.eye(2))
    blocks[4:, 4:] = b
    u, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    return VonNeumannAlgebraSpec("generated", 7, generators=(u @ blocks @ u.conj().T,))


def _degenerate_spec(low, high):
    """U diag(1 x low, 2 x high) U^T: a 2-dimensional algebra whose commutant
    M_low (+) M_high has two classes of pieces of dimension 1."""
    dim = low + high
    u, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((dim, dim)))
    g = u @ np.diag([1.0] * low + [2.0] * high) @ u.T
    return VonNeumannAlgebraSpec("generated", dim, generators=(g,))


def test_lat_family_generated_with_multiplicity_needs_an_intertwiner():
    spec = _multiplicity_spec()
    fam, algebra = lat_family(spec)
    oracle = bicommutant(spec)
    assert algebra.dim == oracle.dim == 4 + 9 and spans_equal(algebra, oracle, tol=1e-9)
    # (2 m - 1) members per class: two pieces and one link, then one piece
    assert len(fam) == (2 * 2 - 1) + (2 * 1 - 1)
    assert sorted(s.dim for s in fam) == [2, 2, 2, 3]
    assert spans_equal(alg_of_subspaces(fam, 7), oracle, tol=1e-9)
    # the link is the graph of a 2 x 2 unitary T between the two pieces: the
    # sum of the pieces without it leaves M_2 (+) M_2 (+) M_3 invariant
    pieces = [s for s in fam if s.dim == 3] + [s for s in fam if s.dim == 2][:2]
    assert full_space_null(pieces, 7).shape[1] == 4 + 4 + 9
    d = rng_generator(np.random.default_rng(70), 7)
    report = reflexivity_check(spec, d, 2)
    assert report.passed and report.dim_computed == report.dim_expected == 13


@pytest.mark.parametrize("low, high, members", ((6, 2, 14), (9, 3, 22)))
def test_lat_family_degenerate_generator_is_minimal(low, high, members):
    spec = _degenerate_spec(low, high)
    fam, algebra = lat_family(spec)
    assert len(fam) == members == (2 * low - 1) + (2 * high - 1)
    oracle = bicommutant(spec)
    assert algebra.dim == oracle.dim == 2 and spans_equal(algebra, oracle, tol=1e-9)
    assert spans_equal(alg_of_subspaces(fam, spec.ambient_dim), oracle, tol=1e-9)


@pytest.mark.parametrize(
    "spec",
    (VonNeumannAlgebraSpec("diagonal_masa", 5), _multiplicity_spec(), _degenerate_spec(6, 2)),
    ids=("masa", "multiplicity", "degenerate"),
)
def test_block_structure_checks_hold_with_margin(spec):
    # a generic draw: every structural residual is far below its tolerance,
    # the eigenvalue cut far below the smallest gap between pieces
    com = commutant(spec)
    herms = np.stack(reflexivity._hermitian_spanning_set(com, DEFAULT_TOL))
    h = np.tensordot(np.random.default_rng(0).standard_normal(len(herms)), herms, axes=1)
    classes, checks = blocks.block_structure(com, h, DEFAULT_TOL)
    assert set(checks) == {
        "cluster_spread", "cluster_gap", "irreducible", "unitary", "commutant_form", "dimension"
    }
    for name, (residual, bound) in checks.items():
        assert residual <= 1e-3 * bound or residual == bound == 0.0, name
    assert sum(len(s) ** 2 for s in classes) == com.dim


@pytest.mark.parametrize(
    "mutant, failing",
    (("perturbed T", "unitary"), ("dropped link", "commutant_form")),
)
def test_block_structure_mutants_fail_certification(mutant, failing, monkeypatch):
    links = blocks.links

    def mutated(compressed, bounds, tol):
        (r, b, t), *rest = links(compressed, bounds, tol)  # the spec has one link
        if mutant == "dropped link":
            return rest
        return [(r, b, t + 1e-6 * np.ones_like(t)), *rest]

    monkeypatch.setattr(blocks, "links", mutated)
    monkeypatch.setattr(reflexivity, "_MAX_REDRAWS", 2)
    with pytest.raises(LatGenerationFailed, match=failing):
        lat_family(_multiplicity_spec())


def test_lat_family_cap_exhaustion_raises(monkeypatch):
    # a scalar h is never generic: its one eigenspace, the whole space, is not
    # irreducible for the masa, so every draw fails
    block_structure, draws = reflexivity.block_structure, []

    def recording(com, h, tol):
        draws.append(h)
        return block_structure(com, h, tol)

    monkeypatch.setattr(
        reflexivity, "_hermitian_spanning_set", lambda space, tol: [np.eye(space.ambient_dim)]
    )
    monkeypatch.setattr(reflexivity, "block_structure", recording)
    monkeypatch.setattr(reflexivity, "_MAX_REDRAWS", 1)
    with pytest.raises(LatGenerationFailed, match="irreducible"):
        lat_family(VonNeumannAlgebraSpec("diagonal_masa", 2))
    assert len(draws) == 2  # the first draw plus _MAX_REDRAWS redraws


def test_hermitian_spanning_set_drops_roundoff_parts_relative_to_the_largest():
    # i E_kk has Hermitian part 0 and imaginary part E_kk.  Tilting i E_00 to
    # (i + t) E_00 gives it a Hermitian part of norm about t, which is kept
    # only above rank_cutoff times the largest part (1 here)
    for tilt, kept in ((0.0, 3), (1e-11, 3), (1e-6, 4)):
        elems = 1j * diag_space(3).basis_elements
        elems[0] *= (1j + tilt) / (1j * np.hypot(1.0, tilt))
        herms = reflexivity._hermitian_spanning_set(OperatorSpace(3, elems), DEFAULT_TOL)
        assert len(herms) == kept
        for h in herms:
            np.testing.assert_array_equal(h, h.conj().T)


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
    assert subspace_distance(p1, expected) <= 1e-12


def test_graph_subspace_zero_generator():
    d = eig_hermitian(np.zeros((2, 2)))
    p2 = graph_subspace(d, 2)
    expected = np.zeros((6, 2), dtype=complex)
    expected[4:, :] = np.eye(2)
    assert subspace_distance(p2, Subspace(6, expected)) <= 1e-12


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
    without = _without_q(fam)
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


def test_alg_of_family_takes_only_an_invariant_family():
    # a plain list of subspaces has no corner structure to solve by
    axis = Subspace(2, np.eye(2)[:, :1])
    for family in ([], [axis]):
        with pytest.raises(TypeError, match="InvariantFamily"):
            alg_of_family(family)


def test_alg_of_single_axis_is_upper_triangular():
    # invariance of span(e_0) kills the (1, 0) entry
    axis = Subspace(2, np.eye(2)[:, :1])
    space = alg_of_subspaces([axis], 2)
    assert space.dim == 3
    expected = OperatorSpace(
        2,
        (
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 1.0]]),
        ),
    )
    assert spans_equal(space, expected, tol=1e-10)


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
    space = alg_of_subspaces([axis], 2)
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
    assert report.membership_bound <= 1e-8


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
            reduced = alg_of_family(_without_q(fam))
            assert reduced.dim >= full.dim
            # imposing the Q_j inside the reduced solution gives the full one
            dim = fam.ambient_dim
            q_members = [s for s, l in zip(fam.subspaces, fam.labels) if l.startswith("Q_")]
            narrowed = _narrow(q_members, dim, reduced)
            assert narrowed.dim == full.dim and spans_equal(narrowed, full, tol=1e-9)
            # so does imposing every member, unstructured, inside it
            assert spans_equal(_narrow(fam.subspaces, dim, reduced), full, tol=1e-9)


def _without_q(family):
    """The family without its Q_j members."""
    keep = [i for i, label in enumerate(family.labels) if not label.startswith("Q_")]
    return InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        family.base_dim,
        family.order,
        family.algebra,
    )


def _narrow(subspaces, dim, space):
    """Operators in ``space`` leaving every subspace invariant, unstructured."""
    within = np.stack([vec(b) for b in space.basis_elements], axis=1)  # orthonormal vec columns
    constraints = [invariance_constraint(s.basis) @ within for s in subspaces]
    basis = within @ nullspace_of_constraints(constraints, dim, scale=1.0)
    return space_of_vec_columns(dim, basis)


def _oracle_spec(kind, base=3):
    if kind == "block_diagonal":
        return VonNeumannAlgebraSpec(kind, base, pattern=(base - 1, 1))
    if kind == "generated":
        u, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((base, base)))
        g = u @ np.diag([1.0] * (base - 1) + [2.0]) @ u.T
        return VonNeumannAlgebraSpec(kind, base, generators=(g,))
    return VonNeumannAlgebraSpec(kind, base)


@pytest.mark.parametrize("n", (0, 1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_structured_solve_matches_full_space_oracle(kind, n, monkeypatch):
    corner_solve, solves = reflexivity._corner_solve, []

    def recording(family, tol):  # keeps the family and the solution of the check
        out = corner_solve(family, tol)
        solves.append((family, *out))
        return out

    monkeypatch.setattr(reflexivity, "_corner_solve", recording)
    for base in (2, 3, 4):
        spec = _oracle_spec(kind, base)
        report = reflexivity_check(spec, rng_generator(np.random.default_rng(60), base), n)
        family, elems, without_q_dim = solves.pop()
        dim = family.ambient_dim
        oracle = full_space_null(family.subspaces, dim)
        without_q = full_space_null(_without_q(family).subspaces, dim)
        assert len(elems) == report.dim_computed == oracle.shape[1] == report.dim_expected
        # needed_Q: the P_j graph lemma gives dim Alg(lat_M) + n N^2 without a solve
        assert without_q_dim == without_q.shape[1] == family.algebra.dim + n * base**2
        assert report.needed_Q == (without_q.shape[1] > oracle.shape[1])
        q, _ = np.linalg.qr(np.stack([vec(b) for b in elems], axis=1))
        assert operator_norm(q @ q.conj().T - oracle @ oracle.conj().T) <= 1e-10


def _recording_nullspace(monkeypatch):
    """Wrap the solver the corner solve calls; each call is recorded as
    (dim, constraint shapes, result shape)."""
    solve, calls = reflexivity.nullspace_of_constraints, []

    def recording(constraints, dim, tol=None, scale=None):
        constraints = list(constraints)
        out = solve(constraints, dim, tol, scale=scale)
        calls.append((dim, [c.shape for c in constraints], out.shape))
        return out

    monkeypatch.setattr(reflexivity, "nullspace_of_constraints", recording)
    return calls


@pytest.mark.parametrize("n", (0, 1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal"))
def test_corner_tower_levels_and_constraint_widths(kind, n, monkeypatch):
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(64), 3)
    family = invariant_family(spec, d, n)
    calls = _recording_nullspace(monkeypatch)
    elems, without_q_dim = reflexivity._corner_solve(family, DEFAULT_TOL)
    base, alg_dim = 3, spec.expected_dim()
    assert elems.shape == (alg_dim, 3 * (n + 1), 3 * (n + 1))
    # one solve per level j >= 2, none at level 1; needed_Q takes no solve
    assert [dim for dim, _, _ in calls] == [base * j for j in range(2, n + 1)]
    # its one constraint is Kc* A K = 0: (j - 1) N^2 rows over the coefficients
    # of A on the level below, which is the algebra in that level's dimension
    widths = [[((j - 1) * base**2, alg_dim)] for j in range(2, n + 1)]
    assert [shapes for _, shapes, _ in calls] == widths
    assert [out for _, _, out in calls] == [(alg_dim, alg_dim)] * max(n - 1, 0)
    assert without_q_dim == family.algebra.dim + n * base**2


@pytest.mark.parametrize("drop", (("P_",), ("Q_",), ("P_", "Q_"), ("P_2",)))
def test_corner_solve_without_graph_members_matches_oracle(drop):
    # a level with no P_j (or no Q_j) member leaves its coordinates free, and
    # without the Q_j it adds N^2 (j + 1) dimensions where a P_j adds N^2
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.2, 1.4])), 2)
    keep = [i for i, label in enumerate(family.labels) if not label.startswith(drop)]
    reduced = InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        2,
        2,
        family.algebra,
    )
    elems, without_q_dim = reflexivity._corner_solve(reduced, DEFAULT_TOL)
    oracle = full_space_null(reduced.subspaces, 6)
    assert len(elems) == oracle.shape[1] > 2
    assert without_q_dim == full_space_null(_without_q(reduced).subspaces, 6).shape[1]
    q, _ = np.linalg.qr(np.stack([vec(b) for b in elems], axis=1))
    assert operator_norm(q @ q.conj().T - oracle @ oracle.conj().T) <= 1e-10


def test_corner_solve_starts_from_the_certified_lat_algebra(monkeypatch):
    # level 0 is the algebra lat_family built, which is Alg(lat_M)
    spec = VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1))
    d = rng_generator(np.random.default_rng(65), 3)
    family = invariant_family(spec, d, 0)
    lat, algebra = lat_family(spec)
    assert spans_equal(family.algebra, algebra, tol=1e-12)
    assert spans_equal(alg_of_subspaces(lat, 3), algebra, tol=1e-10)
    calls = _recording_nullspace(monkeypatch)
    elems, without_q_dim = reflexivity._corner_solve(family, DEFAULT_TOL)
    assert not calls and elems is family.algebra.basis_elements
    assert without_q_dim == len(elems) == 5
    # a hand-built family states its algebra on the base space
    with pytest.raises(ValueError, match="base space"):
        InvariantFamily(family.subspaces, family.labels, 3, 0, diag_space(2))


def _checked_tower(spec, d, n, monkeypatch, mutate=None, seed=0):
    """The check's report and the tower it judged: the solved stack, or
    ``mutate`` of it."""
    corner_solve, judged = reflexivity._corner_solve, []

    def mutated(family, tol):
        elems, without_q_dim = corner_solve(family, tol)
        judged.append(elems if mutate is None else mutate(elems))
        return judged[-1], without_q_dim

    monkeypatch.setattr(reflexivity, "_corner_solve", mutated)
    report = reflexivity_check(spec, d, n, seed=seed, raise_on_fail=False)
    return report, judged.pop()


def _membership(spec, d, n, elems):
    """The largest membership residual of Phi(a) in the span of the tower,
    over the algebra's basis, the algebra solved as the bicommutant."""
    space = OperatorSpace.span(elems.shape[1], elems)
    return max(
        space.membership_residual(triangular_representation(derivative_chain(d, g, n)).matrix)
        for g in bicommutant(spec).basis_elements
    )


@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_batched_check_matches_per_element_path(kind, n, monkeypatch):
    # per element: one chain and one triangular representation each; the
    # measured membership residual of the algebra in the orthonormalized tower
    # is within the implied bound the check reports
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(62), 3)
    report, elems = _checked_tower(spec, d, n, monkeypatch)
    reps = [triangular_representation(derivative_chain(d, x[:3, :3], n)).matrix for x in elems]
    batched = triangular_representations(d, elems[:, :3, :3], n)
    for rep, want in zip(batched, reps):
        assert operator_norm(rep - want) <= 1e-12 * (1 + operator_norm(want))
    recon = [np.linalg.norm(x - rep) for x, rep in zip(elems, reps)]
    assert len(report.element_residuals) == len(recon) == len(elems)
    for got, want in zip(report.element_residuals, recon):
        assert abs(got - want) <= 1e-12 * (1 + want)
    assert report.max_reconstruction_residual == max(report.element_residuals)
    # measuring the residual rounds too, by about eps per dimension of C^d
    roundoff = elems.shape[1] * np.finfo(float).eps
    assert _membership(spec, d, n, elems) <= report.membership_bound + roundoff
    assert report.dim_expected == bicommutant(spec).dim == len(elems)
    assert report.passed == (max(max(recon), report.membership_bound) <= report.tolerance)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_membership_bound_holds_for_a_perturbed_tower(kind, n, monkeypatch):
    # 1e-7 N(0, 1) on every entry moves the corners off M and off orthonormality
    # and the elements off Phi of their corners, far above roundoff: the bound
    # still covers the measured membership residual, and the check fails
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(62), 3)
    rng = np.random.default_rng(69)
    report, elems = _checked_tower(
        spec, d, n, monkeypatch, lambda elems: elems + 1e-7 * rng.standard_normal(elems.shape)
    )
    member = _membership(spec, d, n, elems)
    assert 1e-9 < member <= report.membership_bound
    assert not report.passed


def test_reflexivity_check_with_prebuilt_family(monkeypatch):
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = rng_generator(np.random.default_rng(63), 3)
    family = invariant_family(spec, d, 2, seed=4)
    assert spans_equal(family.algebra, bicommutant(spec), tol=1e-10)
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
    # every member has a label the solve knows
    unknown = InvariantFamily(
        family.subspaces, family.labels[:-1] + ("R_1",), 2, 1, family.algebra
    )
    with pytest.raises(ValueError, match="R_1 is not a label"):
        alg_of_family(unknown)


def test_corner_solve_rejects_p_members_that_are_not_one_graph():
    # needed_Q counts N^2 free coordinates per P_j, which holds for a graph over block j
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    family = invariant_family(spec, d, 1)
    eye = np.eye(4)
    for not_graph in (Subspace(4, eye[:, :2]), Subspace(4, eye[:, [0, 2]]), Subspace(4, eye[:, 2:3])):
        with pytest.raises(ValueError, match="not a graph over block 1"):
            alg_of_family(_relabeled(family, "P_1", not_graph))
    (p1,) = [s for s, l in zip(family.subspaces, family.labels) if l == "P_1"]
    twice = InvariantFamily(
        family.subspaces + (p1,),
        family.labels + ("P_1",),
        2,
        1,
        family.algebra,
    )
    with pytest.raises(ValueError, match="two P_1"):
        alg_of_family(twice)


def _graph_map(family, label):
    """G = top bot^-1 of the graph member with this label."""
    (sub,) = [s for s, l in zip(family.subspaces, family.labels) if l == label]
    j, base = int(label[2:]), family.base_dim
    top, bot = sub.basis[: base * j], sub.basis[base * j : base * (j + 1)]
    return top @ np.linalg.inv(bot)


def test_corner_solve_rejects_q_members_that_are_not_a_graph():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.0, 1.0])), 1)
    eye = np.eye(4)
    for not_graph in (Subspace(4, eye[:, :2]), Subspace(4, eye[:, [0, 2]]), Subspace(4, eye[:, 2:3])):
        with pytest.raises(ValueError, match="Q_1 is not a graph over block 1"):
            alg_of_family(_relabeled(family, "Q_1", not_graph))


def test_corner_solve_rejects_two_q_members_on_a_level():
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.0, 1.0])), 1)
    (q1,) = [s for s, l in zip(family.subspaces, family.labels) if l == "Q_1"]
    twice = InvariantFamily(
        family.subspaces + (q1,), family.labels + ("Q_1",), 2, 1, family.algebra
    )
    with pytest.raises(ValueError, match="two Q_1"):
        alg_of_family(twice)


def test_corner_solve_rejects_p_and_q_members_with_a_rank_deficient_k():
    # Y_bot = K+ A K needs K = G - G' of full column rank N
    spec = VonNeumannAlgebraSpec("full", 2)
    family = invariant_family(spec, rng_generator(np.random.default_rng(67), 2), 2)
    for j in (1, 2):
        k = _graph_map(family, f"P_{j}") - _graph_map(family, f"Q_{j}")
        # on a built family block j - 1 of K is -iI, so sigma_min(K) >= 1
        np.testing.assert_allclose(k[2 * (j - 1) :], -1j * np.eye(2), atol=1e-12)
        assert np.linalg.svd(k, compute_uv=False)[-1] >= 1 - 1e-12
    (p2,) = [s for s, l in zip(family.subspaces, family.labels) if l == "P_2"]
    with pytest.raises(ValueError, match="rank below 2"):
        alg_of_family(_relabeled(family, "Q_2", p2))  # K = 0
    # a hand-built Q_2 whose K has rank 1: the graph of G + k e_1 e_1*
    g, k = _graph_map(family, "P_2"), np.zeros((4, 2))
    k[0, 0] = 1.0
    rank_one = Subspace.from_columns(np.vstack([g + k, np.eye(2)]))
    with pytest.raises(ValueError, match="rank below 2"):
        alg_of_family(_relabeled(family, "Q_2", rank_one))


@pytest.mark.parametrize("drop", (("Q_1",), ("P_1",), ("P_1", "Q_1")))
def test_corner_solve_level_constraint_matches_oracle(drop, monkeypatch):
    # without a graph member at level 1, level 1 is larger than the algebra's
    # representation, and the constraint Kc* A K = 0 of level 2 cuts it back
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.2, 1.4])), 2)
    keep = [i for i, label in enumerate(family.labels) if label not in drop]
    reduced = InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        2,
        2,
        family.algebra,
    )
    calls = _recording_nullspace(monkeypatch)
    elems, _ = reflexivity._corner_solve(reduced, DEFAULT_TOL)
    ((_, [(rows, cols)], (_, kept)),) = calls
    assert rows == 4 and cols == 2 + 4 * len(drop) and kept < cols  # N^2 or 2 N^2 free at level 1
    oracle = full_space_null(reduced.subspaces, 6)
    assert len(elems) == kept == oracle.shape[1]
    q, _ = np.linalg.qr(np.stack([vec(b) for b in elems], axis=1))
    assert operator_norm(q @ q.conj().T - oracle @ oracle.conj().T) <= 1e-10


@pytest.mark.parametrize("base", (3, 8))
def test_reflexivity_check_fails_without_the_top_q_member(base):
    # dropping Q_n leaves Y_bot free on the top level: the solution is too large.
    # (Dropping a lower Q_j is no mutant: the constraint of the level above
    # cuts the solution back to the algebra's representation.)
    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, 1)
    family = invariant_family(spec, gen, 2, seed=1)
    assert reflexivity_check(spec, gen, 2, family=family).passed
    keep = [i for i, label in enumerate(family.labels) if label != "Q_2"]
    mutant = InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        base,
        2,
        family.algebra,
    )
    report = reflexivity_check(spec, gen, 2, family=mutant, raise_on_fail=False)
    assert not report.passed and report.dim_computed == 2 * base**2


@pytest.mark.parametrize("base", (3, 8))
def test_reflexivity_check_fails_a_solve_that_loses_a_basis_element(base, monkeypatch):
    corner_solve = reflexivity._corner_solve

    def losing(family, tol):
        elems, without_q_dim = corner_solve(family, tol)
        return elems[1:], without_q_dim

    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, 1)
    monkeypatch.setattr(reflexivity, "_corner_solve", losing)
    report = reflexivity_check(spec, gen, 2, seed=1, raise_on_fail=False)
    assert not report.passed and report.dim_computed == base**2 - 1
    with pytest.raises(ReflexivityViolation):
        reflexivity_check(spec, gen, 2, seed=1)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_reflexivity_check_fails_a_perturbed_top_block_column(seed, monkeypatch):
    # eps = 1e-6 N(0, 1) on every Y_top entry of the solved elements: no element
    # is the representation of its (0, 0) block any more.  At full (8, 2) the
    # Frobenius reconstruction residual is over 11 times the tolerance (seeds
    # 1-10).  The same mutant at (16, 3) waits for a tolerance from a roundoff
    # model of the tower (ROADMAP item 2): its reconstruction residual reads
    # about 0.1 of today's tolerance there.
    base, n, noise = 8, 2, np.random.default_rng(seed)

    def perturbed(elems):
        elems = elems.copy()
        elems[:, : base * n, base * n :] += 1e-6 * noise.standard_normal((len(elems), base * n, base))
        return elems

    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, seed)
    assert reflexivity_check(spec, gen, n, seed=seed).passed
    report, _ = _checked_tower(spec, gen, n, monkeypatch, perturbed, seed=seed)
    assert report.dim_computed == base**2
    assert not report.passed and report.max_reconstruction_residual > 10 * report.tolerance


def test_reflexivity_check_fails_a_solve_that_repeats_an_element(monkeypatch):
    # the count m is right but the elements span one dimension less: the corner
    # Gram certificate fails, and sigma = 0 makes the membership bound infinite
    spec = VonNeumannAlgebraSpec("full", 3)
    gen, _ = random_scenario(3, 1)
    report, _ = _checked_tower(
        spec, gen, 2, monkeypatch, lambda elems: np.concatenate([elems[:-1], elems[:1]]), seed=1
    )
    assert report.dim_computed == 9 and report.max_reconstruction_residual <= report.tolerance
    assert not report.passed and report.membership_bound == np.inf


def test_reflexivity_check_fails_a_corner_outside_the_algebra(monkeypatch):
    # one element replaced by the representation of a unit corner with an
    # off-diagonal part: orthonormal corners and exact reconstruction, but the
    # solution holds an operator outside Phi(M), which only the corners-in-M
    # residual in the membership bound sees
    def leaking(elems):
        corner = elems[0, :3, :3].copy()
        corner[0, 1] = 1e-3
        corner /= np.linalg.norm(corner)
        elems = elems.copy()
        elems[0] = triangular_representations(gen, corner[None], 2)[0]
        return elems

    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    gen, _ = random_scenario(3, 1)
    report, _ = _checked_tower(spec, gen, 2, monkeypatch, leaking, seed=1)
    assert report.dim_computed == 3 and report.max_reconstruction_residual <= report.tolerance
    assert not report.passed and report.membership_bound > 100 * report.tolerance


def test_reflexivity_check_counts_against_the_closed_form_dimension():
    # a family built for the diagonal masa solves to that algebra, consistently
    # with the algebra it carries; the closed form of ``full`` still fails it
    gen = rng_generator(np.random.default_rng(68), 3)
    masa = invariant_family(VonNeumannAlgebraSpec("diagonal_masa", 3), gen, 1)
    full = VonNeumannAlgebraSpec("full", 3)
    report = reflexivity_check(full, gen, 1, family=masa, raise_on_fail=False)
    assert report.dim_computed == masa.algebra.dim == 3
    assert report.dim_expected == 9 and not report.passed


def test_reflexivity_check_makes_no_svd_of_a_vec_stack(monkeypatch):
    # the verdict is read off the tower in its own coordinates: no SVD and no
    # QR sees an operand with d^2 = 81 rows or columns (operators on C^9)
    svd, qr, svd_shapes, qr_shapes = np.linalg.svd, np.linalg.qr, [], []

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_qr(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    spec = VonNeumannAlgebraSpec("full", 3)
    report = reflexivity_check(spec, rng_generator(np.random.default_rng(66), 3), 2)
    assert report.passed and report.dim_computed == 9
    assert svd_shapes and not [shape for shape in svd_shapes + qr_shapes if 81 in shape]


def test_reflexivity_check_represents_only_the_corners_of_the_tower(monkeypatch):
    # with the family prebuilt, the check represents the tower's m corners once,
    # for reconstruction: the solution is not orthonormalized, and the algebra's
    # basis is not represented for a membership pass
    spec = VonNeumannAlgebraSpec("full", 3)
    gen = rng_generator(np.random.default_rng(66), 3)
    family = invariant_family(spec, gen, 2)
    represented = []

    def recording(d, xs, n):
        represented.append(xs.shape)
        return triangular_representations(d, xs, n)

    def forbidden(*args, **kwargs):
        raise AssertionError("OperatorSpace.span called")

    monkeypatch.setattr(reflexivity, "triangular_representations", recording)
    monkeypatch.setattr(OperatorSpace, "span", classmethod(forbidden))
    assert reflexivity_check(spec, gen, 2, family=family).passed
    assert represented == [(9, 3, 3)]


def test_reflexivity_full_c16_n3():
    spec = VonNeumannAlgebraSpec("full", 16)
    gen, _ = random_scenario(16, 1)
    report = reflexivity_check(spec, gen, 3, seed=1)
    assert report.passed and report.dim_computed == 256 and report.needed_Q


def test_reflexivity_full_c16_n4():
    spec = VonNeumannAlgebraSpec("full", 16)
    gen, _ = random_scenario(16, 1)
    report = reflexivity_check(spec, gen, 4, seed=1)
    assert report.passed and report.dim_computed == 256 and report.needed_Q


@pytest.mark.slow
def test_reflexivity_full_c24_n3():
    spec = VonNeumannAlgebraSpec("full", 24)
    gen, _ = random_scenario(24, 1)
    report = reflexivity_check(spec, gen, 3, seed=1)
    assert report.passed and report.dim_computed == 576 and report.needed_Q


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


def test_reflexivity_check_forms_no_corner_exponential(monkeypatch):
    # the tolerance comes from the closed-form norm of exp(+-S): with the
    # family prebuilt, the check never builds exp(+-S), let alone its SVD
    spec = VonNeumannAlgebraSpec("full", 3)
    gen, _ = random_scenario(3, 6)
    family = invariant_family(spec, gen, 2, seed=6)

    def forbidden(*args, **kwargs):
        raise AssertionError("corner_exponential called")

    monkeypatch.setattr(reflexivity, "corner_exponential", forbidden)
    report = reflexivity_check(spec, gen, 2, seed=6, family=family)
    assert report.passed
    fwd, bwd = corner_exponential(gen, 2)
    assert report.tolerance == pytest.approx(DEFAULT_TOL.alg(fwd.norm(), bwd.norm()), rel=1e-13)


def test_reflexivity_generated_algebra():
    g = np.diag([1.0, 1.0, 2.0]).astype(complex)
    spec = VonNeumannAlgebraSpec("generated", 3, generators=(g,))
    d = eig_hermitian(np.diag([0.4, 1.2, 2.9]))
    report = reflexivity_check(spec, d, 1)
    assert report.passed and report.dim_computed == 2


def test_reflexivity_violation_raises_with_diagnostics():
    # without Q_1 the bottom block is free: dimension 2 N^2 = 8, not 4
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    mutant = _without_q(invariant_family(spec, d, 1))
    with pytest.raises(ReflexivityViolation) as err:
        reflexivity_check(spec, d, 1, family=mutant)
    assert err.value.report.dim_computed == 8 and not err.value.report.passed
    report = reflexivity_check(spec, d, 1, family=mutant, raise_on_fail=False)
    assert report == err.value.report


def test_reflexivity_violation_message_names_the_deciding_values():
    # without Q_1 at order 2 the dimension is right and the reconstruction
    # exact, and the check fails on the membership bound alone: the message
    # shows it and the tolerance beside the reconstruction residual
    spec = VonNeumannAlgebraSpec("full", 3)
    gen, _ = random_scenario(3, 1)
    family = invariant_family(spec, gen, 2, seed=1)
    keep = [i for i, label in enumerate(family.labels) if label != "Q_1"]
    mutant = InvariantFamily(
        tuple(family.subspaces[i] for i in keep),
        tuple(family.labels[i] for i in keep),
        3,
        2,
        family.algebra,
    )
    with pytest.raises(ReflexivityViolation) as err:
        reflexivity_check(spec, gen, 2, family=mutant)
    report = err.value.report
    assert report.dim_computed == report.dim_expected == 9
    assert report.max_reconstruction_residual <= report.tolerance
    assert report.membership_bound == np.inf
    message = str(err.value)
    assert f"reconstruction residual {report.max_reconstruction_residual:.3e}" in message
    assert "membership bound inf" in message
    assert f"tolerance {report.tolerance:.3e}" in message


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
