"""Tests for commutants, invariant families, and the reflexivity check."""

import collections
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opderiv import blocks, core, reflexivity
from opderiv.core import (
    DEFAULT_TOL,
    GraphSubspace,
    OperatorSpace,
    Subspace,
    eig_hermitian,
    frobenius_norm,
    nullspace_of_constraints,
    operator_norm,
)
from opderiv.derivation import derivative_chain
from opderiv.harness import _CHECKS, ScenarioConfig, ScenarioData, run_checks
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
    _exponential_terms,
    corner_exponential,
    triangular_representation,
    triangular_representations,
)
from oracles import (
    alg_of_subspaces,
    commutation_constraint,
    full_space_null,
    invariance_constraint,
    projection,
    space_of_vec_columns,
    spans_equal,
    subspace_distance,
    subspace_from_columns,
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
        p = projection(sub)
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


def _rotated_block_spec(pattern, seed):
    """``generated`` by U (A_1 + ... + A_k) U* with complex Gaussian blocks:
    the direct sum of full matrix algebras, of dimension sum k_i^2."""
    rng = np.random.default_rng(seed)
    dim = sum(pattern)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    blocks_ = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for k in pattern:
        blocks_[offset : offset + k, offset : offset + k] = (
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        )
        offset += k
    return VonNeumannAlgebraSpec("generated", dim, generators=(u @ blocks_ @ u.conj().T,))


@pytest.mark.parametrize(
    "spec",
    (
        VonNeumannAlgebraSpec("full", 8),
        VonNeumannAlgebraSpec("diagonal_masa", 8),
        VonNeumannAlgebraSpec("block_diagonal", 8, pattern=(3, 5)),
        _rotated_block_spec((4, 4, 4), 74),
    ),
    ids=("full", "diagonal_masa", "block_diagonal", "generated-4-4-4"),
)
def test_class_algebra_basis_is_orthonormal_without_the_check(spec, monkeypatch):
    # the class algebra's basis, formed on first use, is never Gram-checked;
    # built from certified pieces, it still passes the check with a wide margin
    calls = []
    gram = core._gram_deviation
    monkeypatch.setattr(core, "_gram_deviation", lambda rows: calls.append(rows) or gram(rows))
    _, algebra = lat_family(spec)
    m, d = algebra.dim, spec.ambient_dim
    # the algebra was not checked on construction
    assert calls and not [rows for rows in calls if np.shares_memory(rows, algebra.basis_elements)]
    assert m == (spec.expected_dim() or 48)
    assert gram(algebra.basis_elements.reshape(m, d * d)) <= core._GRAM_GUARD


@pytest.mark.parametrize(
    "spec",
    (
        VonNeumannAlgebraSpec("full", 8),
        VonNeumannAlgebraSpec("diagonal_masa", 8),
        VonNeumannAlgebraSpec("block_diagonal", 8, pattern=(3, 5)),
        _rotated_block_spec((4, 4, 4), 74),
        _multiplicity_spec(),
        _degenerate_spec(6, 2),
    ),
    ids=(
        "full", "diagonal_masa", "block_diagonal",
        "generated-4-4-4", "generated-m2", "generated-m6-m2",
    ),
)
def test_class_algebra_draws_and_projects_as_its_basis(spec):
    # the classes give M's elements, its projection and its dimension without
    # its basis B: sum_j s_j R_k s_j* / sqrt(m_k) is r @ B, and the class
    # projection is the basis projection, each to roundoff (not bitwise)
    _, algebra = lat_family(spec)
    basis = algebra.basis_elements
    m, d = len(basis), spec.ambient_dim
    assert algebra.dim == m and algebra.basis_elements is basis
    rng = np.random.default_rng(76)
    r = rng.standard_normal((16, m)) + 1j * rng.standard_normal((16, m))
    drawn = (r @ basis.reshape(m, d * d)).reshape(16, d, d)
    elements = algebra.elements(r)
    assert frobenius_norm(elements - drawn).max() <= 1e-14 * frobenius_norm(drawn).max()
    outside = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
    ops = np.concatenate([drawn, outside])
    projected = algebra._residuals(ops)
    oracle = OperatorSpace(d, basis)._residuals(ops)
    np.testing.assert_allclose(projected, oracle, rtol=0, atol=1e-14)
    assert projected[:16].max() <= 1e-14
    if m < d * d:  # a random operator lies outside a proper subalgebra
        assert projected[16:].min() > 0.1
    with pytest.raises(core.DimensionMismatch):
        algebra._residuals(np.zeros((1, d + 1, d + 1), dtype=complex))


def test_probe_path_never_forms_the_basis(monkeypatch):
    # dim M > 16: the family's generators check projects class by class and
    # the check draws its Gaussian elements from the classes, so neither
    # reflexivity_check nor a run of every check forms M's (dim M, N, N) basis
    def refuse(self):
        raise AssertionError("formed the basis of the algebra")

    monkeypatch.setattr(blocks.ClassAlgebra, "basis_elements", property(refuse))
    for spec in (
        VonNeumannAlgebraSpec("full", 6),
        VonNeumannAlgebraSpec("block_diagonal", 6, pattern=(3, 3)),
        _rotated_block_spec((4, 4, 4), 74),
    ):
        gen, _ = random_scenario(spec.ambient_dim, 1)
        report = reflexivity_check(spec, gen, 2, seed=1)
        assert report.passed and report.dim_computed > reflexivity._PROBES
    raw = {
        "scenario": {"kind": "random", "N": 6}, "algebra": "full",
        "n": 2, "seed": 3, "checks": ["all"],
    }
    assert run_checks(ScenarioConfig.from_dict(raw)).overall_pass
    with pytest.raises(AssertionError, match="formed the basis"):
        reflexivity_check(VonNeumannAlgebraSpec("full", 4), random_scenario(4, 1)[0], 1)  # dim 16


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


def _generated_with_multiplicity(k, m, seed):
    """U (A (x) I_m) U* on C^(km), A a random k x k matrix: the algebra
    M_k (x) I_m, whose commutant I_k (x) M_m has dimension m^2."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    u, _ = np.linalg.qr(rng.standard_normal((k * m,) * 2) + 1j * rng.standard_normal((k * m,) * 2))
    return VonNeumannAlgebraSpec("generated", k * m, generators=(u @ np.kron(a, np.eye(m)) @ u.conj().T,))


_BLOCK_PATTERNS = {1: (1,), 3: (1, 2), 8: (3, 5), 48: (16, 32)}
_SPANNING_SPECS = {
    **{f"{kind}_{size}": lambda kind=kind, size=size: VonNeumannAlgebraSpec(kind, size)
       for kind in ("full", "diagonal_masa") for size in _BLOCK_PATTERNS},
    **{f"block_diagonal_{size}": lambda p=p: VonNeumannAlgebraSpec("block_diagonal", sum(p), pattern=p)
       for size, p in _BLOCK_PATTERNS.items()},
    "generated_a_x_i3": lambda: _generated_with_multiplicity(2, 3, seed=57),
}


@pytest.mark.parametrize("case", _SPANNING_SPECS)
def test_hermitian_spanning_set_keeps_the_parts_the_operator_norm_keeps(case):
    # the screen by Frobenius norms keeps the same parts, bitwise, as a
    # screen of the real and imaginary parts by operator norms
    com = commutant(_SPANNING_SPECS[case]())
    b = com.basis_elements
    bh = b.conj().transpose(0, 2, 1)
    parts = [p for pair in zip((b + bh) / 2, (b - bh) / 2j) for p in pair]
    norms = [operator_norm(p) for p in parts]
    by_operator_norm = [p for p, v in zip(parts, norms) if v > DEFAULT_TOL.rank_cutoff * max(norms)]
    kept = reflexivity._hermitian_spanning_set(com, DEFAULT_TOL)
    assert com.dim <= len(kept) == len(by_operator_norm) <= 2 * com.dim
    for a, c in zip(kept, by_operator_norm):
        np.testing.assert_array_equal(a, c)


# ------------------------------------------------------------- graph subspace


def test_graph_subspace_hand_n1():
    # T(xi tensor e_1) = iD xi tensor e_0 + xi tensor e_1 for D = diag(0, 1):
    # span{(0,0,1,0), (0,i,0,1)} in block order (e_0 block, e_1 block)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    p1 = graph_subspace(d, 1)
    expected_cols = np.array(
        [[0.0, 0.0], [0.0, 1j], [1.0, 0.0], [0.0, 1.0]], dtype=complex
    )
    expected = subspace_from_columns(expected_cols)
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
    p = projection(graph_subspace(d, n))
    eye = np.eye(3 * (n + 1))
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = triangular_representation(derivative_chain(d, x, n))
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


@pytest.mark.parametrize("shift", (0.0, 1.0))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_graph_subspace_matches_the_svd_of_the_corner_exponential(n, shift):
    # the closed-form QR basis spans what the SVD of exp(S)'s last block column does
    d = rng_generator(np.random.default_rng(54), 4, spread=2.0)
    fwd, _ = corner_exponential(d, n, shift=shift)
    svd_route = subspace_from_columns(fwd[:, n * 4 :])
    sub = graph_subspace(d, n, shift=shift)
    assert sub.dim == 4
    assert operator_norm(projection(sub) - projection(svd_route)) <= 1e-12


def test_reflexivity_check_forms_no_projection():
    # the tower and the invariance residuals read every member through its
    # basis: a subspace has no projection to form
    assert not hasattr(Subspace, "projection")
    spec = VonNeumannAlgebraSpec("block_diagonal", 4, pattern=(2, 2))
    d = rng_generator(np.random.default_rng(55), 4)
    family = invariant_family(spec, d, 2)
    assert reflexivity_check(spec, d, 2, family=family).passed
    assert max(invariance_residuals(family, d, spec.generating_set()).values()) <= 1e-10


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


@pytest.mark.parametrize(
    "spec, eigenvalues, n",
    [
        (VonNeumannAlgebraSpec("full", 1), [0.5], 2),
        (VonNeumannAlgebraSpec("full", 2), [1.0, 1.0], 1),
        (VonNeumannAlgebraSpec("diagonal_masa", 3), [1.0 - 1e-12, 1.0, 2.5], 2),
        (VonNeumannAlgebraSpec("block_diagonal", 3, pattern=(2, 1)), [0.0, 1e-9, 2.0], 1),
    ],
)
def test_invariance_residuals_bracket_the_operator_norm(spec, eigenvalues, n, monkeypatch):
    # the leak ||X B - B (B* X B)||_F is ||(I - P) X P||_F, and ||R||_2 <= ||R||_F
    # <= sqrt(rank R) ||R||_2 for R = (I - P) X P.  Both are held where the leak
    # is of order 1: X = rep(x) plus a random strictly block-lower part, for
    # every member kind; on the generators themselves the leak is roundoff and
    # meets the check's tolerance
    u, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((spec.ambient_dim,) * 2))
    d = eig_hermitian((u * eigenvalues) @ u.T)
    fam = invariant_family(spec, d, n)
    assert {re.match(r"lat_M|[HPQ]", label).group() for label in fam.labels} == {"lat_M", "H", "P", "Q"}
    elements = spec.generating_set()
    rng = np.random.default_rng(100 + n)
    dim, base = fam.ambient_dim, spec.ambient_dim
    lower = rng.standard_normal((len(elements), dim, dim)) + 1j * rng.standard_normal((len(elements), dim, dim))
    lower *= np.kron(np.tri(n + 1, k=-1), np.ones((base, base)))
    leaky = triangular_representations(d, np.stack(elements), n) + lower
    monkeypatch.setattr(reflexivity, "triangular_representations", lambda d, xs, n: leaky)
    resid = invariance_residuals(fam, d, elements)
    eye = np.eye(dim)
    for sub, label in zip(fam.subspaces, fam.labels):
        p = projection(sub)
        r = [(eye - p) @ x @ p for x in leaky]
        op = max(operator_norm(a) for a in r)
        assert op * (1 - 1e-12) <= resid[label] <= np.sqrt(dim) * op * (1 + 1e-12)
        assert resid[label] == pytest.approx(max(frobenius_norm(a) for a in r), rel=1e-12, abs=0)
    # H_n is the whole space; every other member leaks
    assert resid[f"H_{n}"] == 0.0 and min(v for k, v in resid.items() if k != f"H_{n}") > 1e-3
    monkeypatch.undo()
    resid = invariance_residuals(fam, d, elements)
    assert max(resid.values()) <= DEFAULT_TOL.alg((1.0 + d.norm()) ** n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_leading_corner_leaks_match_the_projection_oracle(n, monkeypatch):
    # an H_j member, basis [I_r; 0] with r = N(j + 1), leaks ||X[r:, :r]||_F,
    # read with no product: held against ||(I - P) X P||_F on X = rep(x) plus
    # a random strictly block-lower part, which every H_j but H_n sees
    spec = VonNeumannAlgebraSpec("diagonal_masa", 3)
    d = rng_generator(np.random.default_rng(75), 3)
    fam = invariant_family(spec, d, n)
    elements = spec.generating_set() + [np.diag([1.0, 2.0, 3.0j])]
    rng = np.random.default_rng(110 + n)
    dim = fam.ambient_dim
    lower = rng.standard_normal((len(elements), dim, dim)) + 1j * rng.standard_normal((len(elements), dim, dim))
    lower *= np.kron(np.tri(n + 1, k=-1), np.ones((3, 3)))
    leaky = triangular_representations(d, np.stack(elements), n) + lower
    monkeypatch.setattr(reflexivity, "triangular_representations", lambda d, xs, n: leaky)
    resid = invariance_residuals(fam, d, elements)
    eye = np.eye(dim)
    for j in range(n + 1):
        p = projection(dict(zip(fam.labels, fam.subspaces))[f"H_{j}"])
        want = max(frobenius_norm((eye - p) @ x @ p) for x in leaky)
        assert resid[f"H_{j}"] == pytest.approx(want, rel=1e-15, abs=0)
        assert (resid[f"H_{j}"] > 1) == (j < n)
    assert resid[f"H_{n}"] == 0.0


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
        assert operator_norm(x - rep) <= 1e-10


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
    # the family without its Q_j, solved by the full-space oracle, has the
    # graph lemma's dimension dim M + n N^2; the corner solve takes complete
    # families only and rejects it
    rng = np.random.default_rng(55)
    d = rng_generator(rng, 3)
    for kind in ("full", "diagonal_masa"):
        spec = VonNeumannAlgebraSpec(kind, 3)
        for n in (1, 2):
            fam = invariant_family(spec, d, n)
            full = alg_of_family(fam)
            with pytest.raises(ValueError, match="needs Q_1"):
                alg_of_family(_without_q(fam))
            reduced = alg_of_subspaces(_without_q(fam).subspaces, fam.ambient_dim)
            assert reduced.dim == fam.algebra.dim + n * 3**2 >= full.dim
            # imposing the Q_j inside the reduced solution gives the full one
            dim = fam.ambient_dim
            q_members = [s for s, l in zip(fam.subspaces, fam.labels) if l.startswith("Q_")]
            narrowed = _narrow(q_members, dim, reduced)
            assert narrowed.dim == full.dim and spans_equal(narrowed, full, tol=1e-9)
            # so does imposing every member, unstructured, inside it
            assert spans_equal(_narrow(fam.subspaces, dim, reduced), full, tol=1e-9)


def _without_q(family):
    """The family without its Q_j members."""
    return _without(family, ("Q_",))


def _without(family, drop):
    """The family without the members whose labels start with one of ``drop``."""
    keep = [i for i, label in enumerate(family.labels) if not label.startswith(drop)]
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

    def recording(family, tol, start=None):  # keeps the family, the solution and the ratio
        out = corner_solve(family, tol, start)
        solves.append((family, *out))
        return out

    monkeypatch.setattr(reflexivity, "_corner_solve", recording)
    for base in (2, 3, 4):
        spec = _oracle_spec(kind, base)
        report = reflexivity_check(spec, rng_generator(np.random.default_rng(60), base), n)
        family, elems, ratio = solves.pop()
        dim = family.ambient_dim
        oracle = full_space_null(family.subspaces, dim)
        without_q = full_space_null(_without_q(family).subspaces, dim)
        assert len(elems) == report.dim_computed == oracle.shape[1] == report.dim_expected
        assert report.certificate_ratio == ratio <= 1
        # needed_Q: the P_j graph lemma gives dim Alg(lat_M) + n N^2 without a solve
        assert without_q.shape[1] == family.algebra.dim + n * base**2
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


def _recording_levels(monkeypatch):
    """Wrap the corner level; each level is recorded as (stack below, G of
    P_j, G' of Q_j, certificate ratio)."""
    level, levels = reflexivity._corner_level, []

    def recording(prev, g, g_shifted, base, tol):
        elems, ratio = level(prev, g, g_shifted, base, tol)
        levels.append((prev, g, g_shifted, ratio))
        return elems, ratio

    monkeypatch.setattr(reflexivity, "_corner_level", recording)
    return levels


def _level_constraint(prev, g, g_shifted):
    """The level's constraint Kc* A K = 0 on the coefficients of the stack
    below, as a ((j - 1) N^2, m) matrix, with Kc from a complete QR of
    K = G - G', and the scale ||K||_2 ||stack||_F it is certified against."""
    k = g - g_shifted
    q, _ = np.linalg.qr(k, mode="complete")
    kc = q[:, k.shape[1] :]
    columns = [vec(kc.conj().T @ a @ k) for a in prev]
    return np.stack(columns, axis=1), np.linalg.norm(k, 2) * np.linalg.norm(prev)


@pytest.mark.parametrize("n", (0, 1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal"))
def test_corner_tower_levels_and_constraint_widths(kind, n, monkeypatch):
    spec = _oracle_spec(kind)
    d = rng_generator(np.random.default_rng(64), 3)
    family = invariant_family(spec, d, n)
    calls = _recording_nullspace(monkeypatch)
    levels = _recording_levels(monkeypatch)
    elems, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    base, alg_dim = 3, spec.expected_dim()
    assert elems.shape == (alg_dim, 3 * (n + 1), 3 * (n + 1))
    # one constraint per level, Kc* A K = 0: (j - 1) N^2 rows over the
    # coefficients of A on the level below, which is the algebra in that
    # level's dimension, and none at level 1.  On a built family it is
    # roundoff, so every level is certified and nothing is solved
    widths = [_level_constraint(*level[:3])[0].shape for level in levels]
    assert widths == [((j - 1) * base**2, alg_dim) for j in range(1, n + 1)]
    assert ratio == max((level[3] for level in levels), default=0.0) <= 1
    assert not calls


@pytest.mark.parametrize("size, n", ((3, 3), (8, 2)))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal"))
def test_rank_zero_certificate_agrees_with_the_solver(kind, size, n, monkeypatch):
    # on every level of a built family the certificate holds, and the solver
    # would keep all m coordinates: rank 0, so skipping it changes nothing
    spec = _oracle_spec(kind, size)
    family = invariant_family(spec, rng_generator(np.random.default_rng(66), size), n)
    levels = _recording_levels(monkeypatch)
    elems, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    assert len(levels) == n and ratio <= 1
    for prev, g, g_shifted, level_ratio in levels[1:]:
        constraint, scale = _level_constraint(prev, g, g_shifted)
        kept = nullspace_of_constraints([constraint], 1, DEFAULT_TOL, scale=scale).shape[1]
        assert level_ratio <= 1 and kept == len(prev) == len(elems) and len(constraint) > 0


@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_corner_solve_is_bitwise_the_same_without_the_certificate(kind, monkeypatch):
    # the certificate decides the verdict, not the tower: with every level's
    # certificate failing, the stack is bitwise the same, its corners are the
    # algebra's basis, and the check FAILs on the ratio alone
    spec = _oracle_spec(kind, 4)
    d = rng_generator(np.random.default_rng(68), 4)
    family = invariant_family(spec, d, 3)
    certified, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    assert ratio <= 1
    np.testing.assert_array_equal(certified[:, :4, :4], family.algebra.basis_elements)
    level = reflexivity._corner_level
    monkeypatch.setattr(
        reflexivity, "_corner_level", lambda *args: (level(*args)[0], 2.0)
    )
    uncertified, failed_ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    np.testing.assert_array_equal(certified, uncertified)
    assert failed_ratio == 2.0
    report = reflexivity_check(spec, d, 3, family=family, raise_on_fail=False)
    assert not report.passed and report.certificate_ratio == 2.0
    assert max(report.max_reconstruction_residual, report.membership_bound) <= report.tolerance
    with pytest.raises(ValueError, match="certificate ratio 2.000e"):
        alg_of_family(family)


def _counting(monkeypatch):
    """Count the calls of the Gram check and of numpy's factorizations."""
    counts = collections.Counter()
    for owner, name in (
        (core, "_gram_deviation"),
        (np.linalg, "svd"),
        (np.linalg, "qr"),
        (np.linalg, "solve"),
        (np.linalg, "matrix_rank"),
    ):

        def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize(
    "kind, lat_members, commutant_svds",
    (("full", 1, 4), ("diagonal_masa", 8, 2), ("block_diagonal", 2, 4)),
)
def test_pipeline_checks_and_factors_each_basis_once(
    kind, lat_members, commutant_svds, monkeypatch
):
    # the corner_solve cases at (8, 2).  invariant_family checks the commutant
    # and the lat members once each, and not their embeddings, the H_j or the
    # algebra, which ClassAlgebra builds orthonormal from certified pieces; its
    # SVDs are the commutant's, one per generator and adjoint.  The 2n graph
    # members carry their maps: the build factors none of them.  The check
    # reads each G off its member and takes one SVD, of K, per level: no QR,
    # no solve, no separate rank and no Gram check.  A graph member's basis
    # takes one QR and one Gram check on its first read, and none after
    n, pattern = 2, (4, 4) if kind == "block_diagonal" else None
    spec = VonNeumannAlgebraSpec(kind, 8, pattern=pattern)
    d, _ = random_scenario(8, 1)
    counts = _counting(monkeypatch)
    family = invariant_family(spec, d, n)
    assert dict(counts) == {"_gram_deviation": 1 + lat_members, "svd": commutant_svds}
    counts.clear()
    assert reflexivity_check(spec, d, n, family=family).passed
    assert dict(counts) == {"svd": n}
    for label, member in zip(family.labels, family.subspaces):
        if label[0] in "PQ":
            counts.clear()
            first = member.basis
            assert dict(counts) == {"qr": 1, "_gram_deviation": 1}
            counts.clear()
            assert member.basis is first and not counts


@pytest.mark.parametrize("shift", (0.0, 1.0))
def test_corner_solve_recovers_the_closed_form_graph_maps(shift, monkeypatch):
    # G of P_j (G' of Q_j) is the stack of (i(D + c))^k / k! for k = j..1
    base, n = 3, 3
    d = rng_generator(np.random.default_rng(56), base)
    family = invariant_family(VonNeumannAlgebraSpec("full", base), d, n)
    levels = _recording_levels(monkeypatch)
    reflexivity._corner_solve(family, DEFAULT_TOL)
    gen = 1j * (d.base + shift * np.eye(base))
    for j, g in enumerate((level[1 + int(shift)] for level in levels), start=1):
        powers = [np.linalg.matrix_power(gen, k) / math.factorial(k) for k in range(j, 0, -1)]
        want = np.vstack(powers)
        assert np.linalg.norm(g - want) <= 1e-12 * (1 + np.linalg.norm(want))


@pytest.mark.parametrize("drop", (("P_",), ("Q_",), ("P_", "Q_"), ("P_2",)))
def test_corner_solve_without_graph_members_matches_oracle(drop):
    # without a P_j (or a Q_j) a level leaves coordinates free, which the
    # full-space oracle shows.  The corner solve takes complete families only:
    # it raises ValueError naming the first missing member, and solves the
    # complete family to the oracle's space
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.2, 1.4])), 2)
    reduced = _without(family, drop)
    assert full_space_null(reduced.subspaces, 6).shape[1] > 2
    missing = next(label for label in family.labels if label.startswith(drop))
    with pytest.raises(ValueError, match=f"needs {missing}, a graph over block {missing[2]}"):
        reflexivity._corner_solve(reduced, DEFAULT_TOL)
    elems, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    oracle = full_space_null(family.subspaces, 6)
    assert len(elems) == oracle.shape[1] == 2 and ratio <= 1
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
    elems, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    assert not calls and elems is family.algebra.basis_elements
    assert ratio == 0.0 and len(elems) == 5
    # a hand-built family states its algebra on the base space
    with pytest.raises(ValueError, match="base space"):
        InvariantFamily(family.subspaces, family.labels, 3, 0, diag_space(2))


_CORNER_SOLVE = reflexivity._corner_solve


def _mutant_of_l(monkeypatch, mutate=None):
    """Make ``_corner_solve`` the linear map L + D, with L the tower's map
    and D the linear map that sends M's basis element B_j to
    mutate(L(B))_j - L(B_j), for ``mutate`` a change of the (m, d, d) stack
    L(B); without ``mutate`` it is L.  The map acts on whatever start the
    check passes, M's basis or Gaussian elements of M, through the
    coefficients c_j = tr(B_j* a) of each start element a, so a mutant is
    the same map in both modes; entries that ``mutate`` leaves alone stay
    bitwise those of L(a).  Each call records the stack it returns and the
    map's images of M's basis, L(B) + D(B)."""
    judged = []

    def flat(stack):
        return stack.reshape(len(stack), -1)

    def mutated(family, tol, start=None):
        elems, ratio = _CORNER_SOLVE(family, tol, start)
        images = tower = _CORNER_SOLVE(family, tol)[0]
        if mutate is not None:
            images = mutate(tower)
            basis = family.algebra.basis_elements
            coeffs = flat(basis if start is None else start) @ flat(basis).conj().T
            elems = elems + (coeffs @ flat(images - tower)).reshape(elems.shape)
        judged.append((elems, images))
        return elems, ratio

    monkeypatch.setattr(reflexivity, "_corner_solve", mutated)
    return judged


def _checked_tower(spec, d, n, monkeypatch, mutate=None, seed=0):
    """The check's report on the mutant L + D of ``_mutant_of_l``, the stack
    it judged, and the mutant's images of M's basis."""
    judged = _mutant_of_l(monkeypatch, mutate)
    report = reflexivity_check(spec, d, n, seed=seed, raise_on_fail=False)
    return (report, *judged.pop())


def _membership(spec, d, n, elems):
    """The largest membership residual of Phi(a) in the span of the tower,
    over the algebra's basis, the algebra solved as the bicommutant."""
    space = OperatorSpace.span(elems.shape[1], elems)
    return max(
        space.membership_residual(triangular_representation(derivative_chain(d, g, n)))
        for g in bicommutant(spec).basis_elements
    )


@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_batched_check_matches_per_element_path(kind, n, monkeypatch):
    # per element: one chain and one triangular representation each; the
    # measured membership residual of the algebra in the orthonormalized
    # solution L(M) is within the bound the check reports.  On C^3 the check
    # starts from M's basis, and for full and block_diagonal (dimensions 25
    # and 17) on C^5 from 16 Gaussian elements of M
    for base in (3, 5) if kind in ("full", "block_diagonal") else (3,):
        spec = _oracle_spec(kind, base)
        d = rng_generator(np.random.default_rng(62), base)
        report, elems, tower = _checked_tower(spec, d, n, monkeypatch)
        assert len(elems) == min(16, len(tower))
        reps = [triangular_representation(derivative_chain(d, x[:base, :base], n)) for x in elems]
        batched = triangular_representations(d, elems[:, :base, :base], n)
        for rep, want in zip(batched, reps):
            assert operator_norm(rep - want) <= 1e-12 * (1 + operator_norm(want))
        recon = [np.linalg.norm(x - rep) for x, rep in zip(elems, reps)]
        assert len(report.element_residuals) == len(recon) == len(elems)
        for got, want in zip(report.element_residuals, recon):
            assert abs(got - want) <= 1e-12 * (1 + want)
        assert report.max_reconstruction_residual == max(report.element_residuals)
        # measuring the residual rounds too, by about eps per dimension of C^d
        roundoff = tower.shape[1] * np.finfo(float).eps
        assert _membership(spec, d, n, tower) <= report.membership_bound + roundoff
        assert report.dim_computed == report.dim_expected == bicommutant(spec).dim == len(tower)
        assert report.passed == (max(max(recon), report.membership_bound) <= report.tolerance)
        assert report.passed


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_membership_bound_holds_for_a_perturbed_tower(kind, n, monkeypatch):
    # 1e-7 N(0, 1) on every entry of L(B) moves the corners off the start and
    # the elements off Phi of their corners, far above roundoff: the corners
    # are not the start stack, so the bound is infinite and covers the
    # measured membership residual of the algebra in the mutant's L(M), and
    # the check fails, on C^3 (M's basis) and for full and block_diagonal on
    # C^5 (Gaussian elements of M)
    for base in (3, 5) if kind in ("full", "block_diagonal") else (3,):
        spec = _oracle_spec(kind, base)
        d = rng_generator(np.random.default_rng(62), base)
        rng = np.random.default_rng(69)
        report, _, tower = _checked_tower(
            spec, d, n, monkeypatch, lambda elems: elems + 1e-7 * rng.standard_normal(elems.shape)
        )
        member = _membership(spec, d, n, tower)
        assert 1e-9 < member <= report.membership_bound == np.inf
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


@pytest.mark.parametrize(
    "label", ("R_1", "Q_x", "P_01", "P_+1", "P_0", "Q_", "H_01", "H_-1", "lat_M[01]", "lat_M[x]", "P_1 ")
)
def test_corner_solve_matches_labels_exactly(label):
    # a label is lat_M[i], H_j, P_j or Q_j with i, j canonical integers and
    # j >= 1 for P_j and Q_j; anything else names the member in the same
    # ValueError, never int()'s message nor another level's member
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.0, 1.0])), 1)
    labels = tuple(label if l == "P_1" else l for l in family.labels)
    relabeled = InvariantFamily(family.subspaces, labels, 2, 1, family.algebra)
    with pytest.raises(ValueError, match=f"^{re.escape(label)} is not a label of an invariant family$"):
        reflexivity._corner_solve(relabeled, DEFAULT_TOL)


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


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal", "generated"))
def test_graph_maps_from_one_svd_match_the_inverse_oracle(kind, n, monkeypatch):
    # the map G each graph member carries, which the tower reads, is
    # top bot^-1 of the member's basis; the members are bitwise
    # graph_subspace's, from one power sequence per shift
    spec = _oracle_spec(kind, 4)
    d = rng_generator(np.random.default_rng(70 + n), 4, spread=3.0)
    family = invariant_family(spec, d, n)
    members = dict(zip(family.labels, family.subspaces))
    for j in range(1, n + 1):
        for member, shift in (("P", 0.0), ("Q", 1.0)):
            want = graph_subspace(d, j, shift).embedded(family.ambient_dim)
            np.testing.assert_array_equal(members[f"{member}_{j}"].basis, want.basis)
    levels = _recording_levels(monkeypatch)
    reflexivity._corner_solve(family, DEFAULT_TOL)
    assert len(levels) == n
    for j, (_, g, g_shifted, _) in enumerate(levels, start=1):
        for got, label in ((g, f"P_{j}"), (g_shifted, f"Q_{j}")):
            want = _graph_map(family, label)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_graph_members_carry_the_stacked_exponential_terms():
    # P_j (Q_j) carries G = [T_j; ...; T_1], T_k the (i(D + c))^k / k! of
    # _exponential_terms with c = 0 (c = 1), bitwise; its basis, formed on
    # first read, is bitwise the Q factor of one QR of [G; I], zero below the
    # first j + 1 blocks
    base, n = 3, 3
    d = rng_generator(np.random.default_rng(73), base, spread=2.0)
    family = invariant_family(VonNeumannAlgebraSpec("full", base), d, n)
    members = dict(zip(family.labels, family.subspaces))
    for kind, shift in (("P", 0.0), ("Q", 1.0)):
        terms = _exponential_terms(d, n, shift)
        for j in range(1, n + 1):
            member = members[f"{kind}_{j}"]
            assert isinstance(member, GraphSubspace) and member.dim == base
            np.testing.assert_array_equal(member.graph, np.vstack(terms[j:0:-1]))
            q, _ = np.linalg.qr(np.vstack(terms[j::-1]))
            want = np.zeros((family.ambient_dim, base), dtype=complex)
            want[: base * (j + 1)] = q
            np.testing.assert_array_equal(member.basis, want)
            standalone = graph_subspace(d, j, shift)
            np.testing.assert_array_equal(standalone.graph, member.graph)
            np.testing.assert_array_equal(standalone.basis, q)


def test_embedded_graph_member_keeps_its_map():
    # at offset 0 the embedding carries the same map, and its lazy basis is
    # the member's padded with zero rows; at another offset the member is no
    # graph over its leading blocks, and the copy is a plain subspace
    d = rng_generator(np.random.default_rng(74), 2)
    p2 = graph_subspace(d, 2)
    wide = p2.embedded(10)
    assert isinstance(wide, GraphSubspace) and wide.ambient_dim == 10
    assert wide.graph is p2.graph
    np.testing.assert_array_equal(wide.basis[:6], p2.basis)
    assert not wide.basis[6:].any()
    shifted = p2.embedded(10, 2)
    assert shifted.graph is None
    np.testing.assert_array_equal(shifted.basis[2:8], p2.basis)
    with pytest.raises(ValueError, match="does not fit"):
        p2.embedded(4)


@pytest.mark.parametrize("above", (True, False))
def test_graph_member_rank_follows_matrix_rank_at_the_cutoff(above):
    # a hand-built P_1 given only as an orthonormal basis, whose block-1 rows
    # have sigma_min 1% above, then 1% below rank_cutoff: either way it
    # carries no graph map, so it is no graph member, whatever the rank of
    # its basis.  The family has no Q_1, so a P_1 that were accepted would
    # show as the missing Q_1, which the solve rejects once every member has
    # been read
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = _without(invariant_family(spec, eig_hermitian(np.diag([0.2, 1.4])), 1), ("Q_1",))
    rng = np.random.default_rng(71)
    u, w, v = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
               for _ in range(3))  # random unitaries
    cosines = np.array([0.6, DEFAULT_TOL.rank_cutoff * (1.01 if above else 0.99)])
    bot = (u * cosines) @ v.conj().T
    top = (w * np.sqrt(1 - cosines**2)) @ v.conj().T  # orthonormal columns with bot
    member = Subspace(4, np.vstack([top, bot]))
    assert np.linalg.matrix_rank(bot, tol=DEFAULT_TOL.rank_cutoff) == (2 if above else 1)
    assert member.graph is None
    hand_built = _relabeled(family, "P_1", member)
    with pytest.raises(ValueError, match="P_1 is not a graph over block 1"):
        reflexivity._corner_solve(hand_built, DEFAULT_TOL)


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
    # a Q_2 built from a map whose K has rank 1: the graph of G + k e_1 e_1*
    g, k = p2.graph, np.zeros((4, 2))
    k[0, 0] = 1.0
    rank_one = GraphSubspace(family.ambient_dim, g + k)
    with pytest.raises(ValueError, match="rank below 2"):
        alg_of_family(_relabeled(family, "Q_2", rank_one))


@pytest.mark.parametrize("drop", (("Q_1",), ("P_1",), ("P_1", "Q_1")))
def test_corner_solve_level_constraint_matches_oracle(drop, monkeypatch):
    # without a graph member at level 1, level 1 would be larger than the
    # algebra's representation, for the constraint Kc* A K = 0 of level 2 to
    # cut back: the solve rejects such a family, naming the member, and
    # solves nothing.  On the complete family that constraint (N^2 rows over
    # the algebra's 2 coefficients) is certified, and the tower is the oracle's
    spec = VonNeumannAlgebraSpec("diagonal_masa", 2)
    family = invariant_family(spec, eig_hermitian(np.diag([0.2, 1.4])), 2)
    calls = _recording_nullspace(monkeypatch)
    with pytest.raises(ValueError, match=f"needs {drop[0]}"):
        reflexivity._corner_solve(_without(family, drop), DEFAULT_TOL)
    levels = _recording_levels(monkeypatch)
    elems, ratio = reflexivity._corner_solve(family, DEFAULT_TOL)
    assert not calls
    assert _level_constraint(*levels[1][:3])[0].shape == (4, 2) and levels[1][3] == ratio <= 1
    oracle = full_space_null(family.subspaces, 6)
    assert len(elems) == oracle.shape[1] == 2
    q, _ = np.linalg.qr(np.stack([vec(b) for b in elems], axis=1))
    assert operator_norm(q @ q.conj().T - oracle @ oracle.conj().T) <= 1e-10


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa", "block_diagonal"))
def test_reflexivity_check_passes_a_family_missing_one_lower_graph_member(kind, n):
    # the check passes the complete family at dim M, with the membership
    # bound ||L - Phi||_HS over M's basis, at most sqrt(m) rho.  A family
    # without one P_j or Q_j below the top level is not the theorem's family:
    # the check raises ValueError naming the member (it used to solve such a
    # family to Phi(M) and pass it)
    pattern = (2, 2) if kind == "block_diagonal" else None
    spec = VonNeumannAlgebraSpec(kind, 4 if pattern else 3, pattern=pattern)
    gen, _ = random_scenario(spec.ambient_dim, 1)
    family = invariant_family(spec, gen, n, seed=1)
    report = reflexivity_check(spec, gen, n, family=family)
    assert report.passed and report.dim_computed == spec.expected_dim()
    residuals = np.array(report.element_residuals)
    assert len(residuals) == report.dim_computed
    assert report.membership_bound == pytest.approx(np.sqrt(residuals @ residuals), rel=1e-15)
    assert report.membership_bound <= np.sqrt(report.dim_computed) * report.max_reconstruction_residual
    for dropped in [f"{member}_{j}" for j in range(1, n) for member in "PQ"]:
        with pytest.raises(ValueError, match=f"needs {dropped}"):
            reflexivity_check(spec, gen, n, family=_without(family, (dropped,)))


@pytest.mark.parametrize("base", (3, 8))
def test_reflexivity_check_fails_without_the_top_q_member(base):
    # dropping Q_n would leave Y_bot free on the top level, a solution of
    # dimension 2 N^2 (the full-space oracle at N = 3): the check rejects the
    # family with ValueError naming Q_2, before any solve
    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, 1)
    family = invariant_family(spec, gen, 2, seed=1)
    assert reflexivity_check(spec, gen, 2, family=family).passed
    mutant = _without(family, ("Q_2",))
    if base == 3:
        assert full_space_null(mutant.subspaces, mutant.ambient_dim).shape[1] == 2 * base**2
    with pytest.raises(ValueError, match="needs Q_2"):
        reflexivity_check(spec, gen, 2, family=mutant, raise_on_fail=False)


def _perturbed_q2(family, d, eps):
    """The family with Q_2 the shifted graph of D + eps E, for a fixed real
    symmetric E."""
    z = np.random.default_rng(72).standard_normal((d.dim, d.dim))
    q2 = graph_subspace(eig_hermitian(d.base + eps * (z + z.T) / 2), 2, shift=1.0)
    return _relabeled(family, "Q_2", q2.embedded(family.ambient_dim))


@pytest.mark.parametrize("eps", (1e-3, 1e-6))
@pytest.mark.parametrize("kind", ("full", "diagonal_masa"))
def test_reflexivity_check_fails_an_uncertified_tower(kind, eps):
    # a Q_2 from the perturbed generator D + eps E: the level-2 constraint
    # Kc* A K is no longer roundoff, and the check FAILs on the certificate
    # ratio (about 1e5 and 1e2 here) with the tower uncut; alg_of_family
    # raises on the same family
    spec = VonNeumannAlgebraSpec(kind, 4)
    gen, _ = random_scenario(4, 1)
    family = invariant_family(spec, gen, 2, seed=1)
    assert reflexivity_check(spec, gen, 2, family=family).certificate_ratio <= 1
    mutant = _perturbed_q2(family, gen, eps)
    report = reflexivity_check(spec, gen, 2, family=mutant, raise_on_fail=False)
    assert not report.passed and report.certificate_ratio > 10
    assert report.dim_computed == spec.expected_dim()
    with pytest.raises(ValueError, match="certificate ratio"):
        alg_of_family(mutant)


@pytest.mark.parametrize("base", (3, 8))
def test_reflexivity_check_fails_a_solve_that_loses_a_basis_element(base, monkeypatch):
    # the map loses the direction B_0 of M: L(a - c_0 B_0), whose corner is
    # not a.  On C^3 the check starts from M's basis, on C^8 from Gaussian
    # elements of M; either way the corners are not the start stack, so the
    # membership bound is infinite and the check fails at dim M
    def losing(elems):
        elems = elems.copy()
        elems[0] = 0
        return elems

    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, 1)
    judged = _mutant_of_l(monkeypatch, losing)
    report = reflexivity_check(spec, gen, 2, seed=1, raise_on_fail=False)
    assert len(judged.pop()[0]) == min(16, base**2)
    assert not report.passed and report.dim_computed == base**2
    assert report.membership_bound == np.inf
    with pytest.raises(ReflexivityViolation):
        reflexivity_check(spec, gen, 2, seed=1)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_reflexivity_check_fails_a_perturbed_top_block_column(seed, monkeypatch):
    # eps = 1e-6 N(0, 1) on every Y_top entry of L(B), extended linearly to
    # M: the corners stay the start stack, but no element is the
    # representation of its corner any more.  At full (8, 2) the check starts
    # from 16 Gaussian elements of M, and the largest Frobenius reconstruction
    # residual is 104-219 times the tolerance, the membership bound 920-1770
    # times (seeds 1-3; on M's basis the residual read over 11 times, seeds
    # 1-10).  The same mutant at (16, 3) waits for a tolerance from a roundoff
    # model of the tower: its reconstruction residual on M's basis read about
    # 0.1 of today's tolerance there.
    base, n, noise = 8, 2, np.random.default_rng(seed)

    def perturbed(elems):
        elems = elems.copy()
        elems[:, : base * n, base * n :] += 1e-6 * noise.standard_normal((len(elems), base * n, base))
        return elems

    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, seed)
    assert reflexivity_check(spec, gen, n, seed=seed).passed
    report, elems, _ = _checked_tower(spec, gen, n, monkeypatch, perturbed, seed=seed)
    assert report.dim_computed == base**2 and len(elems) == 16
    assert report.membership_bound < np.inf
    assert not report.passed and report.max_reconstruction_residual > 10 * report.tolerance


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("base, n", ((8, 2), (16, 3)))
def test_reflexivity_check_fails_a_perturbed_corner(base, n, seed, monkeypatch):
    # eps = 1e-6 complex N(0, 1) on every X_00 block of L(B), the rest of each
    # element kept, extended linearly to M: no element is the representation
    # of its corner any more, and the corners are not the start stack (16
    # Gaussian elements of M here), so the membership bound is infinite
    noise = np.random.default_rng(seed)

    def perturbed(elems):
        elems = elems.copy()
        shape = (len(elems), base, base)
        elems[:, :base, :base] += 1e-6 * (noise.standard_normal(shape) + 1j * noise.standard_normal(shape))
        return elems

    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, seed)
    report, elems, _ = _checked_tower(spec, gen, n, monkeypatch, perturbed, seed=seed)
    assert report.dim_computed == base**2 and len(elems) == 16
    assert not report.passed and report.membership_bound == np.inf


def test_reflexivity_check_fails_a_solve_that_repeats_an_element(monkeypatch):
    # the map sends B_(m-1) to L(B_0): the count is dim M but the image spans
    # one dimension less, and the corners are not the start stack, which makes
    # the membership bound infinite; on C^3 (M's basis) and C^5 (Gaussian
    # elements of M)
    for base in (3, 5):
        spec = VonNeumannAlgebraSpec("full", base)
        gen, _ = random_scenario(base, 1)
        report, elems, _ = _checked_tower(
            spec, gen, 2, monkeypatch, lambda elems: np.concatenate([elems[:-1], elems[:1]]), seed=1
        )
        assert report.dim_computed == base**2 and len(elems) == min(16, base**2)
        assert report.max_reconstruction_residual <= report.tolerance
        assert not report.passed and report.membership_bound == np.inf


def test_reflexivity_check_fails_a_corner_outside_the_algebra(monkeypatch):
    # the map sends B_0 to the representation of a unit corner with an
    # off-diagonal part: exact reconstruction, but the solution holds an
    # operator outside Phi(M), which only the comparison of the corners with
    # the start stack sees: the membership bound is infinite.  The diagonal
    # masa on C^3 starts from M's basis, on C^17 from Gaussian elements of M
    for base in (3, 17):
        gen, _ = random_scenario(base, 1)

        def leaking(elems, base=base, gen=gen):
            corner = elems[0, :base, :base].copy()
            corner[0, 1] = 1e-3
            corner /= np.linalg.norm(corner)
            elems = elems.copy()
            elems[0] = triangular_representations(gen, corner[None], 2)[0]
            return elems

        spec = VonNeumannAlgebraSpec("diagonal_masa", base)
        report, elems, _ = _checked_tower(spec, gen, 2, monkeypatch, leaking, seed=1)
        assert report.dim_computed == base and len(elems) == min(16, base)
        assert report.max_reconstruction_residual <= report.tolerance
        assert not report.passed and report.membership_bound > 100 * report.tolerance


def _recording_starts(monkeypatch):
    """Wrap the corner solve; each call is recorded as (family, start)."""
    starts = []

    def recording(family, tol, start=None):
        starts.append((family, start))
        return _CORNER_SOLVE(family, tol, start)

    monkeypatch.setattr(reflexivity, "_corner_solve", recording)
    return starts


@pytest.mark.parametrize(
    "spec, probing",
    (
        (VonNeumannAlgebraSpec("full", 4), False),  # dim M = 16
        (VonNeumannAlgebraSpec("block_diagonal", 6, pattern=(3, 3)), True),  # dim M = 18
    ),
    ids=("full-4", "block_diagonal-3-3"),
)
def test_reflexivity_check_starts_from_the_basis_up_to_16_elements(spec, probing, monkeypatch):
    # dim M <= 16: the tower maps M's basis, and the sum of squared residuals
    # is ||L - Phi||_HS^2 exactly; above, it maps 16 Gaussian elements of M,
    # and the bound is their root mean square residual over sqrt(0.01)
    gen, _ = random_scenario(spec.ambient_dim, 1)
    starts = _recording_starts(monkeypatch)
    report = reflexivity_check(spec, gen, 2, seed=1)
    ((family, start),) = starts
    basis = family.algebra.basis_elements
    assert report.passed and report.dim_computed == len(basis) == spec.expected_dim()
    residuals = np.array(report.element_residuals)
    assert len(start) == len(residuals) == 16
    if probing:
        assert reflexivity._PROBES == 16 and reflexivity._DELTA == 0.01
        coeffs = start.reshape(16, -1) @ basis.reshape(len(basis), -1).conj().T
        # the start stack lies in M and is not its basis
        assert frobenius_norm(np.einsum("ij,jkl->ikl", coeffs, basis) - start).max() <= 1e-12
        assert not np.array_equal(start[: len(basis)], basis)
        hs = np.sqrt(np.mean(residuals**2) / 0.01)
    else:
        assert start is basis
        hs = np.sqrt(residuals @ residuals)
    assert report.membership_bound == pytest.approx(hs, rel=1e-14)


def test_reflexivity_check_is_reproducible_from_its_seed():
    # the seed fixes the Gaussian elements, so the same seed gives an equal
    # report, with or without a prebuilt family; another seed draws other
    # elements of M and reaches the same verdict
    spec = VonNeumannAlgebraSpec("full", 6)
    gen, _ = random_scenario(6, 3)
    report = reflexivity_check(spec, gen, 2, seed=5)
    assert reflexivity_check(spec, gen, 2, seed=5) == report
    family = invariant_family(spec, gen, 2, seed=5)
    assert reflexivity_check(spec, gen, 2, seed=5, family=family) == report
    other = reflexivity_check(spec, gen, 2, seed=6, family=family)
    assert other.passed == report.passed is True and other.dim_computed == report.dim_computed
    assert other.element_residuals != report.element_residuals


def test_probe_estimate_tracks_the_hilbert_schmidt_norm_of_a_linear_mutant(monkeypatch):
    # a fixed linear mutant of L (1e-6 N(0, 1) on every Y_top entry of L(B),
    # extended linearly to M) at full (5, 1), dimension 25: over 200 seeds,
    # the mean of rho^2 = mean_i ||X_i - Phi(a_i)||^2 is within 10% of the
    # exact ||E||_HS^2, E = L' - Phi summed over M's basis, and no draw falls
    # below delta ||E||_HS^2, which the proved bound makes a 7.6e-26 event
    base, n = 5, 1
    spec = VonNeumannAlgebraSpec("full", base)
    gen, _ = random_scenario(base, 4)
    family = invariant_family(spec, gen, n, seed=0)
    noise = 1e-6 * np.random.default_rng(73).standard_normal((base**2, base * n, base))

    def perturbed(elems):
        elems = elems.copy()
        elems[:, : base * n, base * n :] += noise
        return elems

    _mutant_of_l(monkeypatch, perturbed)
    images, _ = reflexivity._corner_solve(family, DEFAULT_TOL)
    basis = family.algebra.basis_elements
    exact = np.sum(frobenius_norm(images - triangular_representations(gen, basis, n)) ** 2)
    estimates = []
    for seed in range(200):
        report = reflexivity_check(spec, gen, n, seed=seed, family=family, raise_on_fail=False)
        rho2 = np.mean(np.square(report.element_residuals))
        assert report.membership_bound == pytest.approx(np.sqrt(rho2 / 0.01), rel=1e-14)
        estimates.append(rho2)
    assert abs(np.mean(estimates) - exact) <= 0.1 * exact
    assert min(estimates) >= 0.01 * exact


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


def _rotated(eigenvalues, rng):
    """U diag(eigenvalues) U* for a random unitary U, as a generator."""
    dim = len(eigenvalues)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    base = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return eig_hermitian((base + base.conj().T) / 2)


def _degenerate_case(dim, spectrum, algebra, x_kind, n, seed):
    """Operands of the invariance and reflexivity checks on a degenerate input."""
    rng = np.random.default_rng(seed)
    repeated = ([1.0] * dim + [2.0, 2.0])[-dim:]  # diag(1, ..., 1, 2, 2), or its tail
    d = {
        "random": lambda: rng_generator(rng, dim),
        "repeated": lambda: _rotated(repeated, rng),
        "zero": lambda: eig_hermitian(np.zeros((dim, dim))),
    }[spectrum]()
    if algebra == "block_diagonal":
        spec = VonNeumannAlgebraSpec(algebra, dim, pattern=(dim - 1, 1) if dim > 1 else (1,))
    elif algebra == "generated":
        spec = VonNeumannAlgebraSpec(algebra, dim, generators=(_rotated(repeated, rng).base,))
    else:
        spec = VonNeumannAlgebraSpec(algebra, dim)
    if x_kind == "random":
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    elif x_kind == "zero":
        x = np.zeros((dim, dim), dtype=complex)
    else:  # a polynomial in D commutes with D
        x = sum(c * np.linalg.matrix_power(d.base, p) for p, c in enumerate(rng.standard_normal(3)))
    return ScenarioData("degenerate", d, x, x, spec, n, seed)


# Dimension 1, repeated eigenvalues (D = 0 among them), a zero x and an x
# that commutes with D, N <= 4 and n <= 3: the shared power sequence of the
# graph members and their SVD rank rule meet degenerate generators.  Each
# check passes or raises a typed error; it never FAILs on such an input.
@pytest.mark.parametrize("check", ["invariance", "reflexivity"])
@settings(max_examples=40, deadline=None, database=None)
@given(
    dim=st.integers(1, 4),
    spectrum=st.sampled_from(["random", "repeated", "zero"]),
    algebra=st.sampled_from(["full", "diagonal_masa", "block_diagonal", "generated"]),
    x_kind=st.sampled_from(["random", "zero", "commuting"]),
    n=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=1, spectrum="random", algebra="full", x_kind="zero", n=3, seed=0)
@example(dim=4, spectrum="repeated", algebra="generated", x_kind="commuting", n=3, seed=1)
@example(dim=4, spectrum="zero", algebra="diagonal_masa", x_kind="random", n=3, seed=2)
@example(dim=3, spectrum="repeated", algebra="block_diagonal", x_kind="zero", n=2, seed=3)
def test_family_checks_on_degenerate_inputs(check, dim, spectrum, algebra, x_kind, n, seed):
    data = _degenerate_case(dim, spectrum, algebra, x_kind, n, seed)
    try:
        report = _CHECKS[check](data, DEFAULT_TOL)
    except (LatGenerationFailed, ArithmeticError, ValueError):
        return
    assert report.passed, (report.residuals, report.tolerance, report.details)


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


def test_reflexivity_full_c24_n3():
    spec = VonNeumannAlgebraSpec("full", 24)
    gen, _ = random_scenario(24, 1)
    report = reflexivity_check(spec, gen, 3, seed=1)
    assert report.passed and report.dim_computed == 576 and report.needed_Q


@pytest.mark.slow
@pytest.mark.parametrize("size", (48, 96))
def test_envelope_point_full_n3_fits_the_memory_cap(size):
    # the envelope script's own point run: one BLAS thread and a 2048 MB
    # address-space cap that the child process sets on itself.  The check
    # holds 16 Gaussian elements of M, formed from its classes: neither the
    # (N^2, 4N, 4N) tower nor M's (N^2, N, N) basis
    script = Path(__file__).resolve().parents[1] / "perfbench" / "envelope.py"
    result = subprocess.run(
        [sys.executable, str(script), "--point", "full", str(size), "3", "--seed", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    point = json.loads(result.stdout.strip().splitlines()[-1])
    assert point["status"] == "finished" and point["passed"]
    assert point["dim_computed"] == point["dim_expected"] == size**2


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
    assert report.tolerance == DEFAULT_TOL.alg(operator_norm(fwd), operator_norm(bwd))
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
    assert report.tolerance == pytest.approx(DEFAULT_TOL.alg(operator_norm(fwd), operator_norm(bwd)), rel=1e-13)


def test_reflexivity_generated_algebra():
    g = np.diag([1.0, 1.0, 2.0]).astype(complex)
    spec = VonNeumannAlgebraSpec("generated", 3, generators=(g,))
    d = eig_hermitian(np.diag([0.4, 1.2, 2.9]))
    report = reflexivity_check(spec, d, 1)
    assert report.passed and report.dim_computed == 2


def test_reflexivity_violation_raises_with_diagnostics():
    # a Q_2 off the generator's graph fails the certificate of level 2: the
    # violation carries the report, and its message the ratio.  A family
    # without its Q_j is no violation but a ValueError
    spec = VonNeumannAlgebraSpec("full", 2)
    d = eig_hermitian(np.diag([0.0, 1.0]))
    family = invariant_family(spec, d, 2)
    mutant = _perturbed_q2(family, d, 1e-3)
    with pytest.raises(ReflexivityViolation) as err:
        reflexivity_check(spec, d, 2, family=mutant)
    report = err.value.report
    assert report.certificate_ratio > 1 and report.dim_computed == 4 and not report.passed
    assert f"certificate ratio {report.certificate_ratio:.3e}" in str(err.value)
    assert reflexivity_check(spec, d, 2, family=mutant, raise_on_fail=False) == report
    with pytest.raises(ValueError, match="needs Q_1"):
        reflexivity_check(spec, d, 2, family=_without_q(family))


def test_reflexivity_violation_message_names_the_deciding_values(monkeypatch):
    # a map that sends B_(m-1) to L(B_0) has the right count, exact
    # reconstruction and a certified tower, and fails on the membership bound
    # alone, which corners other than the start stack make infinite: the
    # message shows it and the tolerance beside the reconstruction residual;
    # on C^3 (M's basis) and C^5 (Gaussian elements of M)
    _mutant_of_l(monkeypatch, lambda elems: np.concatenate([elems[:-1], elems[:1]]))
    for base in (3, 5):
        spec = VonNeumannAlgebraSpec("full", base)
        gen, _ = random_scenario(base, 1)
        with pytest.raises(ReflexivityViolation) as err:
            reflexivity_check(spec, gen, 2, seed=1)
        report = err.value.report
        assert report.dim_computed == report.dim_expected == base**2
        assert len(report.element_residuals) == min(16, base**2)
        assert report.max_reconstruction_residual <= report.tolerance
        assert report.membership_bound == np.inf
        message = str(err.value)
        assert f"reconstruction residual {report.max_reconstruction_residual:.3e}" in message
        assert "membership bound inf" in message
        assert f"tolerance {report.tolerance:.3e}" in message
        assert report.certificate_ratio <= 1
        assert f"certificate ratio {report.certificate_ratio:.3e}" in message


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
