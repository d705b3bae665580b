"""Dense oracles shared by the tests.

Each helper solves or compares in the plainest way, on full vec
coordinates, independently of the structured solves in ``opderiv`` that
the tests hold against it.  Vectorization is column-major (Fortran
order), so that ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
``identity_residual_matrices`` instead forms the identity checks'
residual matrices through the per-call public operations, so that the
Frobenius residuals the checks report can be held against the operator
norm of the same matrices.
"""

import math

import numpy as np

from opderiv.core import DimensionMismatch, OperatorSpace, Subspace, operator_norm
from opderiv.derivation import (
    band_derivation,
    band_embed,
    binomial_derivative,
    commutator_derivative,
    derivative_chain,
)
from opderiv.triangular import amplify, corner_exponential, triangular_representation


def vec(x):
    """Column-major vectorization, the order of the Kronecker constraints."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def projection(sub):
    """The orthogonal projection B B* onto a subspace with orthonormal basis B."""
    return sub.basis @ sub.basis.conj().T


def subspace_from_columns(columns, rank_cutoff=1e-9):
    """The span of spanning columns, orthonormalized by one SVD with a
    relative rank cutoff."""
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("columns must be 2-D")
    d = cols.shape[0]
    if cols.shape[1] == 0:
        return Subspace(d, np.zeros((d, 0), dtype=complex))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > rank_cutoff * s[0])) if s[0] > 0 else 0
    return Subspace(d, u[:, :rank])


def embedded(sub, ambient_dim, offset=0):
    """The same subspace inside a larger space, its basis rows shifted by
    ``offset`` and zero elsewhere.  Zero rows leave the Gram matrix of a
    checked basis unchanged, so the embedding is not checked again."""
    if offset < 0 or offset + sub.ambient_dim > ambient_dim:
        raise ValueError("embedding does not fit in the target space")
    basis = np.zeros((ambient_dim, sub.dim), dtype=complex)
    basis[offset : offset + sub.ambient_dim] = sub.basis
    out = object.__new__(Subspace)
    object.__setattr__(out, "ambient_dim", ambient_dim)
    object.__setattr__(out, "basis", basis)
    return out


def family_members(family):
    """Every member of an invariant family as a subspace of the corner
    space, keyed by ``family.labels``: the lat members in the first block,
    H_j the first j + 1 blocks, and P_j, Q_j the spans of the graph columns
    [G; I] of their maps, orthonormalized by ``subspace_from_columns``."""
    dim, base = family.ambient_dim, family.base_dim
    eye = np.eye(dim, dtype=complex)
    members = [embedded(sub, dim) for sub in family.lat]
    members += [Subspace(dim, eye[:, : base * (j + 1)]) for j in range(family.order + 1)]
    for pair in family.graphs:
        members += [embedded(subspace_from_columns(np.vstack([g, np.eye(base)])), dim) for g in pair]
    return dict(zip(family.labels, members))


def space_of_vec_columns(dim, columns):
    """The operator space whose orthonormal basis is the columns of a
    ``(dim*dim, m)`` array of vec coordinates."""
    return OperatorSpace(dim, columns.T.reshape(-1, dim, dim).transpose(0, 2, 1))


def commutation_constraint(g):
    """Matrix of X -> X g - g X in vec coordinates (the Kronecker form); its
    nullspace is the commutant of g."""
    g = np.asarray(g, dtype=complex)
    eye = np.eye(g.shape[0])
    return np.kron(g.T, eye) - np.kron(eye, g)


def invariance_constraint(v):
    """Matrix of X -> Qc* X V in vec coordinates, where the columns of V are
    an orthonormal basis of a subspace and those of Qc an orthonormal basis
    of its complement; nullspace = operators leaving the subspace invariant.

    It has k * (d - k) rows for a k-dimensional subspace of C^d (none for
    the zero or the whole space), against d * d for the equivalent map
    X -> (I - P) X P.  Its rows are orthonormal.
    """
    v = np.asarray(v, dtype=complex)
    q, _ = np.linalg.qr(v, mode="complete")
    return np.kron(v.T, q[:, v.shape[1] :].conj().T)


def full_space_null(subspaces, dim):
    """Operators leaving every member invariant, by one SVD of the vstacked
    full-space constraints kron(P.T, I - P), as orthonormal vec columns.

    The rank cut is floored at the constraints' natural scale 1, as in
    ``nullspace_of_constraints(scale=1.0)``: a stack that is pure roundoff
    (every member is 0 or the whole space) has rank 0, not full rank."""
    rows = np.vstack([np.kron(projection(s).T, np.eye(dim) - projection(s)) for s in subspaces])
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    return vh[rank:].conj().T


def alg_of_subspaces(subspaces, dim):
    """``full_space_null`` as an operator space."""
    return space_of_vec_columns(dim, full_space_null(subspaces, dim))


def spans_equal(a, b, tol=1e-9):
    """Same span: equal dimensions plus mutual membership of the bases, each
    basis element within ``tol`` of the other space (relative residual)."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return bool(
        np.all(a._residuals(b.basis_elements) <= tol)
        and np.all(b._residuals(a.basis_elements) <= tol)
    )


def subspace_distance(a, b):
    """Operator-norm distance between the projections of two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return operator_norm(projection(a) - projection(b))


def identity_residual_matrices(check, d, x, y, n):
    """The residual matrices R of an identity check of the harness, one per
    reported residual, formed by the per-call public operations.

    Their operator norms are the residuals the check reported before it
    took Frobenius norms; the arithmetic is the check's, so the two agree
    to the last bit and ``||R||_2 <= ||R||_F <= sqrt(rank R) ||R||_2``
    brackets what it reports now.
    """
    if check == "leibniz":
        rhs = commutator_derivative(d, x) @ y + x @ commutator_derivative(d, y)
        return [commutator_derivative(d, x @ y) - rhs]
    chain = derivative_chain(d, x, 5)
    if check == "binomial_eq":
        return [binomial_derivative(d, x, k) - chain.delta(k) for k in range(1, 6)]
    if check == "band_eq":
        bm = band_embed(d, x)
        return [bm.assemble() - x] + [
            band_derivation(bm, k).assemble() - chain.delta(k) for k in range(1, 6)
        ]
    if check == "phi_hom":
        rep = [triangular_representation(derivative_chain(d, a, n)) for a in (x, y)]
        return [triangular_representation(derivative_chain(d, x @ y, n)) - rep[0] @ rep[1]]
    if check == "phi_conj":
        fwd, bwd = corner_exponential(d, n)
        lhs = fwd @ amplify(x, n) @ bwd
        return [lhs - triangular_representation(derivative_chain(d, x, n))]
    if check == "ad_identity":  # s = x, b = y at order max(1, n), as the harness calls it
        order = max(1, n)
        powers = [np.eye(len(x), dtype=complex)]
        for _ in range(order):
            powers.append(powers[-1] @ x)
        lhs = np.zeros_like(x)
        ad_term = y
        for j in range(order + 1):
            lhs += ad_term @ powers[order - j] / (math.factorial(order - j) * math.factorial(j))
            ad_term = x @ ad_term - ad_term @ x
        return [lhs - powers[order] @ y / math.factorial(order)]
    raise ValueError(f"not an identity check: {check!r}")
