"""Dense oracles shared by the tests.

Each helper solves or compares in the plainest way, on full vec
coordinates, independently of the structured solves in ``opderiv`` that
the tests hold against it.  Vectorization is column-major (Fortran
order), so that ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
"""

import numpy as np

from opderiv.core import DimensionMismatch, OperatorSpace, operator_norm


def vec(x):
    """Column-major vectorization, the order of the Kronecker constraints."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


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
    rows = np.vstack([np.kron(s.projection.T, np.eye(dim) - s.projection) for s in subspaces])
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
    return operator_norm(a.projection - b.projection)
