"""Dense complex-matrix substrate.

Everything in the toolkit runs on square complex ndarrays ("operators").
This module provides the Hermitian eigendecomposition, the operator norm,
the one-parameter unitary group t -> exp(itD), spectral band projections
for the half-open intervals (r-1, r], orthonormal subspaces, linear spaces
of operators, and a nullspace solver for stacked linear equations C @ u = 0.

Conventions
-----------
* The nullspace solver works in coordinates its caller chooses: the
  commutant solves on the coefficients of its matrix units, a corner
  level on the coefficients of the level below.  No operator is
  vectorized into solver coordinates.  Where an operator is flattened
  (into the rows of a constraint, or for the trace inner product as a
  dot product) it is flattened row-major, numpy's order, so results are
  reproducible run to run.
* All values are treated as immutable after construction; every operation
  is a pure function of its inputs, safe for concurrent use.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "NotHermitian",
    "DimensionMismatch",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "as_operator",
    "operator_norm",
    "frobenius_norm",
    "hermitian_part",
    "SelfAdjointGenerator",
    "eig_hermitian",
    "unitary_group",
    "band_index",
    "band_groups",
    "spectral_band_projections",
    "Subspace",
    "GraphSubspace",
    "OperatorSpace",
    "nullspace_of_constraints",
    "save_operator",
    "load_operator",
    "load_matrix_json",
]


class NotHermitian(ValueError):
    """Input operator is not Hermitian within tolerance."""


class DimensionMismatch(ValueError):
    """Operands act on spaces of different dimensions."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances used across the toolkit.

    tol_herm/tol_eig guard Hermiticity and eigendecomposition residuals,
    tol_alg guards exact algebraic identities, and rank_cutoff is the
    relative singular-value threshold for rank decisions.  Residual
    tolerances are scaled as ``tol * (1 + prod(norms of the inputs))`` so
    products of large-norm operators are judged relatively.  The
    finite-difference and convergence probes take no tolerance: each is
    judged by its Taylor remainder plus its roundoff, a bound made of
    norms of the derivative chain (``derivation._fd_roundoff``).
    """

    tol_herm: float = 1e-9
    tol_eig: float = 1e-9
    tol_alg: float = 1e-9
    rank_cutoff: float = 1e-9

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be strictly positive")
        if not self.rank_cutoff < 1:
            raise ValueError("rank_cutoff must be < 1")

    def alg(self, *norms: float) -> float:
        return self.tol_alg * (1.0 + math.prod(norms))

    def herm(self, *norms: float) -> float:
        return self.tol_herm * (1.0 + math.prod(norms))

    def eig(self, *norms: float) -> float:
        return self.tol_eig * (1.0 + math.prod(norms))

    def replace(self, **kwargs) -> "TolerancePolicy":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = TolerancePolicy()


def as_operator(a) -> np.ndarray:
    """Coerce to a validated square complex matrix (dim >= 1, finite)."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("operator dimension must be >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator entries must be finite")
    return arr


def _integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int: an integer or an integral float such as 4.0.

    A bool, a string or 2.7 is not taken for a number: ``error`` is raised,
    naming ``name``.
    """
    integral = isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


# The range of the largest |entry| of a nonzero matrix in which the squares
# that form ``operator_norm``'s Gram matrix neither overflow nor underflow;
# the function reads it off the Gram matrix's diagonal.
_GRAM_RANGE = (2.0**-500, 2.0**500)


def operator_norm(a) -> float | np.ndarray:
    """Largest singular value, of a matrix or of each matrix in a stack.

    A 2-D input gives a float.  A ``(..., M, N)`` stack gives an array of
    its leading shape, with one Gram product and one eigensolver call for
    the whole stack and the same value per matrix as a 2-D call; an empty
    stack gives shape (0,), and matrices with no entries (a zero-size
    dimension) give zeros, as ``frobenius_norm`` does.

    sigma_max(A)^2 = lambda_max(A* A), so the value is the square root of
    the largest eigenvalue of the smaller Gram matrix G, A* A when M >= N
    and A A* otherwise, from ``np.linalg.eigvalsh`` (Golub & Van Loan,
    *Matrix Computations*, secs. 2.3 and 8.1).  Error bound: with
    m = max(M, N), k = min(M, N) and eps the machine epsilon, the computed
    G is off by at most about m eps ||A||_F^2 <= m k eps sigma_max^2
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.5);
    the eigensolver is backward stable, off by c k eps ||G|| with a modest
    c; by Weyl's inequality lambda_max moves by no more than the sum, and
    the square root halves the relative error.  For c <= m + 2 the value
    is within a relative (M + 1)(N + 1) eps of sigma_max, 1.5e-13 at
    25 x 25.  That holds while the squares neither overflow nor underflow,
    that is while the largest |entry| a of every nonzero matrix lies in
    [2^-500, 2^500].  The range is read off G's diagonal, whose largest
    entry g (a squared column or row norm) lies in [a^2, m a^2]: a matrix
    is vouched for when m 2^-1000 <= g <= 2^1000, or when it is exactly
    zero.  A stack with any other matrix (a non-finite entry, squares that
    overflow, or a nonzero matrix whose squares underflow, down to a zero
    diagonal) takes the SVD instead, the path that stays accurate there.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    if a.size == 0:  # no entries: zeros of the leading shape
        return frobenius_norm(a)
    ah = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # judged below
        gram = ah @ a if a.shape[-2] >= a.shape[-1] else a @ ah
    g = gram.diagonal(0, -2, -1).real.max(-1)  # in [a^2, m a^2], per matrix
    lo, hi = _GRAM_RANGE
    floor, ceil = max(a.shape[-2:]) * lo**2, hi**2
    if g.ndim == 0:
        vouched = floor <= g <= ceil  # False for NaN
    else:
        vouched = floor <= g.min() and g.max() <= ceil
    if not vouched:
        zero = g == 0  # a zero matrix, or one whose every square underflows
        vouched = np.all(zero | ((g >= floor) & (g <= ceil))) and not np.any(a[zero])
    if vouched:
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def frobenius_norm(a) -> float | np.ndarray:
    """Frobenius norm, of a matrix or of each matrix in a stack.

    Same contract as ``operator_norm``: a 2-D input gives a float, a
    ``(..., M, N)`` stack an array of its leading shape.  No SVD: a sum of
    squares per matrix.  For every R, ||R||_2 <= ||R||_F <= sqrt(rank R)
    ||R||_2 (Golub & Van Loan, *Matrix Computations*, sec. 2.3), so a
    residual that meets an operator-norm tolerance in this norm meets it
    in the operator norm too; only the verdict is stricter, by at most
    sqrt(rank R).  The norms of the rows of a 2-D R are those of the
    stack ``R[:, None]``.

    Each norm is one dot product of the matrix's entries, read as a
    contiguous real array (a complex matrix through its real view), with
    itself: a stack is one stacked matmul of its flattened matrices and
    forms no conjugated, squared or real-part temporary.  A non-contiguous
    slice is copied once.  Like ``np.linalg.norm`` there is no rescaling:
    a sum of squares that overflows gives inf.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        real = np.ascontiguousarray(a, dtype=complex).view(float)
    else:
        real = np.ascontiguousarray(a, dtype=float)
    lead = a.shape[:-2]
    flat = real.reshape(math.prod(lead), real.shape[-2] * real.shape[-1])
    if not lead:
        return math.sqrt(float(flat[0] @ flat[0]))
    return np.sqrt(flat[:, None, :] @ flat[:, :, None]).reshape(lead)


def hermitian_part(a) -> np.ndarray:
    a = as_operator(a)
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class SelfAdjointGenerator:
    """A Hermitian operator stored with its eigendecomposition.

    ``base == eigenvectors @ diag(eigenvalues) @ eigenvectors*`` within
    tolerance; eigenvalues are real and ascending.  The generator drives
    the unitary group exp(itD) and the spectral band projections.

    The constructor's guards (Hermitian base, unitary eigenvectors,
    reconstruction) are Frobenius norms, each within 1e-7 (1 + max |lambda|);
    ``residual`` is the reconstruction's, ||base - V diag(lambda) V*||_F,
    and ``norm()`` returns ||D|| = max |lambda|, computed once here.
    """

    base: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float = field(init=False, repr=False, compare=False)
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = as_operator(self.base)
        evals = np.asarray(self.eigenvalues, dtype=float)
        evecs = as_operator(self.eigenvectors)
        n = base.shape[0]
        if evals.shape != (n,) or evecs.shape != (n, n):
            raise ValueError("eigendata shapes inconsistent with base operator")
        if np.any(np.diff(evals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        norm = float(np.max(np.abs(evals), initial=0.0))
        guard = 1e-7 * (1.0 + norm)
        if frobenius_norm(base - base.conj().T) > guard:
            raise NotHermitian("base operator is not Hermitian")
        if frobenius_norm(evecs @ evecs.conj().T - np.eye(n)) > guard:
            raise ValueError("eigenvectors are not unitary")
        residual = frobenius_norm(base - (evecs * evals) @ evecs.conj().T)
        if residual > guard:
            raise ValueError("eigendecomposition does not reconstruct the base operator")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "_norm", norm)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def norm(self) -> float:
        return self._norm

    def shifted(self, c: float) -> "SelfAdjointGenerator":
        """Generator of D + c*I; same eigenvectors, shifted spectrum."""
        c = float(c)
        return SelfAdjointGenerator(
            self.base + c * np.eye(self.dim),
            self.eigenvalues + c,
            self.eigenvectors,
        )


def eig_hermitian(a, tol: TolerancePolicy | None = None) -> SelfAdjointGenerator:
    """Eigendecompose a Hermitian operator.

    Raises NotHermitian if ``||a - a*||_F > tol_herm * (1 + ||a||)`` and
    ArithmeticError if the generator's reconstruction residual (a
    Frobenius norm) exceeds ``tol_eig * (1 + ||a||)``, with ||a|| the
    operator norm.  The stored base is the Hermitian part of the input, so
    the reconstruction residual is at eigensolver accuracy.
    """
    tol = tol or DEFAULT_TOL
    a = as_operator(a)
    norm_a = operator_norm(a)
    if frobenius_norm(a - a.conj().T) > tol.herm(norm_a):
        raise NotHermitian("operator is not Hermitian within tol_herm")
    h = (a + a.conj().T) / 2.0  # hermitian_part of the validated a
    gen = SelfAdjointGenerator(h, *np.linalg.eigh(h))
    if gen.residual > tol.eig(norm_a):
        raise ArithmeticError("eigendecomposition residual exceeds tol_eig")
    return gen


def unitary_group(d: SelfAdjointGenerator, t) -> np.ndarray:
    """exp(itD), computed through the eigendecomposition.

    Exact unitarity up to eigensolver accuracy; satisfies the group law
    exp(i(s+t)D) = exp(isD) exp(itD) within roundoff.  A scalar t gives
    an (N, N) matrix; a 1-D array of T times gives the (T, N, N) stack
    ``(V * phases[..., None, :]) @ V*``, entry k equal to the matrix at
    ``t[k]``.
    """
    phases = np.exp(1j * np.asarray(t, dtype=float)[..., None] * d.eigenvalues)
    u = d.eigenvectors
    return (u * phases[..., None, :]) @ u.conj().T


def band_index(lam: float) -> int:
    """Band of an eigenvalue: the unique integer r with lam in (r-1, r].

    The comparison is exact on the computed eigenvalue (no fuzzing): an
    eigenvalue equal to an integer r belongs to band r.
    """
    return math.ceil(lam)


def band_groups(eigenvalues) -> dict[int, list[int]]:
    """Group eigenvalue indices by band; only nonempty bands appear."""
    groups: dict[int, list[int]] = {}
    for idx, lam in enumerate(np.asarray(eigenvalues, dtype=float)):
        groups.setdefault(band_index(lam), []).append(idx)
    return {r: groups[r] for r in sorted(groups)}


def spectral_band_projections(d: SelfAdjointGenerator) -> list[tuple[int, np.ndarray]]:
    """Orthogonal projections onto the eigenspaces with eigenvalue in (r-1, r].

    Returns (r, e_r) pairs for the nonempty bands only.  The projections
    are mutually orthogonal and sum to the identity.
    """
    out = []
    for r, idx in band_groups(d.eigenvalues).items():
        v = d.eigenvectors[:, idx]
        out.append((r, v @ v.conj().T))
    return out


# Batched products (Gram matrices, closure products) are formed this many
# matrix entries at a time.
_BATCH_ENTRIES = 1 << 20


# Largest ||G - I||_F accepted for a basis called orthonormal.
_GRAM_GUARD = 1e-8


def _gram_deviation(rows: np.ndarray) -> float:
    """||G - I||_F for the Gram matrix G = conj(rows) rows^T of the rows.

    The Frobenius norm bounds the operator norm from above, so a guard on
    it is at least as strict, and it needs no SVD.  G is formed in row
    blocks of about ``_BATCH_ENTRIES`` entries of ``rows``, so no
    conjugated copy of the whole array is held.
    """
    m, width = rows.shape
    step = max(1, _BATCH_ENTRIES // max(width, 1))
    total = 0.0
    for start in range(0, m, step):
        block = rows[start : start + step].conj() @ rows.T
        idx = np.arange(len(block))
        block[idx, start + idx] -= 1.0
        total += float(np.vdot(block, block).real)
    return math.sqrt(total)


@dataclass(frozen=True)
class Subspace:
    """Closed subspace given by an orthonormal basis (columns).

    The constructor checks the basis against ``_GRAM_GUARD``.  Two bases
    are orthonormal by construction and are not checked again: an
    ``embedded`` copy, whose zero rows leave the Gram matrix of a checked
    basis unchanged, and columns of the identity, whose Gram matrix is
    exactly I.  Both go through ``_orthonormal``.  A graph is carried by
    its graph map instead (``GraphSubspace``): its basis is formed, and
    checked, on first use.  A plain subspace carries no map: ``graph`` is
    None.

    A subspace is read only through its basis; no d x d projection is
    formed (``reflexivity.invariance_residuals`` takes its leak as
    ||X B - B (B* X B)||_F).
    """

    ambient_dim: int
    basis: np.ndarray
    graph = None  # a class attribute, not a field

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError("basis must be an (ambient_dim, k) matrix")
        if not _gram_deviation(basis.T) <= _GRAM_GUARD:  # NaN fails too
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _orthonormal(cls, basis: np.ndarray) -> "Subspace":
        """A subspace of C^len(basis) from a complex basis that is orthonormal
        by construction, without the constructor's Gram check."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", basis.shape[0])
        object.__setattr__(sub, "basis", basis)
        return sub

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def embedded(self, ambient_dim: int, offset: int = 0) -> "Subspace":
        """The same subspace inside a larger space (basis rows shifted by offset)."""
        if offset < 0 or offset + self.ambient_dim > ambient_dim:
            raise ValueError("embedding does not fit in the target space")
        basis = np.zeros((ambient_dim, self.dim), dtype=complex)
        basis[offset : offset + self.ambient_dim, :] = self.basis
        return Subspace._orthonormal(basis)


class GraphSubspace(Subspace):
    """The graph {(G xi, xi) : xi in C^k} of a (p, k) map G, in the first
    p + k coordinates of C^ambient_dim, carried by G.

    ``graph`` is G as given.  The orthonormal basis is the Q factor of one
    QR of the columns [G; I_k], zero below them; they have rank k (their
    last k rows are the identity), so Q spans the graph.  It is formed,
    and checked against ``_GRAM_GUARD`` as the constructor of ``Subspace``
    checks, on the first read of ``basis`` and kept; a consumer that needs
    only G never forms it.  ``embedded`` at offset 0 keeps the map; at
    another offset the copy is a plain subspace of the embedded basis.
    """

    def __init__(self, ambient_dim: int, graph: np.ndarray):
        graph = np.asarray(graph, dtype=complex)
        if graph.ndim != 2 or sum(graph.shape) > ambient_dim:
            raise ValueError(f"a graph map of shape {graph.shape} does not fit in C^{ambient_dim}")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "graph", graph)

    @property
    def dim(self) -> int:
        return self.graph.shape[1]

    @functools.cached_property
    def basis(self) -> np.ndarray:
        p, k = self.graph.shape
        q, _ = np.linalg.qr(np.vstack([self.graph, np.eye(k, dtype=complex)]))
        if not _gram_deviation(q.T) <= _GRAM_GUARD:  # NaN fails too
            raise ValueError("basis columns are not orthonormal")
        basis = np.zeros((self.ambient_dim, k), dtype=complex)
        basis[: p + k] = q
        return basis

    def embedded(self, ambient_dim: int, offset: int = 0) -> Subspace:
        if offset or self.ambient_dim > ambient_dim:
            return super().embedded(ambient_dim, offset)
        return GraphSubspace(ambient_dim, self.graph)


@dataclass(frozen=True)
class OperatorSpace:
    """Linear space of operators, given by a basis orthonormal under the
    trace inner product tr(A* B), as one ``(m, ambient_dim, ambient_dim)``
    stack.  The constructor takes the basis as given and checks its Gram
    matrix against the same guard as ``Subspace``; ``span`` orthonormalizes
    linearly independent elements.  A von Neumann algebra built from its
    block structure is carried by its classes instead
    (``blocks.ClassAlgebra``).
    """

    ambient_dim: int
    basis_elements: np.ndarray

    def __post_init__(self):
        d = self.ambient_dim
        elems = np.ascontiguousarray(self.basis_elements, dtype=complex)
        if elems.size == 0:
            elems = np.zeros((0, d, d), dtype=complex)
        if elems.ndim != 3 or elems.shape[1:] != (d, d):
            raise DimensionMismatch(f"basis of shape {elems.shape} is not an (m, {d}, {d}) stack")
        if not _gram_deviation(elems.reshape(len(elems), d * d)) <= _GRAM_GUARD:  # NaN fails too
            raise ValueError("basis elements are not orthonormal")
        object.__setattr__(self, "basis_elements", elems)

    @classmethod
    def span(cls, dim: int, elements) -> "OperatorSpace":
        """The span of linearly independent operators, orthonormalized by one
        QR of the ``(dim*dim, m)`` stack Q R; the basis is Q.  R has the
        stack's singular values, so linearly dependent elements (the last
        one at most the default rank cutoff times the first) raise
        ValueError, as does a stack of more than dim*dim elements."""
        elems = np.asarray(elements, dtype=complex)
        if elems.size == 0:
            return cls(dim, elems)
        flat = elems.reshape(len(elems), -1)
        if len(flat) > flat.shape[1]:
            raise ValueError("basis elements are not linearly independent")
        q, r = np.linalg.qr(flat.T)
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= DEFAULT_TOL.rank_cutoff * s[0]:
            raise ValueError("basis elements are not linearly independent")
        # the elements are the columns of Q; rebinding q frees Q's (dim*dim, m)
        # layout before the constructor's Gram check, so only one copy is held
        q = np.ascontiguousarray(q.T).reshape(elems.shape)
        return cls(dim, q)  # the constructor checks the shape

    @property
    def dim(self) -> int:
        return len(self.basis_elements)

    def membership_residual(self, x) -> float:
        """Frobenius distance from x to the span, relative to 1 + ||x||_F."""
        return float(self._residuals(as_operator(x)[None])[0])

    def _residuals(self, ops: np.ndarray) -> np.ndarray:
        """membership_residual of each operator in an ``(m, d, d)`` stack."""
        d = self.ambient_dim
        if ops.shape[1:] != (d, d):
            raise DimensionMismatch(f"operators of shape {ops.shape[1:]} in a space on C^{d}")
        # the trace inner product is the dot product of the flattened matrices
        flat = ops.reshape(len(ops), d * d)
        basis = self.basis_elements.reshape(self.dim, d * d)
        resid = flat - (flat @ basis.conj().T) @ basis
        return frobenius_norm(resid[:, None]) / (1.0 + frobenius_norm(flat[:, None]))

    def product_closure_residual(self, max_pairs: int | None = None) -> float:
        """Worst membership residual among pairwise products of basis elements.

        With ``max_pairs`` set, a deterministic sample of that many index
        pairs is checked instead of all dim**2 (which grows too costly for
        large spaces).  The products are formed and projected in batches.
        """
        k, d = self.dim, self.ambient_dim
        if k == 0:
            return 0.0
        if max_pairs is None or k * k <= max_pairs:
            left, right = np.divmod(np.arange(k * k), k)
        else:
            rng = np.random.default_rng(0)
            left, right = rng.integers(0, k, size=(max_pairs, 2)).T
        elems = self.basis_elements
        worst = 0.0
        step = max(1, _BATCH_ENTRIES // (d * d))
        for start in range(0, len(left), step):
            i, j = left[start : start + step], right[start : start + step]
            worst = max(worst, float(self._residuals(elems[i] @ elems[j]).max()))
        return worst


def nullspace_of_constraints(
    constraints,
    dim: int,
    tol: TolerancePolicy | None = None,
    scale: float | None = None,
) -> np.ndarray:
    """Orthonormal basis of {u : C @ u = 0 for every constraint C}, as the
    columns of an ``(M, m)`` array of coordinates.

    The M coordinates are whatever the caller solves on, such as the
    coefficients of an operator on a basis of candidates: each constraint
    is a 2-D ndarray with one column per coordinate, and M is their column
    count (dim*dim, the entries of an operator on C^dim, when there is
    none).  The solution is narrowed one
    constraint at a time (an intersection of null spaces): the constraint
    is restricted to the current orthonormal null basis B, the SVD of
    C @ B is taken, and B is replaced by B times the right singular
    vectors past the rank.  Rank is decided per step:
    singular values above ``rank_cutoff * max(scale, s_max)`` count, where
    s_max is the largest singular value of any restricted constraint seen
    so far.  A caller that knows the natural magnitude of its constraints
    should pass ``scale``, so a constraint that is pure roundoff noise
    (for example the commutant of a numerically scalar operator), or one
    that earlier constraints already imply, is treated as zero instead of
    as a noise matrix of spurious full rank.  With no constraints the
    whole coordinate space is returned; a trivial solution space yields an
    empty basis.
    """
    tol = tol or DEFAULT_TOL
    basis = None  # the whole coordinate space
    width = None
    largest = 0.0
    for c in constraints:
        mat = np.asarray(c, dtype=complex)
        if mat.ndim != 2:
            raise ValueError(f"constraint must be a 2-D matrix, got shape {mat.shape}")
        width = mat.shape[1] if width is None else width
        if mat.shape[1] != width:
            raise ValueError(f"constraint matrix must have {width} columns, got {mat.shape}")
        restricted = mat if basis is None else mat @ basis
        rows, cols = restricted.shape
        if min(rows, cols) == 0:
            continue
        # wide: only the full V holds the null vectors; tall: the thin SVD has all of V
        _, s, vh = np.linalg.svd(restricted, full_matrices=rows < cols)
        largest = max(largest, float(s[0]))
        threshold = tol.rank_cutoff * max(largest, scale or 0.0)
        rank = int(np.sum(s > threshold)) if threshold > 0 else int(np.sum(s > 0))
        null = vh[rank:].conj().T
        basis = null if basis is None else basis @ null

    if basis is None:
        return np.eye(dim * dim if width is None else width, dtype=complex)
    return basis


def save_operator(path, a) -> None:
    """Write a matrix as compact JSON (no whitespace):
    {"dim": n, "entries": [[[re, im], ...], ...]} row-major."""
    a = as_operator(a)
    entries = np.stack([a.real, a.imag], -1).tolist()
    payload = {"dim": a.shape[0], "entries": entries}
    Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def load_matrix_json(path) -> tuple[np.ndarray, dict]:
    """Read the shared matrix JSON format; returns (matrix, extra fields).

    ``entries`` is parsed in one go as an object array, which must be a
    ``(dim, dim, 2)`` array of JSON numbers, a row-major matrix of
    [re, im] pairs; anything else (a short, long, ragged or non-numeric
    cell, a boolean among them) raises ValueError naming the file.  Any
    JSON number is taken, also an integer beyond 64 bits.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise ValueError(f"{path}: not a matrix JSON file (missing dim/entries)")
    n = _integer(payload["dim"], f"{path}: dim")
    try:
        cells = np.array(payload["entries"], dtype=object)
        # a JSON number is an int or a float; a bool is an int to numpy
        if cells.shape == (n, n, 2) and all(type(x) in (int, float) for x in cells.flat):
            cells = cells.astype(float)
    except (ValueError, OverflowError):  # ragged; an integer beyond the float range
        cells = None
    if cells is None or cells.dtype != float:
        raise ValueError(f"{path}: entries are not a {n}x{n} matrix of [re, im] pairs of numbers")
    try:
        a = as_operator(cells.view(complex)[..., 0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    extra = {k: v for k, v in payload.items() if k not in ("dim", "entries")}
    return a, extra


def load_operator(path) -> np.ndarray:
    return load_matrix_json(path)[0]
