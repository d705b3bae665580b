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
import json
import math
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
    "hermitian_part",
    "SelfAdjointGenerator",
    "eig_hermitian",
    "unitary_group",
    "band_index",
    "band_groups",
    "spectral_band_projections",
    "Subspace",
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
    tol_alg guards exact algebraic identities, tol_fd guards finite
    difference probes, and rank_cutoff is the relative singular-value
    threshold for rank decisions.  Residual tolerances are scaled as
    ``tol * (1 + prod(norms of the inputs))`` so products of large-norm
    operators are judged relatively.
    """

    tol_herm: float = 1e-9
    tol_eig: float = 1e-9
    tol_alg: float = 1e-9
    tol_fd: float = 1e-4
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


def operator_norm(a) -> float | np.ndarray:
    """Largest singular value, of a matrix or of each matrix in a stack.

    A 2-D input gives a float.  A ``(..., M, N)`` stack gives an array of
    its leading shape, with one LAPACK call for the whole stack and the
    same value per matrix as a 2-D call; an empty stack gives shape (0,).
    """
    norms = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[..., 0]
    return float(norms) if norms.ndim == 0 else norms


def hermitian_part(a) -> np.ndarray:
    a = as_operator(a)
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class SelfAdjointGenerator:
    """A Hermitian operator stored with its eigendecomposition.

    ``base == eigenvectors @ diag(eigenvalues) @ eigenvectors*`` within
    tolerance; eigenvalues are real and ascending.  The generator drives
    the unitary group exp(itD) and the spectral band projections.
    """

    base: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        base = as_operator(self.base)
        evals = np.asarray(self.eigenvalues, dtype=float)
        evecs = as_operator(self.eigenvectors)
        n = base.shape[0]
        if evals.shape != (n,) or evecs.shape != (n, n):
            raise ValueError("eigendata shapes inconsistent with base operator")
        if np.any(np.diff(evals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        scale = 1.0 + float(np.max(np.abs(evals), initial=0.0))
        guard = 1e-7 * scale
        if operator_norm(base - base.conj().T) > guard:
            raise NotHermitian("base operator is not Hermitian")
        if operator_norm(evecs @ evecs.conj().T - np.eye(n)) > guard:
            raise ValueError("eigenvectors are not unitary")
        recon = (evecs * evals) @ evecs.conj().T
        if operator_norm(base - recon) > guard:
            raise ValueError("eigendecomposition does not reconstruct the base operator")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

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

    Raises NotHermitian if ``||a - a*|| > tol_herm * (1 + ||a||)``.  The
    stored base is the Hermitian part of the input, so the reconstruction
    residual is at eigensolver accuracy.
    """
    tol = tol or DEFAULT_TOL
    a = as_operator(a)
    norm_a = operator_norm(a)
    if operator_norm(a - a.conj().T) > tol.herm(norm_a):
        raise NotHermitian("operator is not Hermitian within tol_herm")
    h = hermitian_part(a)
    evals, evecs = np.linalg.eigh(h)
    gen = SelfAdjointGenerator(h, evals, evecs)
    recon = (evecs * evals) @ evecs.conj().T
    if operator_norm(h - recon) > tol.eig(norm_a):
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

    The projection field is derived: ``basis @ basis*``.
    """

    ambient_dim: int
    basis: np.ndarray
    projection: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError("basis must be an (ambient_dim, k) matrix")
        if _gram_deviation(basis.T) > _GRAM_GUARD:
            raise ValueError("basis columns are not orthonormal")
        proj = basis @ basis.conj().T
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "projection", proj)

    @classmethod
    def from_columns(cls, columns, rank_cutoff: float = 1e-9) -> "Subspace":
        """Orthonormalize spanning columns via SVD with a relative rank cutoff."""
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim != 2:
            raise ValueError("columns must be 2-D")
        d = cols.shape[0]
        if cols.shape[1] == 0:
            return cls(d, np.zeros((d, 0), dtype=complex))
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > rank_cutoff * smax)) if smax > 0 else 0
        return cls(d, u[:, :rank])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def embedded(self, ambient_dim: int, offset: int = 0) -> "Subspace":
        """The same subspace inside a larger space (basis rows shifted by offset)."""
        if offset < 0 or offset + self.ambient_dim > ambient_dim:
            raise ValueError("embedding does not fit in the target space")
        basis = np.zeros((ambient_dim, self.dim), dtype=complex)
        basis[offset : offset + self.ambient_dim, :] = self.basis
        return Subspace(ambient_dim, basis)


@dataclass(frozen=True)
class OperatorSpace:
    """Linear space of operators, given by a basis orthonormal under the
    trace inner product tr(A* B), as one ``(m, ambient_dim, ambient_dim)``
    stack.  The constructor takes the basis as given and checks its Gram
    matrix against the same guard as ``Subspace``; ``span`` orthonormalizes
    linearly independent elements.
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
        if _gram_deviation(elems.reshape(len(elems), d * d)) > _GRAM_GUARD:
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
        return np.linalg.norm(resid, axis=1) / (1.0 + np.linalg.norm(flat, axis=1))

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


def save_operator(path, a, extra: dict | None = None) -> None:
    """Write a matrix as JSON: {"dim": n, "entries": [[[re, im], ...], ...]} row-major."""
    a = as_operator(a)
    n = a.shape[0]
    entries = [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(n)] for i in range(n)]
    payload: dict = {"dim": n, "entries": entries}
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2))


def load_matrix_json(path) -> tuple[np.ndarray, dict]:
    """Read the shared matrix JSON format; returns (matrix, extra fields)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise ValueError(f"{path}: not a matrix JSON file (missing dim/entries)")
    n = int(payload["dim"])
    entries = payload["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"{path}: entries do not form a {n}x{n} matrix")
    a = np.array(
        [[complex(cell[0], cell[1]) for cell in row] for row in entries], dtype=complex
    )
    extra = {k: v for k, v in payload.items() if k not in ("dim", "entries")}
    return as_operator(a), extra


def load_operator(path) -> np.ndarray:
    return load_matrix_json(path)[0]
