"""Dense complex-matrix substrate.

Everything in the toolkit runs on square complex ndarrays ("operators").
This module provides the Hermitian eigendecomposition, the operator norm,
the one-parameter unitary group t -> exp(itD), spectral band projections
for the half-open intervals (r-1, r], orthonormal subspaces, linear spaces
of operators, and a nullspace solver for stacked linear operator equations
C @ vec(X) = 0.

Conventions
-----------
* Vectorization is column-major (Fortran order) throughout, so that
  ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.  The order is fixed so
  nullspace bases are reproducible run to run.
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
    "vec",
    "unvec",
    "commutation_constraint",
    "invariance_constraint",
    "nullspace_of_constraints",
    "matrix_units",
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


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), ord=2))


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


def unitary_group(d: SelfAdjointGenerator, t: float) -> np.ndarray:
    """exp(itD), computed through the eigendecomposition.

    Exact unitarity up to eigensolver accuracy; satisfies the group law
    exp(i(s+t)D) = exp(isD) exp(itD) within roundoff.
    """
    phases = np.exp(1j * float(t) * d.eigenvalues)
    u = d.eigenvectors
    return (u * phases) @ u.conj().T


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


@dataclass(frozen=True)
class Subspace:
    """Closed subspace given by an orthonormal basis (columns).

    The projection field is derived: ``basis @ basis*``.  Subspaces are
    compared through projections, never through bases.
    """

    ambient_dim: int
    basis: np.ndarray
    projection: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ValueError("basis must be an (ambient_dim, k) matrix")
        k = basis.shape[1]
        if k > 0:
            gram = basis.conj().T @ basis
            if operator_norm(gram - np.eye(k)) > 1e-8:
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

    def distance(self, other: "Subspace") -> float:
        """Operator-norm distance between the two projections."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return operator_norm(self.projection - other.projection)

    def embedded(self, ambient_dim: int, offset: int = 0) -> "Subspace":
        """The same subspace inside a larger space (basis rows shifted by offset)."""
        if offset < 0 or offset + self.ambient_dim > ambient_dim:
            raise ValueError("embedding does not fit in the target space")
        basis = np.zeros((ambient_dim, self.dim), dtype=complex)
        basis[offset : offset + self.ambient_dim, :] = self.basis
        return Subspace(ambient_dim, basis)


# Batched closure products are formed this many matrix entries at a time.
_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class OperatorSpace:
    """Linear space of operators given by a linearly independent basis."""

    ambient_dim: int
    basis_elements: tuple

    def __post_init__(self):
        elems = tuple(as_operator(b) for b in self.basis_elements)
        for b in elems:
            if b.shape[0] != self.ambient_dim:
                raise DimensionMismatch("basis element dimension differs from ambient_dim")
        object.__setattr__(self, "basis_elements", elems)
        if elems:
            stacked = np.stack([vec(b) for b in elems], axis=1)
            u, s, _ = np.linalg.svd(stacked, full_matrices=False)
            if s.size and s[-1] <= DEFAULT_TOL.rank_cutoff * s[0]:
                raise ValueError("basis elements are not linearly independent")
            object.__setattr__(self, "_q", u[:, : len(elems)])
        else:
            object.__setattr__(self, "_q", np.zeros((self.ambient_dim**2, 0), dtype=complex))

    @classmethod
    def from_columns(cls, dim: int, columns: np.ndarray) -> "OperatorSpace":
        """The span of the columns of a ``(dim*dim, m)`` array of vec'd operators."""
        return cls(dim, tuple(unvec(col, dim) for col in columns.T))

    @property
    def dim(self) -> int:
        return len(self.basis_elements)

    def stacked(self) -> np.ndarray:
        """The basis elements as one ``(dim, ambient_dim, ambient_dim)`` array."""
        d = self.ambient_dim
        return np.stack(self.basis_elements) if self.dim else np.zeros((0, d, d), dtype=complex)

    def membership_residual(self, x) -> float:
        """Frobenius distance from x to the span, relative to 1 + ||x||_F."""
        return float(self._residuals(as_operator(x)[None])[0])

    def _residuals(self, ops: np.ndarray) -> np.ndarray:
        """membership_residual of each operator in an ``(m, d, d)`` stack."""
        d = self.ambient_dim
        if ops.shape[1:] != (d, d):
            raise DimensionMismatch(f"operators of shape {ops.shape[1:]} in a space on C^{d}")
        # column-major vec of each operator, one operator per column
        cols = ops.transpose(2, 1, 0).reshape(d * d, -1)
        q = self._q
        resid = cols - q @ (q.conj().T @ cols)
        return np.linalg.norm(resid, axis=0) / (1.0 + np.linalg.norm(cols, axis=0))

    def equals(self, other: "OperatorSpace", tol: float = 1e-9) -> bool:
        """Same span: equal dimensions plus mutual membership of the bases."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return bool(
            np.all(self._residuals(other.stacked()) <= tol)
            and np.all(other._residuals(self.stacked()) <= tol)
        )

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
        elems = self.stacked()
        worst = 0.0
        step = max(1, _BATCH_ENTRIES // (d * d))
        for start in range(0, len(left), step):
            i, j = left[start : start + step], right[start : start + step]
            worst = max(worst, float(self._residuals(elems[i] @ elems[j]).max()))
        return worst


def vec(x) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def commutation_constraint(g) -> np.ndarray:
    """Matrix of X -> X g - g X; its nullspace is the commutant of g."""
    g = as_operator(g)
    eye = np.eye(g.shape[0])
    return np.kron(g.T, eye) - np.kron(eye, g)


def invariance_constraint(v) -> np.ndarray:
    """Matrix of X -> Qc* X V, where the columns of V are an orthonormal
    basis of a subspace and those of Qc an orthonormal basis of its
    complement; nullspace = operators leaving the subspace invariant.

    It has k * (d - k) rows for a k-dimensional subspace of C^d (none for
    the zero or the whole space), against d * d for the equivalent map
    X -> (I - P) X P.  Its rows are orthonormal.
    """
    v = np.asarray(v, dtype=complex)
    q, _ = np.linalg.qr(v, mode="complete")
    return np.kron(v.T, q[:, v.shape[1] :].conj().T)


def matrix_units(dim: int) -> list[np.ndarray]:
    """Standard matrix units in column-major order (orthonormal under vec)."""
    return [unvec(col, dim) for col in np.eye(dim * dim).T]


def nullspace_of_constraints(
    constraints,
    dim: int,
    tol: TolerancePolicy | None = None,
    scale: float | None = None,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """Orthonormal basis of {X in W : C @ vec(X) = 0 for every constraint C},
    as the columns of a ``(dim*dim, m)`` array (vec coordinates).

    Each constraint is a 2-D ndarray with ``dim*dim`` columns.  W is the
    span of ``within``, a ``(dim*dim, m)`` array with orthonormal columns,
    when given, else the whole matrix space.  The solution is narrowed one
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
    starting space is returned; a trivial solution space yields an empty
    basis.  ``OperatorSpace.from_columns`` turns the result into a space.
    """
    tol = tol or DEFAULT_TOL
    d2 = dim * dim
    basis = within  # None: the whole matrix space
    largest = 0.0
    for c in constraints:
        mat = np.asarray(c, dtype=complex)
        if mat.ndim != 2 or mat.shape[1] != d2:
            raise ValueError(f"constraint matrix must have {d2} columns, got {mat.shape}")
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

    return np.eye(d2, dtype=complex) if basis is None else basis


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
