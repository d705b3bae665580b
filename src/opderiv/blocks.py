"""Block structure of a *-algebra of operators, read off its commutant.

A von Neumann algebra M on C^N is, in a suitable orthonormal basis,
(+)_k M_{n_k} (x) I_{m_k}, and its commutant M' is (+)_k I_{n_k} (x)
M_{m_k} (see Murota, Kanno, Kojima and Kojima, "A numerical algorithm for
block-diagonal decomposition of matrix *-algebras", Japan J. Indust.
Appl. Math. 27, 2010).  The eigenspaces of a generic Hermitian element h
of M' are the irreducible pieces C^{n_k} (x) xi.  ``block_structure``
sorts them into classes of equivalent pieces, aligned by unitary
intertwiners, with two of the three checks that certify them
(``reflexivity.lat_family`` adds the third and holds the proof);
``ClassAlgebra`` carries M by those classes, from which its elements,
its projection and its dimension follow without its basis.  No
nullspace is solved here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .core import DimensionMismatch, OperatorSpace, TolerancePolicy, frobenius_norm

__all__ = ["ClassAlgebra", "block_structure", "links"]


def links(compressed: np.ndarray, bounds: list[int], tol: TolerancePolicy) -> list[tuple]:
    """The links (r, b, T) between equivalent pieces.

    ``compressed`` is the commutant's basis in the eigenbasis of h, and
    piece a spans eigenvectors ``bounds[a]:bounds[a + 1]``.  Pieces a and b
    are equivalent iff the commutant has a nonzero compression between
    them: the norm of its (a, b) blocks over the orthonormal basis is 1 or
    0, and counts as nonzero above ``rank_cutoff`` times the largest.  Each
    piece b equivalent to an earlier class representative r gets T =
    C sqrt(n) / ||C||_F for its largest compression C from b to r: the
    polar part of C when C is a multiple of a unitary, as it is for an
    intertwiner between irreducible pieces.
    """
    starts = bounds[:-1]
    energy = np.sum(np.abs(compressed) ** 2, axis=0)
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(energy, starts, axis=0), starts, axis=1))
    cut = tol.rank_cutoff * norms.max()
    reps, found = [], []
    for b in range(len(starts)):
        r = next((r for r in reps if norms[r, b] > cut), None)
        if r is None:
            reps.append(b)
            continue
        c = compressed[:, bounds[r] : bounds[r + 1], bounds[b] : bounds[b + 1]]
        big = c[np.argmax(frobenius_norm(c))]
        found.append((r, b, big * np.sqrt(len(big)) / frobenius_norm(big)))
    return found


def block_structure(
    com: OperatorSpace, h: np.ndarray, tol: TolerancePolicy
) -> tuple[list[np.ndarray], dict[str, tuple[float, float]]]:
    """The classes of irreducible pieces that a Hermitian h in the commutant
    reveals, and two of the three checks that certify them.

    The pieces are the eigenspaces of h, clustered where consecutive
    eigenvalues differ by at most ``tol.eig(||h||)``.  Class k is an
    (m_k, N, n_k) stack: the bases of its m_k equivalent pieces, aligned
    by the link intertwiners so that the commutant acts on the class as
    M_{m_k} (x) I_{n_k}.  ``checks`` maps each check to (residual,
    tolerance): ``unitary``, the largest Frobenius distance of T T* and
    T* T from I over the links, against ``rank_cutoff``; ``dimension``,
    |sum_k m_k^2 - dim M'|, against 0.  ``lat_family`` adds
    ``generators``, decides, and proves that the three certify the classes.
    """
    dim = com.ambient_dim
    evals, u = np.linalg.eigh(h)
    cut = tol.eig(float(np.abs(evals).max()))
    bounds = [0, *(np.flatnonzero(np.diff(evals) > cut) + 1).tolist(), dim]
    compressed = u.conj().T @ com.basis_elements @ u
    pieces = [u[:, a:b] for a, b in zip(bounds, bounds[1:])]
    pairs = links(compressed, bounds, tol)
    linked = {b: (r, t) for r, b, t in pairs}
    classes = [
        np.stack([v] + [pieces[b] @ t.conj().T for b, (rep, t) in linked.items() if rep == r])
        for r, v in enumerate(pieces)
        if r not in linked
    ]
    grams = [g for _, _, t in pairs for g in (t @ t.conj().T, t.conj().T @ t)]
    unitary = max((frobenius_norm(g - np.eye(len(g))) for g in grams), default=0.0)
    dimension = float(abs(sum(len(s) ** 2 for s in classes) - com.dim))
    return classes, {"unitary": (unitary, tol.rank_cutoff), "dimension": (dimension, 0.0)}


@dataclass(frozen=True, eq=False)
class ClassAlgebra:
    """(+)_k M_{n_k} (x) I_{m_k}, carried by the classes of
    ``block_structure``: class k is an (m_k, N, n_k) stack of aligned pieces
    s_1, ..., s_{m_k}, N x n_k with orthonormal columns.

    M's orthonormal basis is, per class, the matrix units e_pq repeated on
    each piece over sqrt(m_k), B = sum_j s_j e_pq s_j* / sqrt(m_k), at
    index offset_k + p n_k + q.  It is orthonormal by construction, given
    orthonormal pieces (eigenvectors of h) aligned by unitary links (the
    ``unitary`` check; ``lat_family`` proves the algebra is M), and is not
    checked again.  It holds dim M matrices of N^2 entries (N^4 for the
    full algebra), so it is formed only on first use
    (``basis_elements``); ``dim``, ``elements`` and ``_residuals`` read the
    classes, in O(N^3) per operator.  Equality is identity: two algebras
    are not compared by their classes.
    """

    ambient_dim: int
    classes: tuple

    @cached_property
    def dim(self) -> int:
        """sum_k n_k^2."""
        return sum(s.shape[2] ** 2 for s in self.classes)

    @cached_property
    def basis_elements(self) -> np.ndarray:
        """M's orthonormal basis as one (dim M, N, N) stack."""
        dim = self.ambient_dim
        units = [
            np.einsum("jap,jbq->pqab", s, s.conj()).reshape(-1, dim, dim) / np.sqrt(len(s))
            for s in self.classes
        ]
        return np.concatenate(units)

    @cached_property
    def _groups(self) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        """The classes grouped by shape (m, n), so that each group is one
        batched product.  Per shape: the indices of its K classes, the
        classes as one (K, m, N, n) stack, and their pieces side by side as
        one N x (K m n) matrix.  The pieces of every group side by side are
        a unitary N x N matrix W, the basis ``block_structure`` adapts."""
        shapes = [s.shape for s in self.classes]
        groups = []
        for shape in dict.fromkeys(shapes):
            members = [k for k, other in enumerate(shapes) if other == shape]
            stack = np.stack([self.classes[k] for k in members])
            side = stack.transpose(2, 0, 1, 3).reshape(self.ambient_dim, -1)
            groups.append((members, stack, side))
        return groups

    def elements(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[:, i] B_i for a (count, dim M) array, B the basis, as
        a (count, N, N) stack, without the basis: per class,
        sum_j s_j R_k s_j* / sqrt(m_k) with R_k[p, q] the coefficient of
        column offset_k + p n_k + q.  Equal to ``coeffs @ basis`` to
        roundoff, not bitwise."""
        offsets = list(accumulate((s.shape[2] ** 2 for s in self.classes), initial=0))
        total = 0
        for members, stack, side in self._groups:
            _, m, _, n = stack.shape
            idx = np.concatenate([np.arange(offsets[k], offsets[k + 1]) for k in members])
            r = coeffs[:, idx].reshape(len(coeffs), len(members), n, n) / np.sqrt(m)
            total = total + _side_by_side(stack, r) @ side.conj().T
        return total

    def _residuals(self, ops: np.ndarray) -> np.ndarray:
        """||X - P_M X||_F / (1 + ||X||_F) for each X of a (count, N, N)
        stack, P_M the orthogonal projection onto M, class by class:
        P_M X = sum_k sum_j s_j C_k s_j* with C_k = (1/m_k) sum_j s_j* X s_j.
        The norm is taken as ||(X - P_M X) W||_F, W unitary (``_groups``),
        whose column block of piece s_j is X s_j - s_j C_k, so P_M X itself
        is not formed."""
        dim = self.ambient_dim
        if ops.shape[1:] != (dim, dim):
            raise DimensionMismatch(f"operators of shape {ops.shape[1:]} in a space on C^{dim}")
        squares = 0.0
        for _, stack, side in self._groups:
            xs = ops @ side
            pieces = xs.reshape(len(ops), dim, *stack.shape[:2], -1).transpose(0, 2, 3, 1, 4)
            c = (stack.conj().swapaxes(-1, -2) @ pieces).mean(axis=2)
            squares = squares + frobenius_norm(xs - _side_by_side(stack, c)) ** 2
        return np.sqrt(squares) / (1.0 + frobenius_norm(ops))


def _side_by_side(stack: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """s_j C_k for every piece s_j of a (K, m, N, n) stack of classes and a
    (count, K, n, n) stack of their C_k, side by side as in ``_groups``:
    a (count, N, K m n) stack."""
    left = stack @ blocks[:, :, None]
    return left.transpose(0, 3, 1, 2, 4).reshape(len(blocks), stack.shape[2], -1)
