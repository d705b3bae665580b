"""Block structure of a *-algebra of operators, read off its commutant.

A von Neumann algebra M on C^N is, in a suitable orthonormal basis,
(+)_k M_{n_k} (x) I_{m_k}, and its commutant M' is (+)_k I_{n_k} (x)
M_{m_k} (see Murota, Kanno, Kojima and Kojima, "A numerical algorithm for
block-diagonal decomposition of matrix *-algebras", Japan J. Indust.
Appl. Math. 27, 2010).  ``_h_components`` diagonalizes one Hermitian
element h of M, a fixed combination of the generators.  When the
eigenvalues of h are separated, M' is spanned by the projections onto
the connected components of a graph on h's eigenvectors, and the pieces
are those components, one class each.  Otherwise the eigenspaces of a
generic Hermitian element of M' are the irreducible pieces
C^{n_k} (x) xi, and ``block_structure`` sorts them into classes of
equivalent pieces, aligned by unitary intertwiners, with two of the
three checks that certify them.  ``reflexivity.lat_family`` takes the
pieces either way, adds the last check and holds the proofs.
``ClassAlgebra`` carries M by its classes, from which its elements, its
projection and its dimension follow without its basis.  No nullspace is
solved here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatch, OperatorSpace, TolerancePolicy, frobenius_norm, operator_norm

__all__ = ["ClassAlgebra", "block_structure", "links"]

# ``_h_components`` weighs the k-th Hermitian part of the generators by
# 1 / (1 + k phi), phi the golden ratio.
_GOLDEN = (1.0 + 5.0**0.5) / 2.0


class _HStructure(NamedTuple):
    """What ``_h_components`` reads off a stack of generators.

    ``w`` holds the eigenvectors of h, in ascending order of eigenvalue
    mu.  ``images`` is the stack W* g_1 W, W* g_1* W, W* g_2 W, ...  The
    rank rule's ``scale`` and ``units`` follow: the units are the (i, j)
    pairs with |mu_i - mu_j| <= rank_cutoff * scale, as two index arrays.
    When every cluster of mu is a singleton, ``components`` lists the
    connected components as index arrays into W's columns, and
    ``margins`` gives their two margins over the cut.  Otherwise both are
    None.
    """

    w: np.ndarray
    images: np.ndarray
    scale: float
    units: tuple[np.ndarray, np.ndarray]
    components: list[np.ndarray] | None
    margins: tuple[float, float] | None


def _h_components(gens: np.ndarray, tol: TolerancePolicy) -> _HStructure:
    """h's eigenbasis and, when h's eigenvalues are separated, the
    connected components that span the commutant, for an (k, N, N) stack
    of generators.

    Every X commuting with the generators and their adjoints commutes
    with the Hermitian parts (g + g*)/2 and (g - g*)/2i of each generator.
    So X commutes with their fixed real combination h.  The weights are
    1 / (1 + k phi), phi the golden ratio.  They are fixed, so the result
    is deterministic, and irrational, so a degenerate h takes a
    coincidence.  The first weight is 1, so h is the generator when there
    is one Hermitian generator.  With h = W diag(mu) W*, scale is the
    larger of the generators' largest norm and mu_max - mu_min, and mu
    clusters where |mu_i - mu_j| <= rank_cutoff * scale, the rank rule of
    ``nullspace_of_constraints``.

    When every cluster is a singleton, X is diagonal in W, and X g = g X
    reads (x_a - x_b) g_ab = 0 for g_ab the entries of W* g W.  The
    components are those of the graph with an edge (a, b) wherever some
    generator or adjoint has |g_ab| above the same cut
    (``_components``).
    """
    dim = gens.shape[-1]
    adjoints = gens.conj().transpose(0, 2, 1)
    pairs = np.stack([gens, adjoints], axis=1).reshape(-1, dim, dim)  # g_1, g_1*, g_2, ...
    parts = np.stack([(gens + adjoints) / 2, (gens - adjoints) / 2j], axis=1).reshape(-1, dim, dim)
    weights = 1.0 / (1.0 + _GOLDEN * np.arange(len(parts)))
    mu, w = np.linalg.eigh(np.tensordot(weights, parts, axes=1))
    scale = max(float(operator_norm(gens).max(initial=0.0)), float(mu[-1] - mu[0]))
    cut = tol.rank_cutoff * scale
    rows, cols = np.nonzero(np.abs(mu[:, None] - mu[None, :]) <= cut)
    images = w.conj().T @ pairs @ w
    if len(rows) > dim:  # a cluster with multiplicity
        return _HStructure(w, images, scale, (rows, cols), None, None)
    strength = np.abs(images).max(axis=0, initial=0.0)
    components, margins = _components(np.maximum(strength, strength.T), cut)
    return _HStructure(w, images, scale, (rows, cols), components, margins)


def _components(strength: np.ndarray, cut: float) -> tuple[list[np.ndarray], tuple[float, float]]:
    """The connected components of the graph with an edge (a, b) wherever
    the symmetric ``strength[a, b]`` is above ``cut``, and the two margins
    of that decision over the cut.

    The components are grown by Prim's algorithm for a maximum spanning
    forest, one dense row per vertex.  The first margin is the forest's
    smallest edge (inf when there is none): every cut below it gives the
    same components.  The second is the largest entry between two
    components (0 when there is one): every cut at or above it gives the
    same components.  Each component is an ascending index array, and
    they are ordered by their first index.
    """
    n = len(strength)
    label, free = np.full(n, -1), np.ones(n, dtype=bool)
    best = np.full(n, -np.inf)  # a free vertex's strongest edge to a labelled one
    count, weakest = 0, math.inf
    for _ in range(n):
        v = int(np.argmax(best))
        if best[v] > cut:
            weakest = min(weakest, float(best[v]))
        else:  # no edge above the cut leaves the component: start the next
            v = int(np.argmax(free))
            count += 1
        label[v], free[v], best[v] = count - 1, False, -np.inf
        np.maximum(best, strength[v], out=best, where=free)
    across = float(strength[label[:, None] != label[None, :]].max(initial=0.0))
    margins = (weakest / cut if weakest < math.inf else math.inf, across / cut if across else 0.0)
    return [np.flatnonzero(label == k) for k in range(count)], margins


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
    """(+)_k M_{n_k} (x) I_{m_k}, carried by its classes: class k is an
    (m_k, N, n_k) stack of aligned pieces s_1, ..., s_{m_k}, N x n_k with
    orthonormal columns, from ``block_structure`` or, one piece per class,
    from the components of ``reflexivity.lat_family``.

    M's orthonormal basis is, per class, the matrix units e_pq repeated on
    each piece over sqrt(m_k), B = sum_j s_j e_pq s_j* / sqrt(m_k), at
    index offset_k + p n_k + q.  It is orthonormal by construction, given
    orthonormal pieces (eigenvectors of a Hermitian h) aligned by unitary
    links (the ``unitary`` check; ``lat_family`` proves the algebra is M),
    and is not checked again.  It holds dim M matrices of N^2 entries (N^4
    for the full algebra), so it is formed only on first use
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
        a unitary N x N matrix W, the eigenbasis of h up to the order of
        its columns."""
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
