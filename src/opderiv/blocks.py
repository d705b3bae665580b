"""Block structure of a *-algebra of operators, read off its commutant.

A von Neumann algebra M on C^N is, in a suitable orthonormal basis,
(+)_k M_{n_k} (x) I_{m_k}, and its commutant M' is (+)_k I_{n_k} (x)
M_{m_k} (see Murota, Kanno, Kojima and Kojima, "A numerical algorithm for
block-diagonal decomposition of matrix *-algebras", Japan J. Indust.
Appl. Math. 27, 2010).  The eigenspaces of a generic Hermitian element h
of M' are the irreducible pieces C^{n_k} (x) xi.  ``block_structure``
sorts them into classes of equivalent pieces, aligned by unitary
intertwiners, and certifies the result by structural checks, each a
residual with its tolerance; ``class_algebra`` writes M down in the
aligned basis.  No nullspace is solved here.
"""

from __future__ import annotations

import numpy as np

from .core import OperatorSpace, TolerancePolicy, frobenius_norm

__all__ = ["block_structure", "certified", "class_algebra", "links"]


def _off_scalar(stack: np.ndarray) -> float:
    """Largest Frobenius distance from C I over a stack of square blocks."""
    n = stack.shape[-1]
    scalar = np.trace(stack, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    return float(frobenius_norm(stack - scalar).max(initial=0.0))


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
    reveals, and the structural checks that certify them.

    The pieces are the eigenspaces of h, clustered where consecutive
    eigenvalues differ by at most ``tol.eig(||h||)``.  Class k is an
    (m_k, N, n_k) stack: the bases of its m_k equivalent pieces, aligned
    by the link intertwiners so that the commutant acts on the class as
    M_{m_k} (x) I_{n_k}.  ``checks`` maps each check to (residual,
    tolerance), and the classes are certified iff every residual is at
    most its tolerance.  The residuals are Frobenius norms of unit-scale
    data (an orthonormal commutant basis, orthonormal pieces, unitary T),
    so each is a decision between zero and order one and is judged
    against ``rank_cutoff``, like a rank decision:

    - ``cluster_spread``, ``cluster_gap``: the largest eigenvalue spread
      inside a piece and the cut; the cut and the smallest gap between
      pieces (both hold by construction; they record the margins);
    - ``irreducible``: the commutant compresses to C I on every piece;
    - ``unitary``: every link's T is unitary;
    - ``commutant_form``: in the aligned basis every commutant basis
      element is of the form (+)_k M_{m_k} (x) I_{n_k};
    - ``dimension``: sum m_k^2 is the commutant's dimension.

    A draw that fails any check returns no classes.
    """
    dim = com.ambient_dim
    evals, u = np.linalg.eigh(h)
    steps = np.diff(evals)
    cut = tol.eig(float(np.abs(evals).max()))
    bounds = [0, *(np.flatnonzero(steps > cut) + 1).tolist(), dim]
    checks = {
        "cluster_spread": (float(steps[steps <= cut].max(initial=0.0)), cut),
        "cluster_gap": (cut, float(steps[steps > cut].min(initial=np.inf))),
    }
    compressed = u.conj().T @ com.basis_elements @ u
    pieces = [u[:, a:b] for a, b in zip(bounds, bounds[1:])]
    checks["irreducible"] = (
        max(_off_scalar(compressed[:, a:b, a:b]) for a, b in zip(bounds, bounds[1:])),
        tol.rank_cutoff,
    )
    pairs = links(compressed, bounds, tol)
    grams = [g for _, _, t in pairs for g in (t @ t.conj().T, t.conj().T @ t)]
    checks["unitary"] = (
        max((frobenius_norm(g - np.eye(len(g))) for g in grams), default=0.0),
        tol.rank_cutoff,
    )
    linked = {b: (r, t) for r, b, t in pairs}
    classes = [
        np.stack([v] + [pieces[b] @ t.conj().T for b, (rep, t) in linked.items() if rep == r])
        for r, v in enumerate(pieces)
        if r not in linked
    ]
    w = np.concatenate([s.transpose(1, 0, 2).reshape(dim, -1) for s in classes], axis=1)
    adapted = w.conj().T @ com.basis_elements @ w
    form = np.zeros_like(adapted)
    offset = 0
    for s in classes:
        m, _, n = s.shape
        block = slice(offset, offset + m * n)
        coeffs = np.trace(adapted[:, block, block].reshape(-1, m, n, m, n), axis1=2, axis2=4) / n
        kron = coeffs[:, :, None, :, None] * np.eye(n)[:, None, :]  # coeffs (x) I_n, per element
        form[:, block, block] = kron.reshape(-1, m * n, m * n)
        offset += m * n
    checks["commutant_form"] = (
        float(frobenius_norm(adapted - form).max(initial=0.0)),
        tol.rank_cutoff,
    )
    checks["dimension"] = (float(abs(sum(len(s) ** 2 for s in classes) - com.dim)), 0.0)
    return (classes if certified(checks) else []), checks


def certified(checks: dict[str, tuple[float, float]]) -> bool:
    """Whether every check's residual is at most its tolerance."""
    return all(residual <= bound for residual, bound in checks.values())


def class_algebra(classes: list[np.ndarray], dim: int) -> OperatorSpace:
    """(+)_k M_{n_k} (x) I_{m_k} in the aligned basis of the classes: per
    class, the matrix units e_pq repeated on each piece, over sqrt(m_k).

    The basis is orthonormal by construction, given orthonormal pieces
    (eigenvectors of h) aligned by unitary links, and is not checked again:
    ``block_structure``'s ``unitary`` and ``commutant_form`` checks
    certify the pieces it is built from (``OperatorSpace._orthonormal``)."""
    units = [
        np.einsum("jap,jbq->pqab", s, s.conj()).reshape(-1, dim, dim) / np.sqrt(len(s))
        for s in classes
    ]
    return OperatorSpace._orthonormal(np.concatenate(units))
