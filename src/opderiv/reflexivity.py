"""Invariant-subspace families and the reflexivity verification.

The triangular corner image of a von Neumann algebra is cut out, inside
the algebra of all corner operators, by a finite family of invariant
subspaces: the algebra's own invariant subspaces embedded in the first
block, the nested leading-corner subspaces, and two towers of graph
subspaces (one for the generator, one for the generator shifted by the
identity).  This module builds that family, computes commutants (in the
eigenbasis of one Hermitian element) as nullspace problems and the
algebra of the family by the corner tower below, and verifies that the
corner operators leaving every family member invariant are exactly the
triangular representations, with matching dimension.

The algebra and its invariant subspaces come from the block structure of
the commutant, M = (+)_k M_{n_k} (x) I_{m_k} and M' = (+)_k I_{n_k} (x)
M_{m_k}: ``lat_family`` makes one nullspace solve, for M', reads the
irreducible pieces C^{n_k} (x) xi off the eigenspaces of one generic
Hermitian element of M', and links equivalent pieces by intertwiners.
The family is the pieces and the links, sum_k (2 m_k - 1) members, and
the algebra is built in closed form in the basis adapted to them;
structural checks with recorded margins certify both, with no
bicommutant and no certification solve.  The family carries the
algebra, so the reflexivity check solves nothing for it.  The check
judges the tower's own elements: their corners (the (0, 0) blocks) are
independent and lie in the algebra, and each element is the triangular
representation of its corner.  Since that representation is injective,
this and the dimension count give the whole theorem; the solution is
never orthonormalized in the (N(n+1))^2-wide vec space, and the
representation of the algebra is never tested for membership in it.

All dimension counts are over the complex field.  The corner solve is a
tower over the order, as in the paper's induction: it starts from the
algebra, which is Alg(lat_M) by ``lat_family``'s construction, and adds
one block column per level.  P_j is the graph of a map G from block j,
so X = [[A, Y_top], [0, Y_bot]] leaves it invariant exactly when
Y_top = G Y_bot - A G; with Q_j the graph of G' and K = G - G' of full
column rank, X leaves both invariant exactly when also Y_bot = K+ A K and
A K lies in the range of K.  That is (j - 1) N^2 equations on A, none at
level 1.  Without the Q_j the dimension is dim Alg(lat_M) + n N^2, and
``needed_Q`` takes no solve.

On a family ``invariant_family`` builds, the level below already leaves
P_j and Q_j invariant, so those equations are roundoff.  Each level
first tries a rank-0 certificate: sigma_max(C) <= ||C||_F for the
constraint C, so ||C||_F <= rank_cutoff * scale (the scale the solve is
given) puts every singular value under the solve's rank threshold, and
the level keeps A as the solve's no-cut branch would.  The SVD is taken
only when the certificate fails, as for a family missing a graph member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .blocks import block_structure, certified, class_algebra
from .core import (
    _BATCH_ENTRIES,
    DEFAULT_TOL,
    OperatorSpace,
    SelfAdjointGenerator,
    Subspace,
    TolerancePolicy,
    _integer,
    as_operator,
    frobenius_norm,
    nullspace_of_constraints,
    operator_norm,
)
# corner_exponential and triangular_representation are not called here;
# the benchmark tracer (perfbench/tracing.py) wraps them under this
# module's name.
from .triangular import (
    _exponential_terms,
    corner_exponential,
    corner_exponential_norm,
    triangular_representation,
    triangular_representations,
)

__all__ = [
    "LatGenerationFailed",
    "ReflexivityViolation",
    "VonNeumannAlgebraSpec",
    "commutant",
    "bicommutant",
    "lat_family",
    "graph_subspace",
    "InvariantFamily",
    "invariant_family",
    "invariance_residuals",
    "alg_of_family",
    "ReflexivityReport",
    "reflexivity_check",
]


class LatGenerationFailed(RuntimeError):
    """Could not certify a generating invariant-subspace family."""


class ReflexivityViolation(RuntimeError):
    """The two-sided reflexivity check failed; diagnostics in .report."""

    def __init__(self, report: "ReflexivityReport"):
        super().__init__(
            f"reflexivity check failed for {report.scenario} (n={report.order}): "
            f"dim {report.dim_computed} vs expected {report.dim_expected}, "
            f"reconstruction residual {report.max_reconstruction_residual:.3e}, "
            f"membership bound {report.membership_bound:.3e}, "
            f"tolerance {report.tolerance:.3e}"
        )
        self.report = report


# ``commutant`` weighs the k-th Hermitian part of its generators by
# 1 / (1 + k phi): fixed weights, so its result is deterministic, and
# irrational ones, so a degenerate h (which costs time, not correctness)
# takes a coincidence.
_GOLDEN = (1.0 + 5.0**0.5) / 2.0

# ``lat_family`` replaces a draw that fails certification this many times.
_MAX_REDRAWS = 20


def _block_sizes(pattern) -> tuple[int, ...]:
    """A ``block_diagonal`` pattern as a tuple of block sizes.

    ValueError unless it is a nonempty list or tuple of integers in the
    sense of ``core._integer``: a string is not taken character by
    character, nor is 2.7 truncated.
    """
    if not isinstance(pattern, (list, tuple)) or not pattern:
        raise ValueError(f"block_diagonal requires a list of block sizes, got {pattern!r}")
    return tuple(_integer(k, f"block size in {pattern!r}") for k in pattern)


def _cyclic_shift(n: int) -> np.ndarray:
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[(i + 1) % n, i] = 1.0
    return s


@dataclass(frozen=True)
class VonNeumannAlgebraSpec:
    """A von Neumann algebra on C^N given by kind or by generators.

    Kinds: ``full`` (all matrices), ``diagonal_masa`` (diagonal matrices),
    ``block_diagonal`` (full blocks of the given sizes, multiplicity
    free), ``generated`` (bicommutant of explicit generators).  ``KINDS``
    is the one list of kinds; every field rule is checked on construction.
    """

    KINDS: ClassVar[tuple[str, ...]] = ("full", "diagonal_masa", "block_diagonal", "generated")

    kind: str
    ambient_dim: int
    pattern: tuple | None = None
    generators: tuple | None = None

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.kind == "block_diagonal":
            pattern = _block_sizes(self.pattern)
            if any(k < 1 for k in pattern) or sum(pattern) != self.ambient_dim:
                raise ValueError(f"block sizes {pattern} must be positive and sum to {self.ambient_dim}")
            object.__setattr__(self, "pattern", pattern)
        if self.kind == "generated":
            if not self.generators:
                raise ValueError("generated requires at least one generator")
            gens = tuple(as_operator(g) for g in self.generators)
            for g in gens:
                if g.shape[0] != self.ambient_dim:
                    raise ValueError("generator dimension differs from ambient_dim")
            object.__setattr__(self, "generators", gens)

    def label(self) -> str:
        if self.kind == "block_diagonal":
            return f"block_diagonal{self.pattern}(N={self.ambient_dim})"
        return f"{self.kind}(N={self.ambient_dim})"

    def generating_set(self) -> list[np.ndarray]:
        """A small set of operators whose bicommutant is the algebra."""
        n = self.ambient_dim
        distinct_diag = np.diag(np.arange(n, dtype=complex))
        if self.kind == "full":
            return [distinct_diag, _cyclic_shift(n)]
        if self.kind == "diagonal_masa":
            return [distinct_diag]
        if self.kind == "block_diagonal":
            blocks = [_cyclic_shift(k) for k in self.pattern]
            shift = np.zeros((n, n), dtype=complex)
            offset = 0
            for blk, k in zip(blocks, self.pattern):
                shift[offset : offset + k, offset : offset + k] = blk
                offset += k
            return [distinct_diag, shift]
        return list(self.generators)

    def expected_dim(self) -> int | None:
        """Closed-form complex dimension for the preset kinds."""
        n = self.ambient_dim
        if self.kind == "full":
            return n * n
        if self.kind == "diagonal_masa":
            return n
        if self.kind == "block_diagonal":
            return sum(k * k for k in self.pattern)
        return None


def commutant(spec, dim: int | None = None, tol: TolerancePolicy | None = None) -> OperatorSpace:
    """All operators commuting with the generators (and their adjoints).

    Accepts a VonNeumannAlgebraSpec or an iterable of operators.  Every
    such X commutes with the Hermitian parts (g + g*)/2 and (g - g*)/2i of
    each generator, so with their fixed real combination h (weights
    1 / (1 + k phi), phi the golden ratio; the first is 1, so h is the
    generator when there is one Hermitian generator).  With
    h = W diag(mu) W*, the map X -> X h - h X has singular values
    |mu_i - mu_j| and singular vectors the matrix units W e_ij W*, so one
    ``eigh`` solves it: the commutant lies in the span of the units with
    |mu_i - mu_j| <= rank_cutoff * scale, the rank rule of
    ``nullspace_of_constraints``, where scale is the larger of the
    generators' largest norm and mu_max - mu_min.  The generators'
    commutation constraints, restricted to those units, are then solved by
    one nullspace call with the same scale.  A degenerate h only leaves
    more units free for the constraints to cut back, so the result needs
    no redraw.  The basis is W X W* for the orthonormal null coefficients
    X, orthonormal by construction.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(spec, VonNeumannAlgebraSpec):
        generators = spec.generating_set()
        dim = spec.ambient_dim
    else:
        generators = [as_operator(g) for g in spec]
        if dim is None:
            if not generators:
                raise ValueError("dim is required when no generators are given")
            dim = generators[0].shape[0]
    gens = np.stack(generators) if generators else np.zeros((0, dim, dim), dtype=complex)
    adjoints = gens.conj().transpose(0, 2, 1)
    pairs = np.stack([gens, adjoints], axis=1).reshape(-1, dim, dim)  # g_1, g_1*, g_2, ...
    parts = np.stack([(gens + adjoints) / 2, (gens - adjoints) / 2j], axis=1).reshape(-1, dim, dim)
    weights = 1.0 / (1.0 + _GOLDEN * np.arange(len(parts)))
    mu, w = np.linalg.eigh(np.tensordot(weights, parts, axes=1))
    scale = max(float(operator_norm(gens).max(initial=0.0)), float(mu[-1] - mu[0]))
    rows, cols = np.nonzero(np.abs(mu[:, None] - mu[None, :]) <= tol.rank_cutoff * scale)
    units = np.arange(len(rows))
    constraints = []
    for g in w.conj().T @ pairs @ w:
        image = np.zeros((len(rows), dim, dim), dtype=complex)  # E_ij g - g E_ij per unit
        image[units, rows] = g[cols]
        image[units, :, cols] -= g[:, rows].T
        constraints.append(image.reshape(len(rows), -1).T)
    coeffs = nullspace_of_constraints(constraints, dim, tol, scale=scale)
    elems = np.zeros((coeffs.shape[1], dim, dim), dtype=complex)
    elems[:, rows, cols] = coeffs.T
    return OperatorSpace(dim, w @ elems @ w.conj().T)


def bicommutant(spec, dim: int | None = None, tol: TolerancePolicy | None = None) -> OperatorSpace:
    """The double commutant: the von Neumann algebra itself."""
    tol = tol or DEFAULT_TOL
    first = commutant(spec, dim=dim, tol=tol)
    return commutant(first.basis_elements, dim=first.ambient_dim, tol=tol)


def _hermitian_spanning_set(space: OperatorSpace, tol: TolerancePolicy) -> list[np.ndarray]:
    """Hermitian operators spanning a *-closed operator space over R.

    The real and imaginary part of each basis element, in turn; a part of
    norm at most ``rank_cutoff`` times the largest one is roundoff and is
    dropped.
    """
    b, d = space.basis_elements, space.ambient_dim
    bh = b.conj().transpose(0, 2, 1)
    herms = np.stack([(b + bh) / 2, (b - bh) / 2j], axis=1).reshape(-1, d, d)
    norms = operator_norm(herms)
    return list(herms[norms > tol.rank_cutoff * norms.max(initial=0.0)])


def lat_family(
    spec: VonNeumannAlgebraSpec,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
) -> tuple[list[Subspace], OperatorSpace]:
    """A minimal generating family of invariant subspaces for the algebra,
    and the algebra, from the block structure of its commutant.

    The structure theorem gives M = (+)_k M_{n_k} (x) I_{m_k} and
    M' = (+)_k I_{n_k} (x) M_{m_k}.  The commutant M' is solved (the one
    nullspace solve), and one random Hermitian element h of it is drawn
    from ``_hermitian_spanning_set``.  For a generic h the eigenspaces are
    the irreducible pieces C^{n_k} (x) xi, and ``block_structure`` sorts
    them into classes of equivalent pieces, each linked to its class
    representative by a unitary intertwiner T.  The family is every piece
    plus, per class, the m_k - 1 links {T xi + xi}: sum_k (2 m_k - 1)
    members.  An operator leaving every piece invariant is block diagonal,
    and one leaving the links invariant too has equal blocks on each class,
    so Alg(family) is the algebra, built here in closed form.

    The draw is certified by the structural checks of
    ``block_structure``, and by every generator lying in the algebra
    (``generators``: membership residual at most ``rank_cutoff``).  A
    draw that fails (a non-generic h, whose eigenspaces are not
    irreducible) is replaced by a new one, up to ``_MAX_REDRAWS`` times;
    exhaustion raises LatGenerationFailed with the last draw's failing
    checks.
    """
    tol = tol or DEFAULT_TOL
    dim = spec.ambient_dim
    com = commutant(spec, tol=tol)
    herms = np.stack(_hermitian_spanning_set(com, tol))
    generators = np.stack(spec.generating_set())
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS + 1):
        h = np.tensordot(rng.standard_normal(len(herms)), herms, axes=1)
        classes, checks = block_structure(com, h, tol)
        if classes:
            algebra = class_algebra(classes, dim)
            checks["generators"] = (float(algebra._residuals(generators).max()), tol.rank_cutoff)
            if certified(checks):
                subspaces = []
                for s in classes:
                    subspaces += [Subspace(dim, v) for v in s]
                    subspaces += [Subspace(dim, (s[0] + v) / np.sqrt(2)) for v in s[1:]]
                return subspaces, algebra
    failed = ", ".join(f"{k} {r:.3e} > {b:.3e}" for k, (r, b) in checks.items() if r > b)
    raise LatGenerationFailed(
        f"could not certify the block structure of {spec.label()} "
        f"after {_MAX_REDRAWS} redraws: {failed}"
    )


def graph_subspace(d: SelfAdjointGenerator, n: int, shift: float = 0.0) -> Subspace:
    """Range of the corner exponential applied to the last block.

    The subspace { exp(S)(xi tensor e_n) : xi } of the (n+1)-block space:
    the graph of xi -> sum_j (i(D + shift))^j xi / j! over the earlier
    blocks.  ``shift=1`` gives the companion family used to pin down the
    diagonal in the reflexivity argument.  The spanning columns are the
    last block column of exp(S), the powers (i(D + shift))^k / k! stacked
    for k = n, ..., 0, built in closed form without exp(S).  Their last
    block is the identity, so their smallest singular value is at least 1:
    they have rank N, and one QR orthonormalizes them.  The powers of
    order n start with those of every lower order, so ``invariant_family``
    forms them once per shift and builds each level from its leading
    terms, bitwise this subspace.
    """
    if n < 1:
        raise ValueError("graph subspace requires order n >= 1")
    return _graph_member(_exponential_terms(d, n, shift))


def _graph_member(terms: np.ndarray) -> Subspace:
    """``graph_subspace`` of order len(terms) - 1 from the leading terms of
    ``_exponential_terms``: one QR of the terms stacked in reverse order."""
    cols = terms[::-1].reshape(-1, terms.shape[-1])
    q, _ = np.linalg.qr(cols)
    return Subspace(len(cols), q)


@dataclass(frozen=True)
class InvariantFamily:
    """Labeled family of invariant subspaces in the corner space.

    Labels: ``lat_M[i]`` for embedded algebra-invariant subspaces,
    ``H_j`` for the leading-corner subspaces, ``P_j``/``Q_j`` for the
    unshifted/shifted graph subspaces.  ``algebra`` is the algebra on the
    base space, as ``lat_family`` built it with the ``lat_M`` members: it
    is Alg(lat_M), and the corner solve starts from it.
    """

    subspaces: tuple
    labels: tuple
    base_dim: int
    order: int
    algebra: OperatorSpace

    def __post_init__(self):
        if len(self.subspaces) != len(self.labels):
            raise ValueError("labels and subspaces must align")
        if self.algebra.ambient_dim != self.base_dim:
            raise ValueError("the algebra must act on the base space")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def ambient_dim(self) -> int:
        return self.base_dim * (self.order + 1)


def invariant_family(
    spec: VonNeumannAlgebraSpec,
    d: SelfAdjointGenerator,
    n: int,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
) -> InvariantFamily:
    """The full invariant family: embedded lat members, corners, graphs,
    carrying the algebra that ``lat_family`` built with its members.

    The graph members come from one power sequence per shift (see
    ``graph_subspace``).  The lat and graph members are checked when they
    are built, on the base and on the first j + 1 blocks; their embeddings
    and the H_j, columns of the identity, are orthonormal by construction
    and are not checked again (``Subspace``)."""
    tol = tol or DEFAULT_TOL
    if n < 0:
        raise ValueError("order must be >= 0")
    if spec.ambient_dim != d.dim:
        raise ValueError("algebra and generator dimensions differ")
    base = d.dim
    ambient = base * (n + 1)
    subs: list[Subspace] = []
    labels: list[str] = []
    lat, algebra = lat_family(spec, tol=tol, seed=seed)
    for i, f in enumerate(lat):
        subs.append(f.embedded(ambient, 0))
        labels.append(f"lat_M[{i}]")
    eye = np.eye(ambient, dtype=complex)
    for j in range(n + 1):
        subs.append(Subspace._orthonormal(eye[:, : base * (j + 1)]))
        labels.append(f"H_{j}")
    terms = {kind: _exponential_terms(d, n, shift) for kind, shift in (("P", 0.0), ("Q", 1.0))}
    for j in range(1, n + 1):
        for kind in "PQ":
            subs.append(_graph_member(terms[kind][: j + 1]).embedded(ambient, 0))
            labels.append(f"{kind}_{j}")
    return InvariantFamily(tuple(subs), tuple(labels), base, n, algebra)


def invariance_residuals(
    family: InvariantFamily,
    d: SelfAdjointGenerator,
    elements,
) -> dict[str, float]:
    """Max of ||(I - P) rep(x) P||_F per family member over the given x's.

    Gives residuals, not a verdict: the caller judges them against its
    own tolerance.  The Frobenius norm bounds the operator norm from
    above (``frobenius_norm``), so an operator-norm tolerance keeps its
    meaning and no SVD is taken.
    """
    xs = [as_operator(x) for x in elements]
    xs = np.stack(xs) if xs else np.zeros((0, d.dim, d.dim), dtype=complex)
    reps = triangular_representations(d, xs, family.order)
    eye = np.eye(family.ambient_dim)
    out = {}
    for sub, label in zip(family.subspaces, family.labels):
        p = sub.projection
        out[label] = float(frobenius_norm((eye - p) @ reps @ p).max(initial=0.0))
    return out


def alg_of_family(family: InvariantFamily, tol: TolerancePolicy | None = None) -> OperatorSpace:
    """Operators leaving every member of an invariant family invariant.

    Solved by ``_corner_solve``'s tower, which uses the family's
    structure; the tower is orthonormalized by ``OperatorSpace.span``.
    Anything but an InvariantFamily raises TypeError.
    """
    if not isinstance(family, InvariantFamily):
        raise TypeError(f"alg_of_family takes an InvariantFamily, not {type(family).__name__}")
    tol = tol or DEFAULT_TOL
    return OperatorSpace.span(family.ambient_dim, _corner_solve(family, tol)[0])


def _corner_solve(family: InvariantFamily, tol: TolerancePolicy) -> tuple[np.ndarray, int]:
    """A basis of Alg(family), and its dimension without the Q_j members.

    Solved as a tower over the order, as in the paper's induction.  The
    H_j members make X block upper triangular, and a member that lives in
    the first j blocks is left invariant by X exactly when it is left
    invariant by X's leading j-block corner.  So level j, the operators on
    the first j + 1 blocks leaving the members of levels <= j invariant,
    is the set of X = [[A, Y_top], [0, Y_bot]] with A in level j - 1 that
    leave P_j and Q_j invariant.  Level 0 is the family's ``algebra``,
    which is Alg(lat_M) by ``lat_family``'s construction.

    Each level is closed form by the graph lemma (see the module
    docstring).  G = top bot^-1 is read off a member's block-j rows bot
    and the rows above them, top, by one SVD bot = U Sigma V*: its rank is
    ``matrix_rank``'s with cutoff ``rank_cutoff`` (the singular values
    above it), and G = top V Sigma^-1 U* from the same factors, with no
    second factorization.  One step of iterative refinement in working
    precision, G + (top - G bot) V Sigma^-1 U* (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 12), makes G as accurate as
    an LU solve would: without it, G is up to 50x further from its closed
    form on built families.  With G read off P_j, G' off Q_j and
    K = G - G', the only solve keeps the A with Kc* A K = 0 (Kc an
    orthonormal basis of the complement of range K), and Y_bot = K+ A K,
    Y_top = G Y_bot - A G.
    The solve is skipped where ``_rank_zero`` certifies that constraint
    as roundoff, which it is on every level of a built family.
    A level with one graph member leaves Y_bot free (G' stands in for G
    when only Q_j is there), one with none all of Y.  The result is the
    ``(m, N(n+1), N(n+1))`` stack of the last level, which is not
    orthonormal above level 0.  Without the Q_j a P_j adds N^2
    dimensions, a level without one N^2 (j + 1): that count is returned.

    Raises ValueError when a member has an unknown label or not the shape
    its label claims (a P_j or Q_j must be a graph over block j: dimension N, with
    block-j rows of rank N, their smallest singular value above
    ``rank_cutoff``), a level has two P_j or two Q_j, K has rank
    below N (relative cutoff ``rank_cutoff``), or an H_j that makes X
    block upper triangular is missing.
    """
    base, n = family.base_dim, family.order
    levels = {j: {} for j in range(1, n + 1)}  # level j: the graph maps G of its P_j and Q_j
    leading = set()
    for sub, label in zip(family.subspaces, family.labels):
        if label.startswith("H_"):
            if sub.dim % base or frobenius_norm(sub.basis[sub.dim :]) > tol.alg():
                raise ValueError(f"{label} is not spanned by leading blocks of basis vectors")
            leading.add(sub.dim // base)
        elif label.startswith("lat_M"):
            if frobenius_norm(sub.basis[base:]) > tol.alg():
                raise ValueError(f"{label} is not supported in the first block")
        elif label[:2] in ("P_", "Q_"):
            j = int(label[2:])
            if j not in levels:
                raise ValueError(f"{label} has no level in a family of order {n}")
            if frobenius_norm(sub.basis[base * (j + 1) :]) > tol.alg():
                raise ValueError(f"{label} is not supported in the first {j + 1} blocks")
            if sub.dim != base:
                raise ValueError(f"{label} is not a graph over block {j}")
            top, bot = sub.basis[: base * j], sub.basis[base * j : base * (j + 1)]
            u, s, vh = np.linalg.svd(bot)
            if s[-1] <= tol.rank_cutoff:  # rank below N, by matrix_rank's rule
                raise ValueError(f"{label} is not a graph over block {j}")
            if label[0] in levels[j]:
                raise ValueError(f"level {j} has two {label} members")
            inv = (vh.conj().T / s) @ u.conj().T  # bot^-1
            g = top @ inv
            levels[j][label[0]] = g + (top - g @ bot) @ inv  # G = top bot^-1, refined once
        else:
            raise ValueError(f"{label} is not a label of an invariant family")
    for j in range(n):
        if j + 1 not in leading:
            raise ValueError(f"the corner solve needs H_{j}, the span of the first {j + 1} blocks")

    elems, without_q_dim = family.algebra.basis_elements, family.algebra.dim
    for j in range(1, n + 1):
        graphs = [levels[j][kind] for kind in "PQ" if kind in levels[j]]
        elems = _corner_level(elems, graphs, base, tol)
        without_q_dim += base**2 * (1 if "P" in levels[j] else j + 1)
    return elems, without_q_dim


def _corner_level(
    prev: np.ndarray, graphs: list[np.ndarray], base: int, tol: TolerancePolicy
) -> np.ndarray:
    """Level j of ``_corner_solve`` from level j - 1: the stack ``prev`` of
    operators on the first j blocks and the graph maps of the level's P_j
    and Q_j, in that order (G' alone when only Q_j is there).  Its own
    function, so that its temporaries are freed before the next level.
    The stack's products with K and G are each one (m lead, lead) GEMM."""
    lead = prev.shape[1]
    j, size = lead // base, lead + base
    a = prev
    g = graphs[0] if graphs else np.zeros((lead, base))  # G, or G' with only Q_j
    if len(graphs) == 2:
        k = graphs[0] - graphs[1]
        u, s, vh = np.linalg.svd(k)
        if s[-1] <= tol.rank_cutoff * s[0]:
            raise ValueError(f"K = G - G' of P_{j} and Q_{j} has rank below {base}")
        uak = u.conj().T @ _times(a, k)  # rows: range K, then its complement Kc
        if j > 1:
            constraint = uak[:, base:].reshape(len(a), -1).T
            # ||K|| ||stack||_F bounds its norm: a constraint that is roundoff has rank 0
            scale = s[0] * frobenius_norm(a.reshape(-1, lead))
            if not _rank_zero(constraint, scale, tol):
                c = nullspace_of_constraints([constraint], lead, tol, scale=scale)
                if c.shape[1] < len(a):  # a cut; without one c only rotates the span
                    a, uak = np.tensordot(c.T, a, axes=1), np.tensordot(c.T, uak, axes=1)
        y_bot = (vh.conj().T / s) @ uak[:, :base]  # K+ A K
    else:  # Y_bot free
        units = np.eye(base**2).reshape(-1, base, base)
        a = np.concatenate([a, np.zeros((base**2, lead, lead))])
        y_bot = np.concatenate([np.zeros((len(prev), base, base)), units])
    elems = np.zeros((len(a), size, size), dtype=complex)
    elems[:, :lead, :lead] = a
    elems[:, lead:, lead:] = y_bot
    elems[:, :lead, lead:] = g @ y_bot - _times(a, g)
    if not graphs:  # Y_top free too
        free_top = np.zeros((lead * base, size, size), dtype=complex)
        free_top[:, :lead, lead:] = np.eye(lead * base).reshape(-1, lead, base)
        elems = np.concatenate([elems, free_top])
    return elems


def _times(stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``stack @ right`` for an (m, p, q) stack and a (q, r) matrix, as one
    (m p, q) GEMM in place of m small ones."""
    m, p, q = stack.shape
    return (stack.reshape(m * p, q) @ right).reshape(m, p, right.shape[1])


def _rank_zero(constraint: np.ndarray, scale: float, tol: TolerancePolicy) -> bool:
    """Whether ``nullspace_of_constraints([constraint], ..., scale=scale)``
    is certain to find rank 0, decided without its SVD.

    The solver counts the singular values above rank_cutoff * max(s_max,
    scale), and s_max <= ||C||_F, so ||C||_F <= rank_cutoff * scale leaves
    none above it.  Its solution is then the whole coordinate space, which
    the corner level would leave as it is.
    """
    return frobenius_norm(constraint) <= tol.rank_cutoff * scale


@dataclass
class ReflexivityReport:
    """Two-sided reflexivity diagnostics for one scenario.

    ``element_residuals`` are the Frobenius reconstruction residuals
    ||X - Phi(X_00)||_F of the solved elements, and ``membership_bound``
    bounds the Frobenius distance of Phi(a) from the solution for every
    unit a in the algebra (see ``reflexivity_check``).  ``tolerance`` is
    the bound both were judged against, tol_alg * (1 + ||exp S|| ||exp -S||),
    with exp(+-S) the corner exponentials.
    """

    scenario: str
    order: int
    dim_expected: int
    dim_computed: int
    max_reconstruction_residual: float
    membership_bound: float
    needed_Q: bool
    passed: bool
    tolerance: float
    element_residuals: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.order,
            "dim_expected": self.dim_expected,
            "dim_computed": self.dim_computed,
            "max_residual": float(max(self.max_reconstruction_residual, self.membership_bound)),
            "needed_Q": bool(self.needed_Q),
            "pass": bool(self.passed),
        }


def reflexivity_check(
    spec: VonNeumannAlgebraSpec,
    d: SelfAdjointGenerator,
    n: int,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
    raise_on_fail: bool = True,
    family: InvariantFamily | None = None,
) -> ReflexivityReport:
    """Verify the corner algebra cut out by the invariant family.

    Computes V = {X leaving every family member invariant} as the stack
    X_1, ..., X_m of ``_corner_solve``'s tower: level 0 is the algebra M,
    which is Alg(lat_M) by ``lat_family``'s construction, and level j adds
    the last block column, fixed by P_j and Q_j.  With C_k the corner
    (0, 0) block of X_k and Phi the triangular representation, it asserts:

    1. m equals dim M and its closed form ``spec.expected_dim()`` (a
       ``generated`` algebra has none);
    2. rho = max_k ||X_k - Phi(C_k)||_F is within the tolerance, so V is
       Phi of the span of the corners;
    3. the bound below, which also carries the corners' distances
       mu_k = ||C_k - P_M C_k||_F from M and is infinite unless the
       corners are independent, is within the tolerance.

    Phi is injective (Phi(a)_00 = a), so with m = dim M these give
    V = Phi(M).  Numerically, for a in M: the corner Gram matrix
    G = conj(C) C^T of the (m, N^2) corner stack C has smallest
    eigenvalue sigma_min(C)^2, and by Weyl's inequality for Hermitian
    matrices (Golub & Van Loan, *Matrix Computations*, sec. 8.1.2)
    lambda_min(G) >= min_k G_kk - ||G - diag G||_2, so
    sigma^2 = max(min_k G_kk - ||G - diag G||_F, 0) bounds it from below
    and sigma_min(C) >= sigma.  A dependent stack gives sigma = 0 and an
    infinite bound.  A unit u = sum_k c_k C_k then has
    ||c||_2 <= 1 / sigma and distance at most ||mu||_2 / sigma from M.
    The span of the C_k and M both have dimension m, so that is also the
    largest sine of their principal angles the other way: a = P a + r,
    with P the projection onto the span of the corners, P a = sum_k c_k C_k,
    ||c||_2 <= ||a|| / sigma and ||r|| <= ||a|| ||mu||_2 / sigma.  Then
    Phi(a) = sum_k c_k X_k - sum_k c_k (X_k - Phi(C_k)) + Phi(r), and
    Phi(r) = exp(S) (I (x) r) exp(-S), so

        dist(Phi(a), V) <= ||a|| (sqrt(m) rho
                                  + sqrt(n + 1) ||exp S||^2 ||mu||_2) / sigma,

    all norms Frobenius.  That bound for ||a|| = 1 is ``membership_bound``;
    no algebra element is projected onto V.  The Frobenius residual is at
    least the operator norm of X_k - Phi(C_k), and the bound at least the
    relative residual ||Phi(a) - P_V Phi(a)|| / (1 + ||Phi(a)||) of such a
    projection, so judging them is no looser than judging those.

    needed_Q (dropping the Q_j strictly enlarges the solution) compares m
    with the graph lemma's count dim Alg(lat_M) + n N^2 (see the module
    docstring).  For n = 0 this degenerates to the bicommutant identity
    Alg(lat_family) = algebra.

    The algebra is the one the family carries (built and certified by
    ``lat_family``); there is no bicommutant solve.  ``family`` is a
    prebuilt ``invariant_family(spec, d, n, tol=tol, seed=seed)`` to
    reuse; without it the family is built here.  A family of another base
    dimension or order raises ValueError.

    Raises ReflexivityViolation (report attached) when any assertion
    fails, unless ``raise_on_fail`` is False.
    """
    tol = tol or DEFAULT_TOL
    if spec.ambient_dim != d.dim:
        raise ValueError("algebra and generator dimensions differ")
    if family is None:
        family = invariant_family(spec, d, n, tol=tol, seed=seed)
    elif (family.base_dim, family.order) != (d.dim, n):
        raise ValueError(
            f"family has base dimension {family.base_dim} and order {family.order}, "
            f"expected {d.dim} and {n}"
        )
    algebra = family.algebra
    elems, without_q_dim = _corner_solve(family, tol)
    m, corners = len(elems), np.ascontiguousarray(elems[:, : d.dim, : d.dim])  # copied once
    exp_norm = corner_exponential_norm(d, n)
    scale_tol = tol.alg(exp_norm, exp_norm)

    mu = algebra._residuals(corners) * (1.0 + frobenius_norm(corners))
    recon, step = np.zeros(m), max(1, _BATCH_ENTRIES // elems.shape[1] ** 2)
    for k in range(0, m, step):  # ||X - Phi(X_00)||_F, a batch of elements at a time
        diff = triangular_representations(d, corners[k : k + step], n) - elems[k : k + step]
        recon[k : k + step] = frobenius_norm(diff)
    max_recon = float(recon.max(initial=0.0))
    flat = corners.reshape(m, d.dim**2)
    gram = flat.conj() @ flat.T  # the corner Gram G
    diag = gram.diagonal().real.copy()
    np.fill_diagonal(gram, 0.0)  # G - diag G
    sigma = np.sqrt(max(diag.min(initial=np.inf) - frobenius_norm(gram), 0.0))  # Weyl
    spread = np.sqrt(m) * max_recon + np.sqrt(n + 1) * exp_norm**2 * np.linalg.norm(mu)
    bound = float(spread / sigma) if sigma else np.inf

    dim_expected = spec.expected_dim() or algebra.dim
    passed = bool(m == dim_expected == algebra.dim and max(max_recon, bound) <= scale_tol)
    report = ReflexivityReport(
        scenario=spec.label(),
        order=n,
        dim_expected=dim_expected,
        dim_computed=m,
        max_reconstruction_residual=max_recon,
        membership_bound=bound,
        needed_Q=without_q_dim > m,
        passed=passed,
        tolerance=scale_tol,
        element_residuals=recon.tolist(),
    )
    if not passed and raise_on_fail:
        raise ReflexivityViolation(report)
    return report
