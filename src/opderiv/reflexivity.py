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
the algebra is carried by its classes of pieces (``blocks.ClassAlgebra``),
which give its elements, its projection and its dimension in O(N^3)
without its dim M x N^2 basis;
structural checks with recorded margins certify both, with no
bicommutant and no certification solve.  The family carries the
algebra, so the reflexivity check solves nothing for it.

On a certified family the corner tower is a linear map L on the algebra
M, and the corner (the (0, 0) block) of L(a) is a, so L is injective and
its range is the solution.  The theorem then says L = Phi, the
triangular representation, and the check judges one number, the
Hilbert-Schmidt norm ||L - Phi||_HS.  With dim M at most ``_PROBES`` it
pushes M's orthonormal basis through the tower and the sum over the
basis is that norm exactly; otherwise it pushes ``_PROBES`` complex
Gaussian elements of M, formed from the classes, and estimates the norm
from them (randomized trace estimation: Avron and Toledo, J. ACM 58,
2011; Roosta-Khorasani and Ascher, Found. Comput. Math. 15, 2015), with
a proved failure bound (see ``reflexivity_check``).  So the check holds
a stack of at most ``_PROBES`` elements, never the whole
(dim M, N(n+1), N(n+1)) tower, and forms M's basis only when it is that
small; the solution is never orthonormalized in the (N(n+1))^2-wide vec
space.

All dimension counts are over the complex field.  The corner solve is a
tower over the order, as in the paper's induction: it starts from the
algebra, which is Alg(lat_M) by ``lat_family``'s construction, and adds
one block column per level.  P_j is the graph of a map G from block j,
G = [T_j; ...; T_1] with T_k = (iD)^k / k!, and the family carries it by
G (``GraphSubspace``), so the tower reads G with no factorization; a
member's orthonormal basis is formed, and checked, only when
``invariance_residuals`` reads it.  X = [[A, Y_top], [0, Y_bot]] leaves
P_j invariant exactly when Y_top = G Y_bot - A G; with Q_j the graph of
G', built from i(D + 1) in the same way, and K = G - G' of full
column rank, X leaves both invariant exactly when also Y_bot = K+ A K and
A K lies in the range of K.  That is (j - 1) N^2 equations on A, none at
level 1.  Without the Q_j the dimension is dim Alg(lat_M) + n N^2, and
``needed_Q`` takes no solve.

The corner solve takes complete families only: H_0, ..., H_{n-1}, and
one P_j and one Q_j at every level.  On a family ``invariant_family``
builds, the level below already leaves P_j and Q_j invariant, so those
equations are roundoff and each level keeps A unchanged.  A rank-0
certificate decides that without an SVD: sigma_max(C) <= ||C||_F for the
constraint C, so ||C||_F <= rank_cutoff * scale puts every singular value
under the rank threshold of ``nullspace_of_constraints``.  The tower
reports the largest ratio ||C||_F / (rank_cutoff * scale) over its
levels, and a ratio above 1 fails the check: the tower is not solved.
The certificate is judged on the stack the tower maps, so it is exact on
M's basis and estimated, like the verdict, on the Gaussian elements.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .blocks import ClassAlgebra, block_structure, certified
from .core import (
    DEFAULT_TOL,
    GraphSubspace,
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
            f"tolerance {report.tolerance:.3e}, "
            f"certificate ratio {report.certificate_ratio:.3e}"
        )
        self.report = report


# ``commutant`` weighs the k-th Hermitian part of its generators by
# 1 / (1 + k phi): fixed weights, so its result is deterministic, and
# irrational ones, so a degenerate h (which costs time, not correctness)
# takes a coincidence.
_GOLDEN = (1.0 + 5.0**0.5) / 2.0

# ``lat_family`` replaces a draw that fails certification this many times.
_MAX_REDRAWS = 20

# ``reflexivity_check`` judges the corner tower on M's basis when dim M is
# at most _PROBES, and otherwise on _PROBES Gaussian elements of M, whose
# mean squared residual it divides by _DELTA (see its docstring).
_PROBES = 16
_DELTA = 0.01

# The labels of an invariant family, matched whole: j and i are canonical
# integers (no sign, no leading zero), and the graph levels start at 1.
_LABEL = re.compile(r"lat_M\[(?:0|[1-9][0-9]*)\]|H_(?:0|[1-9][0-9]*)|[PQ]_([1-9][0-9]*)")


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
    Frobenius norm at most ``rank_cutoff`` times the largest one is
    roundoff and is dropped.  The Frobenius norm is a sum of squares, with
    no eigensolver, and is within a factor sqrt(N) of the operator norm
    (``frobenius_norm``), so the two norms drop different parts only when
    a part lies within that factor of the cutoff.  The parts H, K of a
    basis element b = H + iK have ||H||_F^2 + ||K||_F^2 = ||b||_F^2 = 1
    (tr(HK) is real), so the largest part has norm between 1/sqrt(2) and 1.
    """
    b, d = space.basis_elements, space.ambient_dim
    bh = b.conj().transpose(0, 2, 1)
    herms = np.stack([(b + bh) / 2, (b - bh) / 2j], axis=1).reshape(-1, d, d)
    norms = frobenius_norm(herms)
    return list(herms[norms > tol.rank_cutoff * norms.max(initial=0.0)])


def lat_family(
    spec: VonNeumannAlgebraSpec,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
) -> tuple[list[Subspace], ClassAlgebra]:
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
    so Alg(family) is the algebra, returned as its classes
    (``ClassAlgebra``).

    The draw is certified by the structural checks of
    ``block_structure``, and by every generator lying in the algebra
    (``generators``: membership residual at most ``rank_cutoff``, from the
    class projection ``ClassAlgebra._residuals``).  A
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
            algebra = ClassAlgebra(dim, tuple(classes))
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


def graph_subspace(d: SelfAdjointGenerator, n: int, shift: float = 0.0) -> GraphSubspace:
    """Range of the corner exponential applied to the last block.

    The subspace { exp(S)(xi tensor e_n) : xi } of the (n+1)-block space:
    the graph of xi -> sum_j (i(D + shift))^j xi / j! over the earlier
    blocks.  ``shift=1`` gives the companion family used to pin down the
    diagonal in the reflexivity argument.  The spanning columns are the
    last block column of exp(S), the powers (i(D + shift))^k / k! stacked
    for k = n, ..., 0, built in closed form without exp(S); the last is
    the identity, so the subspace is the graph of G, the powers k = n..1
    stacked, and is carried by G (``GraphSubspace``), with no
    factorization.  Its orthonormal basis is one QR of [G; I], formed and
    checked on first use.  The powers of order n start with those of every
    lower order, so ``invariant_family`` forms them once per shift and
    builds each level from its leading terms, bitwise this subspace.
    """
    if n < 1:
        raise ValueError("graph subspace requires order n >= 1")
    return _graph_member(_exponential_terms(d, n, shift), d.dim * (n + 1))


def _graph_member(terms: np.ndarray, ambient_dim: int) -> GraphSubspace:
    """``graph_subspace`` of order len(terms) - 1, in C^ambient_dim, from the
    leading terms of ``_exponential_terms``: the graph of the terms of order
    >= 1 stacked in reverse order, over the term of order 0, the identity."""
    return GraphSubspace(ambient_dim, terms[:0:-1].reshape(-1, terms.shape[-1]))


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
    algebra: ClassAlgebra

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
    ``graph_subspace``) and are carried by their graph maps: their bases
    are formed, and checked, on first use (``invariance_residuals`` reads
    them, the corner solve does not).  The lat members are checked when
    they are built, on the base; their embeddings and the H_j, columns of
    the identity, are orthonormal by construction and are not checked
    again (``Subspace``)."""
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
            subs.append(_graph_member(terms[kind][: j + 1], ambient))
            labels.append(f"{kind}_{j}")
    return InvariantFamily(tuple(subs), tuple(labels), base, n, algebra)


def invariance_residuals(
    family: InvariantFamily,
    d: SelfAdjointGenerator,
    elements,
) -> dict[str, float]:
    """Max over the given x's of each family member's leak ||(I - P) X P||_F,
    X = rep(x) and P the member's projection.

    The leak is taken as ||X B - B (B* X B)||_F for the member's
    orthonormal basis B: P = B B*, and ||A B||_F = ||A P||_F for every A,
    so the two are equal, and this form costs O(d^2 k) per element for a
    k-dimensional member of C^d and forms no d x d projection.  Only the
    leading r rows of B can be nonzero, r one past its last nonzero row
    (an ``embedded`` basis is exact zeros below its blocks), so X B is one
    stacked product X[:, :r] B[:r] over the elements and B* X B reads
    only the first r rows of it.  X is not assumed block triangular: every
    row of X B enters the leak.  A basis whose nonzero rows are exactly
    I_r (an H_j) spans the first r coordinates, and its leak is exactly
    ||X[r:, :r]||_F, read off X with no product (0 for H_n).

    Gives residuals, not a verdict: the caller judges them against its
    own tolerance.  The Frobenius norm bounds the operator norm from
    above (``frobenius_norm``), so an operator-norm tolerance keeps its
    meaning and no SVD is taken.
    """
    xs = [as_operator(x) for x in elements]
    xs = np.stack(xs) if xs else np.zeros((0, d.dim, d.dim), dtype=complex)
    reps = triangular_representations(d, xs, family.order)
    out = {}
    for sub, label in zip(family.subspaces, family.labels):
        nonzero = np.flatnonzero(sub.basis.any(axis=1))
        b = sub.basis[: nonzero[-1] + 1 if len(nonzero) else 0]
        r = len(b)
        if b.shape == (r, r) and np.count_nonzero(b) == r and (b.diagonal() == 1).all():
            leak = reps[:, r:, :r]  # B = [I_r; 0], an H_j: the leak is X[r:, :r]
        else:
            leak = reps[:, :, :r] @ b
            leak[:, :r] -= b @ (b.conj().T @ leak[:, :r])
        out[label] = float(frobenius_norm(leak).max(initial=0.0))
    return out


def alg_of_family(family: InvariantFamily, tol: TolerancePolicy | None = None) -> OperatorSpace:
    """Operators leaving every member of an invariant family invariant.

    Solved by ``_corner_solve``'s tower, which uses the family's
    structure; the tower is orthonormalized by ``OperatorSpace.span``.
    Anything but an InvariantFamily raises TypeError; a family whose
    tower is not certified (certificate ratio above 1) raises ValueError.
    """
    if not isinstance(family, InvariantFamily):
        raise TypeError(f"alg_of_family takes an InvariantFamily, not {type(family).__name__}")
    tol = tol or DEFAULT_TOL
    elems, ratio = _corner_solve(family, tol)
    if not ratio <= 1:
        raise ValueError(f"the corner tower is not certified: certificate ratio {ratio:.3e} > 1")
    return OperatorSpace.span(family.ambient_dim, elems)


def _corner_solve(
    family: InvariantFamily, tol: TolerancePolicy, start: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """The corner tower's map L applied to a stack of elements of the
    family's algebra (its basis by default), and the tower's certificate
    ratio on that stack.

    Solved as a tower over the order, as in the paper's induction.  The
    H_j members make X block upper triangular, and a member that lives in
    the first j blocks is left invariant by X exactly when it is left
    invariant by X's leading j-block corner.  So level j, the operators on
    the first j + 1 blocks leaving the members of levels <= j invariant,
    is the set of X = [[A, Y_top], [0, Y_bot]] with A in level j - 1 that
    leave P_j and Q_j invariant.  Level 0 is the family's ``algebra``,
    which is Alg(lat_M) by ``lat_family``'s construction.

    Each level is closed form by the graph lemma (see the module
    docstring), with the graph maps the P_j and Q_j members carry
    (``GraphSubspace.graph``): no member's basis is formed or factored.
    With G the map of P_j, G' that of Q_j and K = G - G', level j keeps A
    and sets Y_bot = K+ A K and Y_top = G Y_bot - A G, a linear map of A.
    The tower, their composition, is the linear map L from the algebra M
    to the operators on the whole corner space, and L(a) has corner a.  L(M) is
    Alg(family) when the constraint Kc* A K = 0 (Kc an orthonormal basis
    of the complement of range K) cuts nothing, which the rank-0
    certificate of each level decides: the ratio returned is the largest
    ||Kc* A K||_F / (rank_cutoff * scale) over the levels, with the norm
    taken over the whole stack and scale = ||K||_2 ||stack||_F bounding
    it.  On M's basis, where these norms are Hilbert-Schmidt norms of maps
    on M, it is about 1e-7 or less on every family ``invariant_family``
    builds, and L(M) is Alg(family) when it is at most 1.

    ``start`` is a ``(k, N, N)`` stack of elements of M, by default M's
    basis (as ``alg_of_family`` uses it); ``reflexivity_check`` passes
    Gaussian elements of M when dim M is large.  The result is the
    ``(k, N(n+1), N(n+1))`` stack L(start), which is not orthonormal above
    level 0; its corners are bitwise ``start``.  Memory and time are
    linear in k.

    Raises ValueError when a member's label is not ``lat_M[i]``, ``H_j``,
    ``P_j`` or ``Q_j`` (i, j canonical integers, j >= 1 for P_j and Q_j)
    or not the shape it claims (a P_j or Q_j must carry a graph map over
    block j, of shape (jN, N): a member given only by a basis is no graph
    member), a level has two P_j or two Q_j, K has rank below N (relative
    cutoff ``rank_cutoff``), or a member of a complete
    family is missing: H_0, ..., H_{n-1}, which make X block upper
    triangular, and P_j and Q_j at every level j = 1, ..., n.
    """
    base, n = family.base_dim, family.order
    graphs = {}  # label P_j or Q_j -> its graph map G
    leading = set()
    for sub, label in zip(family.subspaces, family.labels):
        match = _LABEL.fullmatch(label) if isinstance(label, str) else None
        if match is None:
            raise ValueError(f"{label} is not a label of an invariant family")
        if label.startswith("H_"):
            if sub.dim % base or frobenius_norm(sub.basis[sub.dim :]) > tol.alg():
                raise ValueError(f"{label} is not spanned by leading blocks of basis vectors")
            leading.add(sub.dim // base)
        elif label.startswith("lat_M"):
            if frobenius_norm(sub.basis[base:]) > tol.alg():
                raise ValueError(f"{label} is not supported in the first block")
        else:
            j = int(match[1])
            if j > n:
                raise ValueError(f"{label} has no level in a family of order {n}")
            if sub.graph is None or sub.graph.shape != (base * j, base):
                raise ValueError(f"{label} is not a graph over block {j}")
            if label in graphs:
                raise ValueError(f"level {j} has two {label} members")
            graphs[label] = sub.graph
    for j in range(n):
        if j + 1 not in leading:
            raise ValueError(f"the corner solve needs H_{j}, the span of the first {j + 1} blocks")
    for label in (f"{kind}_{j}" for j in range(1, n + 1) for kind in "PQ"):
        if label not in graphs:
            raise ValueError(f"the corner solve needs {label}, a graph over block {label[2:]}")

    elems, ratio = family.algebra.basis_elements if start is None else start, 0.0
    for j in range(1, n + 1):
        elems, level_ratio = _corner_level(elems, graphs[f"P_{j}"], graphs[f"Q_{j}"], base, tol)
        ratio = max(ratio, level_ratio)
    return elems, ratio


def _corner_level(
    prev: np.ndarray, g: np.ndarray, g_shifted: np.ndarray, base: int, tol: TolerancePolicy
) -> tuple[np.ndarray, float]:
    """Level j of ``_corner_solve`` from level j - 1: the stack ``prev`` of
    operators on the first j blocks and the graph maps G of P_j and G' of
    Q_j, and the level's certificate ratio (0 at level 1, which has no
    constraint).  Its own function, so that its temporaries are freed
    before the next level.  The stack's products with K and G are each
    one (m lead, lead) GEMM."""
    lead = prev.shape[1]
    j, size = lead // base, lead + base
    k = g - g_shifted
    u, s, vh = np.linalg.svd(k)
    if s[-1] <= tol.rank_cutoff * s[0]:
        raise ValueError(f"K = G - G' of P_{j} and Q_{j} has rank below {base}")
    uak = u.conj().T @ _times(prev, k)  # rows: range K, then its complement Kc
    residual = frobenius_norm(uak[:, base:].reshape(-1, base))  # ||Kc* A K||_F over the stack
    scale = s[0] * frobenius_norm(prev.reshape(-1, lead))  # ||K|| ||stack||_F bounds it
    ratio = residual / (tol.rank_cutoff * scale)
    y_bot = (vh.conj().T / s) @ uak[:, :base]  # K+ A K
    elems = np.zeros((len(prev), size, size), dtype=complex)
    elems[:, :lead, :lead] = prev
    elems[:, lead:, lead:] = y_bot
    elems[:, :lead, lead:] = g @ y_bot - _times(prev, g)
    return elems, ratio


def _times(stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``stack @ right`` for an (m, p, q) stack and a (q, r) matrix, as one
    (m p, q) GEMM in place of m small ones."""
    m, p, q = stack.shape
    return (stack.reshape(m * p, q) @ right).reshape(m, p, right.shape[1])


@dataclass
class ReflexivityReport:
    """Two-sided reflexivity diagnostics for one scenario.

    ``element_residuals`` are the Frobenius reconstruction residuals
    ||X - Phi(X_00)||_F of the tower's elements, one per element of M the
    tower was started from: M's orthonormal basis, or ``_PROBES`` Gaussian
    elements of M (see ``reflexivity_check``).  ``membership_bound``
    bounds the Frobenius distance of Phi(a) from the solution for every
    unit a in the algebra: the Hilbert-Schmidt norm of L - Phi, exact on
    the basis and estimated, inflated by 1 / sqrt(_DELTA), on the Gaussian
    elements; it is infinite when the corners are not the start stack.
    ``tolerance`` is the bound both were judged against,
    tol_alg * (1 + ||exp S|| ||exp -S||), with exp(+-S) the corner
    exponentials.  ``certificate_ratio`` is the corner tower's largest
    ||Kc* A K||_F / (rank_cutoff * scale) over its levels, on the same
    stack and inflated in the same way, judged against 1 (see
    ``_corner_solve``).  ``dim_computed`` is dim M, the dimension of the
    solution L(M).
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
    certificate_ratio: float
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


def _probes(algebra: ClassAlgebra, seed: int) -> np.ndarray:
    """``_PROBES`` complex Gaussian elements a_i = sum_j r_ij B_j of the
    algebra, B its orthonormal basis and r_ij i.i.d. CN(0, 1), drawn from
    the first child stream of ``seed``: ``lat_family`` draws from the
    root stream, ``default_rng(seed)``, so the two never share draws.  The
    elements are formed from the classes (``ClassAlgebra.elements``),
    without B."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    m = algebra.dim
    r = rng.standard_normal((_PROBES, m)) + 1j * rng.standard_normal((_PROBES, m))
    return algebra.elements(r / np.sqrt(2))


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

    The solution V = {X leaving every family member invariant} is L(M),
    for L the linear map of ``_corner_solve``'s tower: level 0 is the
    algebra M, which is Alg(lat_M) by ``lat_family``'s construction, and
    level j adds the last block column, fixed by P_j and Q_j.  The corner
    (0, 0) block of L(a) is a, so L is injective and dim V = dim M =: m;
    the theorem is L = Phi, Phi the triangular representation.  The check
    pushes a start stack a_1, ..., a_k of elements of M through the tower,
    X_i = L(a_i), and asserts:

    1. the tower's certificate ratio on that stack is at most 1, so every
       level keeps the level below and L(M) is V;
    2. dim M equals its closed form ``spec.expected_dim()`` (a
       ``generated`` algebra has none);
    3. the corners of the X_i are bitwise the a_i (a certified tower
       copies them unchanged);
    4. the membership bound below, and every element residual
       ||X_i - Phi(a_i)||_F, are within the tolerance.

    The start stack.  With m <= k = ``_PROBES`` it is M's orthonormal
    basis B_1, ..., B_m, and with E = L - Phi,

        ||E||_HS^2 = sum_i ||X_i - Phi(B_i)||_F^2

    exactly.  Otherwise it is k complex Gaussian probes a_i = sum_j r_ij B_j,
    r_ij i.i.d. CN(0, 1), drawn from a stream that ``seed`` fixes and
    formed from M's classes without B (see ``_probes``), so a verdict is
    reproducible and B is formed only when m <= k; then
    rho^2 = (1/k) sum_i ||X_i - Phi(a_i)||_F^2 has mean ||E||_HS^2.  The
    membership bound is ||E||_HS on the basis and rho / sqrt(delta),
    delta = ``_DELTA``, on the probes; it is infinite when 3 fails.  For a
    unit a in M, L(a) lies in V, so

        dist(Phi(a), V) <= ||E(a)||_F <= ||E||_op <= ||E||_HS,

    all norms Frobenius on operators; B is orthonormal by construction
    (``ClassAlgebra``), to within 1e-8.  The bound is never smaller than
    the largest element residual (on the probes,
    sqrt(k) rho <= rho / sqrt(delta)).  The
    certificate ratio is judged the same way: on the basis its sums are
    exact Hilbert-Schmidt norms, and on the probes its numerator is
    inflated by 1 / sqrt(delta).

    Failure bound.  P(rho^2 < delta ||E||_HS^2) <= (delta e^(1 - delta))^k,
    about 7.6e-26 at k = 16 and delta = 0.01, whatever E is; so
    rho / sqrt(delta) >= ||E||_HS except with at most that probability.
    Proof: let G = U diag(lambda) U* be the Gram matrix
    G_jl = tr(E(B_j)* E(B_l)), with sum_j lambda_j = ||E||_HS^2, normalized
    to 1 (E = 0 is trivial).  Then ||E(a_i)||^2 = r_i* G r_i =
    sum_j lambda_j |z_ij|^2 with z_i = U* r_i, i.i.d. CN(0, 1) by unitary
    invariance, and |z_ij|^2 is Exp(1), so
    Q = rho^2 has E e^(-sQ) = prod_j (1 + s lambda_j / k)^(-k) for s >= 0.
    log(1 + s lambda / k) is concave in lambda and vanishes at 0, so it is
    at least lambda log(1 + s / k) on [0, 1], and
    E e^(-sQ) <= (1 + s / k)^(-k).  By Chernoff,
    P(Q < delta) <= e^(s delta) E e^(-sQ) <= e^(s delta) (1 + s / k)^(-k),
    which at s = k (1 / delta - 1) is (delta e^(1 - delta))^k.  The same
    argument holds for the certificate's numerator, a Hilbert-Schmidt
    norm of the linear map a -> Kc* L_(j-1)(a) K; its scale is the
    probes' estimate of ||K|| ||L_(j-1)||_HS.

    needed_Q (dropping the Q_j strictly enlarges the solution) compares
    dim M with the graph lemma's count dim Alg(lat_M) + n N^2 (see the
    module docstring): it is n >= 1; the key stays in the report.  For
    n = 0 the check degenerates to the bicommutant identity
    Alg(lat_family) = algebra.

    The algebra is the one the family carries (built and certified by
    ``lat_family``); there is no bicommutant solve.  ``family`` is a
    prebuilt ``invariant_family(spec, d, n, tol=tol, seed=seed)`` to
    reuse; without it the family is built here.  A family of another base
    dimension or order, or one that lacks a member (see
    ``_corner_solve``), raises ValueError.

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
    probing = algebra.dim > _PROBES
    start = _probes(algebra, seed) if probing else algebra.basis_elements
    elems, ratio = _corner_solve(family, tol, start)
    corners = np.ascontiguousarray(elems[:, : d.dim, : d.dim])  # copied once
    exp_norm = corner_exponential_norm(d, n)
    scale_tol = tol.alg(exp_norm, exp_norm)

    recon = frobenius_norm(triangular_representations(d, corners, n) - elems)
    max_recon = float(recon.max(initial=0.0))
    bound = float(np.sqrt(recon @ recon))  # ||E||_HS on the basis
    if probing:  # rho / sqrt(delta), and the certificate's numerator likewise
        bound, ratio = bound / math.sqrt(len(recon) * _DELTA), ratio / math.sqrt(_DELTA)
    if not np.array_equal(corners, start):
        bound = np.inf

    dim_expected = spec.expected_dim() or algebra.dim
    passed = bool(ratio <= 1 and dim_expected == algebra.dim and max(max_recon, bound) <= scale_tol)
    report = ReflexivityReport(
        scenario=spec.label(),
        order=n,
        dim_expected=dim_expected,
        dim_computed=algebra.dim,
        max_reconstruction_residual=max_recon,
        membership_bound=bound,
        needed_Q=n >= 1,
        passed=passed,
        tolerance=scale_tol,
        certificate_ratio=ratio,
        element_residuals=recon.tolist(),
    )
    if not passed and raise_on_fail:
        raise ReflexivityViolation(report)
    return report
