"""Invariant-subspace families and the reflexivity verification.

The triangular corner image of a von Neumann algebra is cut out, inside
the algebra of all corner operators, by a finite family of invariant
subspaces: the algebra's own invariant subspaces embedded in the first
block, the nested leading-corner subspaces, and two towers of graph
subspaces (one for the generator, one for the generator shifted by the
identity).  This module builds that family, computes commutants and
algebras of subspace families as nullspace problems, and verifies that
the corner operators leaving every family member invariant are exactly
the triangular representations, with matching dimension.

The algebra is solved once per family: ``lat_family`` computes it as the
commutant of the commutant in order to certify its members, and the
family carries it, so the reflexivity check makes no separate
bicommutant solve.  The check reconstructs every solution element and
tests every algebra element for membership in one batched step each.

All dimension counts are over the complex field.  Subspace equality and
membership are always tested through projections, never bases.  The
corner solve starts from the block upper-triangular operators and takes
one SVD per graph subspace; measured on one BLAS thread under a 2 GB
memory cap it finishes at base dimension 16, order 3, in about 22 s and
870 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DEFAULT_TOL,
    OperatorSpace,
    SelfAdjointGenerator,
    Subspace,
    TolerancePolicy,
    as_operator,
    commutation_constraint,
    invariance_constraint,
    nullspace_of_constraints,
    operator_norm,
)
# triangular_representation is not called here; the benchmark tracer
# (perfbench/tracing.py) wraps it under this module's name.
from .triangular import corner_exponential, triangular_representation, triangular_representations

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
            f"max residual {report.max_reconstruction_residual:.3e}"
        )
        self.report = report


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
            if not self.pattern:
                raise ValueError("block_diagonal requires a block size pattern")
            pattern = tuple(int(k) for k in self.pattern)
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

    Accepts a VonNeumannAlgebraSpec or an iterable of operators.  Solved
    as the nullspace of the stacked commutation constraints.
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
    constraints = []
    scale = 0.0
    for g in generators:
        constraints.append(commutation_constraint(g))
        constraints.append(commutation_constraint(g.conj().T))
        scale = max(scale, operator_norm(g))
    basis = nullspace_of_constraints(constraints, dim, tol, scale=scale)
    return OperatorSpace.from_columns(dim, basis)


def bicommutant(spec, dim: int | None = None, tol: TolerancePolicy | None = None) -> OperatorSpace:
    """The double commutant: the von Neumann algebra itself."""
    tol = tol or DEFAULT_TOL
    first = commutant(spec, dim=dim, tol=tol)
    return commutant(first.basis_elements, dim=first.ambient_dim, tol=tol)


def _hermitian_spanning_set(space: OperatorSpace) -> list[np.ndarray]:
    """Hermitian operators spanning a *-closed operator space over R."""
    out = []
    for b in space.basis_elements:
        for h in ((b + b.conj().T) / 2, (b - b.conj().T) / 2j):
            if operator_norm(h) > 1e-12:
                out.append(h)
    return out


def _eigenspace_subspaces(h: np.ndarray) -> list[Subspace]:
    """One subspace per clustered eigenvalue of a Hermitian operator."""
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    atol = 1e-8 * (1.0 + float(np.max(np.abs(evals), initial=0.0)))
    subs = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > atol:
            subs.append(Subspace(h.shape[0], evecs[:, start:i]))
            start = i
    return subs


def _append_unique(subspaces: list[Subspace], new: list[Subspace], tol: float = 1e-8):
    for sub in new:
        if sub.dim == 0:
            continue
        if all(sub.distance(old) > tol for old in subspaces):
            subspaces.append(sub)


def lat_family(
    spec: VonNeumannAlgebraSpec,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
    n_random: int = 3,
    max_extra: int = 20,
) -> tuple[list[Subspace], OperatorSpace]:
    """A finite generating family of invariant subspaces for the algebra,
    and the algebra it was certified against.

    Takes the eigenspace ranges of every Hermitian spanning element of the
    commutant plus ``n_random`` random Hermitian combinations, then
    certifies Alg(family) equals the algebra, solved here as the commutant
    of the commutant (the bicommutant).  More random combinations are added
    on failure, up to ``max_extra``; exhaustion raises LatGenerationFailed.
    """
    tol = tol or DEFAULT_TOL
    com = commutant(spec, tol=tol)
    algebra = commutant(com.basis_elements, dim=com.ambient_dim, tol=tol)
    herms = _hermitian_spanning_set(com)
    rng = np.random.default_rng(seed)

    def random_combo():
        coeffs = rng.standard_normal(len(herms))
        return sum(c * h for c, h in zip(coeffs, herms))

    subspaces: list[Subspace] = []
    for h in herms:
        _append_unique(subspaces, _eigenspace_subspaces(h))
    for _ in range(n_random):
        _append_unique(subspaces, _eigenspace_subspaces(random_combo()))

    for _ in range(max_extra + 1):
        computed = alg_of_family(subspaces, ambient_dim=spec.ambient_dim, tol=tol)
        worst = computed.product_closure_residual(max_pairs=1024)
        if worst > tol.alg():
            raise ArithmeticError(
                f"computed algebra is not closed under multiplication (residual {worst:.3e})"
            )
        if computed.dim == algebra.dim and computed.equals(algebra, tol=tol.alg()):
            return subspaces, algebra
        _append_unique(subspaces, _eigenspace_subspaces(random_combo()))
    raise LatGenerationFailed(
        f"could not certify Alg(family) = algebra for {spec.label()} "
        f"after {max_extra} extra random combinations"
    )


def graph_subspace(
    d: SelfAdjointGenerator, n: int, shift: float = 0.0, tol: TolerancePolicy | None = None
) -> Subspace:
    """Range of the corner exponential applied to the last block.

    The subspace { exp(S)(xi tensor e_n) : xi } of the (n+1)-block space;
    the graph of xi -> sum_j (i(D + shift))^j xi / j! over the earlier
    blocks.  ``shift=1`` gives the companion family used to pin down the
    diagonal in the reflexivity argument.
    """
    tol = tol or DEFAULT_TOL
    if n < 1:
        raise ValueError("graph subspace requires order n >= 1")
    fwd, _ = corner_exponential(d, n, shift=shift)
    cols = fwd.matrix[:, n * d.dim : (n + 1) * d.dim]
    return Subspace.from_columns(cols, rank_cutoff=tol.rank_cutoff)


@dataclass(frozen=True)
class InvariantFamily:
    """Labeled family of invariant subspaces in the corner space.

    Labels: ``lat_M[i]`` for embedded algebra-invariant subspaces,
    ``H_j`` for the leading-corner subspaces, ``P_j``/``Q_j`` for the
    unshifted/shifted graph subspaces.  ``algebra`` is the algebra on the
    base space that the ``lat_M`` members were certified against.
    """

    subspaces: tuple
    labels: tuple
    base_dim: int
    order: int
    algebra: OperatorSpace

    def __post_init__(self):
        if len(self.subspaces) != len(self.labels):
            raise ValueError("labels and subspaces must align")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def ambient_dim(self) -> int:
        return self.base_dim * (self.order + 1)

    def without_q(self) -> "InvariantFamily":
        keep = [i for i, label in enumerate(self.labels) if not label.startswith("Q_")]
        subs = tuple(self.subspaces[i] for i in keep)
        labels = tuple(self.labels[i] for i in keep)
        return InvariantFamily(subs, labels, self.base_dim, self.order, self.algebra)


def invariant_family(
    spec: VonNeumannAlgebraSpec,
    d: SelfAdjointGenerator,
    n: int,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
) -> InvariantFamily:
    """The full invariant family: embedded lat members, corners, graphs,
    carrying the algebra that ``lat_family`` certified."""
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
        subs.append(Subspace(ambient, eye[:, : base * (j + 1)]))
        labels.append(f"H_{j}")
    for j in range(1, n + 1):
        subs.append(graph_subspace(d, j, shift=0.0, tol=tol).embedded(ambient, 0))
        labels.append(f"P_{j}")
        subs.append(graph_subspace(d, j, shift=1.0, tol=tol).embedded(ambient, 0))
        labels.append(f"Q_{j}")
    return InvariantFamily(tuple(subs), tuple(labels), base, n, algebra)


def invariance_residuals(
    family: InvariantFamily,
    d: SelfAdjointGenerator,
    elements,
    tol: TolerancePolicy | None = None,
) -> dict[str, float]:
    """Max of ||(I - P) rep(x) P|| per family member over the given x's."""
    tol = tol or DEFAULT_TOL
    xs = [as_operator(x) for x in elements]
    xs = np.stack(xs) if xs else np.zeros((0, d.dim, d.dim), dtype=complex)
    reps = triangular_representations(d, xs, family.order)
    eye = np.eye(family.ambient_dim)
    out = {}
    for sub, label in zip(family.subspaces, family.labels):
        p = sub.projection
        norms = np.linalg.norm((eye - p) @ reps @ p, ord=2, axis=(1, 2))
        out[label] = float(norms.max(initial=0.0))
    return out


def alg_of_family(
    family,
    ambient_dim: int | None = None,
    tol: TolerancePolicy | None = None,
    within: OperatorSpace | None = None,
) -> OperatorSpace:
    """Operators (in ``within``, when given) leaving every family member invariant.

    Solved as the nullspace of the constraints Qc* X V = 0, one per
    nontrivial member, V and Qc orthonormal bases of the member's range and
    of its complement.  An InvariantFamily is solved on the whole corner
    space by ``_corner_solve``, which uses its structure; to solve its
    members inside ``within``, pass them as a list.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(family, InvariantFamily):
        if within is not None:
            raise ValueError("an InvariantFamily is solved without within; pass its subspaces")
        return _corner_solve(family, tol)[0]
    subspaces = list(family)
    if subspaces:
        ambient_dim = subspaces[0].ambient_dim
    elif ambient_dim is None:
        raise ValueError("ambient_dim is required for an empty family")

    for sub in subspaces:
        if sub.ambient_dim != ambient_dim:
            raise ValueError("family members live in different ambient spaces")
    constraints = (invariance_constraint(sub.basis) for sub in subspaces)
    start = None if within is None else within._q
    basis = nullspace_of_constraints(constraints, ambient_dim, tol, scale=1.0, within=start)
    return OperatorSpace.from_columns(ambient_dim, basis)


def _corner_solve(family: InvariantFamily, tol: TolerancePolicy) -> tuple[OperatorSpace, int]:
    """Alg(family), and its dimension before the Q_j members are imposed.

    The H_j members are leading coordinate subspaces, and X leaves all of
    them invariant exactly when X is block upper triangular, so the solve
    starts from those coordinates instead of imposing them.  The lat_M
    members live in the first block; given H_0, X leaves L + 0 invariant
    exactly when its (0, 0) block leaves L invariant, so they are solved on
    the base space and the solution spans the (0, 0) part of the start.
    The remaining members narrow that start, the Q_j last.  Raises
    ValueError when a member does not have the shape its label claims.
    """
    base, d = family.base_dim, family.ambient_dim
    allowed = np.ones((d, d), dtype=bool)  # entries X[r, c] the H_j leave free
    lat, graphs, shifted = [], [], []
    for sub, label in zip(family.subspaces, family.labels):
        if label.startswith("H_"):
            if sub.dim % base or np.linalg.norm(sub.basis[sub.dim :]) > tol.alg():
                raise ValueError(f"{label} is not spanned by leading blocks of basis vectors")
            allowed[sub.dim :, : sub.dim] = False
        elif label.startswith("lat_M"):
            if np.linalg.norm(sub.basis[base:]) > tol.alg():
                raise ValueError(f"{label} is not supported in the first block")
            lat.append(sub.basis[:base])
        else:
            (shifted if label.startswith("Q_") else graphs).append(sub.basis)
    if lat and allowed[base:, :base].any():
        raise ValueError("lat_M members need H_0 in the family")

    # (0, 0) block: one orthonormal vec column per lat solution
    x00 = nullspace_of_constraints((invariance_constraint(v) for v in lat), base, tol, scale=1.0)
    block00 = (np.arange(base)[:, None] + d * np.arange(base)).reshape(-1, order="F")
    allowed[:base, :base] = False
    free = np.flatnonzero(allowed.reshape(-1, order="F"))
    start = np.zeros((d * d, x00.shape[1] + free.size), dtype=complex)
    start[block00, : x00.shape[1]] = x00
    start[free, np.arange(x00.shape[1], start.shape[1])] = 1.0

    basis = nullspace_of_constraints(
        (invariance_constraint(v) for v in graphs), d, tol, scale=1.0, within=start
    )
    without_q_dim = basis.shape[1]
    basis = nullspace_of_constraints(
        (invariance_constraint(v) for v in shifted), d, tol, scale=1.0, within=basis
    )
    return OperatorSpace.from_columns(d, basis), without_q_dim


@dataclass
class ReflexivityReport:
    """Two-sided reflexivity diagnostics for one scenario.

    ``tolerance`` is the bound both residuals were judged against,
    tol_alg * (1 + ||exp S|| ||exp -S||).
    """

    scenario: str
    order: int
    dim_expected: int
    dim_computed: int
    max_reconstruction_residual: float
    max_membership_residual: float
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
            "max_residual": float(
                max(self.max_reconstruction_residual, self.max_membership_residual)
            ),
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

    Computes S = {X leaving every family member invariant} and asserts:
    dim S equals the algebra dimension; every basis element of S
    reconstructs as the triangular representation of its (0, 0) block;
    and the representation of every algebra basis element lies in S.
    S is solved in one pass (``_corner_solve``): from the block upper
    triangular operators whose (0, 0) block leaves the lat members
    invariant, narrowed by the graph subspaces P_j and then by the
    shifted ones Q_j, so needed_Q (dropping the Q_j strictly enlarges
    the solution) is read off the dimension just before the Q_j.  For
    n = 0 this degenerates to the bicommutant identity
    Alg(lat_family) = algebra.

    The algebra is the one the family carries (certified by
    ``lat_family``); there is no separate bicommutant solve.  ``family``
    is a prebuilt ``invariant_family(spec, d, n, tol=tol, seed=seed)`` to
    reuse; without it the family is built here.  A family of another base
    dimension or order raises ValueError.  Reconstruction and membership
    are each one batched step over all elements
    (``triangular_representations``).

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
    solved, without_q_dim = _corner_solve(family, tol)

    base = d.dim
    fwd, bwd = corner_exponential(d, n)
    scale_tol = tol.alg(fwd.norm(), bwd.norm())

    elems = solved.stacked()
    recon = np.linalg.norm(
        elems - triangular_representations(d, elems[:, :base, :base], n), ord=2, axis=(1, 2)
    )
    element_residuals = recon.tolist()
    max_recon = float(recon.max(initial=0.0))
    membership = solved._residuals(triangular_representations(d, algebra.stacked(), n))
    max_member = float(membership.max(initial=0.0))

    passed = (
        solved.dim == algebra.dim
        and max_recon <= scale_tol
        and max_member <= scale_tol
    )
    report = ReflexivityReport(
        scenario=spec.label(),
        order=n,
        dim_expected=algebra.dim,
        dim_computed=solved.dim,
        max_reconstruction_residual=max_recon,
        max_membership_residual=max_member,
        needed_Q=without_q_dim > solved.dim,
        passed=passed,
        tolerance=scale_tol,
        element_residuals=element_residuals,
    )
    if not passed and raise_on_fail:
        raise ReflexivityViolation(report)
    return report
