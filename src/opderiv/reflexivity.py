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

All dimension counts are over the complex field.  Subspace equality and
membership are always tested through projections, never bases.  The
solve takes one dense SVD per family member; measured on one BLAS thread
under a 2 GB memory cap it finishes up to base dimension 16 at order 2
and runs out of memory at (16, 3).
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
from .derivation import derivative_chain
from .triangular import corner_exponential, triangular_representation

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
    return nullspace_of_constraints(constraints, dim, tol, scale=scale)


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
) -> list[Subspace]:
    """A finite generating family of invariant subspaces for the algebra.

    Takes the eigenspace ranges of every Hermitian spanning element of the
    commutant plus ``n_random`` random Hermitian combinations, then
    certifies Alg(family) equals the algebra (bicommutant cross-check).
    More random combinations are added on failure, up to ``max_extra``;
    exhaustion raises LatGenerationFailed.
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
            return subspaces
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
    unshifted/shifted graph subspaces.
    """

    subspaces: tuple
    labels: tuple
    base_dim: int
    order: int

    def __post_init__(self):
        if len(self.subspaces) != len(self.labels):
            raise ValueError("labels and subspaces must align")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def ambient_dim(self) -> int:
        return self.base_dim * (self.order + 1)

    def without_q(self) -> "InvariantFamily":
        return self._members(lambda label: not label.startswith("Q_"))

    def only_q(self) -> "InvariantFamily":
        return self._members(lambda label: label.startswith("Q_"))

    def _members(self, keep_label) -> "InvariantFamily":
        keep = [(s, l) for s, l in zip(self.subspaces, self.labels) if keep_label(l)]
        subs, labels = zip(*keep) if keep else ((), ())
        return InvariantFamily(subs, labels, self.base_dim, self.order)


def invariant_family(
    spec: VonNeumannAlgebraSpec,
    d: SelfAdjointGenerator,
    n: int,
    tol: TolerancePolicy | None = None,
    seed: int = 0,
) -> InvariantFamily:
    """The full invariant family: embedded lat members, corners, graphs."""
    tol = tol or DEFAULT_TOL
    if n < 0:
        raise ValueError("order must be >= 0")
    if spec.ambient_dim != d.dim:
        raise ValueError("algebra and generator dimensions differ")
    base = d.dim
    ambient = base * (n + 1)
    subs: list[Subspace] = []
    labels: list[str] = []
    for i, f in enumerate(lat_family(spec, tol=tol, seed=seed)):
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
    return InvariantFamily(tuple(subs), tuple(labels), base, n)


def invariance_residuals(
    family: InvariantFamily,
    d: SelfAdjointGenerator,
    elements,
    tol: TolerancePolicy | None = None,
) -> dict[str, float]:
    """Max of ||(I - P) rep(x) P|| per family member over the given x's."""
    tol = tol or DEFAULT_TOL
    n = family.order
    reps = [triangular_representation(derivative_chain(d, x, n)).matrix for x in elements]
    eye = np.eye(family.ambient_dim)
    out = {}
    for sub, label in zip(family.subspaces, family.labels):
        p = sub.projection
        worst = max((operator_norm((eye - p) @ rep @ p) for rep in reps), default=0.0)
        out[label] = worst
    return out


def alg_of_family(
    family,
    ambient_dim: int | None = None,
    tol: TolerancePolicy | None = None,
    within: OperatorSpace | None = None,
) -> OperatorSpace:
    """Operators (in ``within``, when given) leaving every family member invariant.

    Solved as the nullspace of the constraints (I - P) X V = 0, one per
    nontrivial member, V an orthonormal basis of the member's range.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(family, InvariantFamily):
        subspaces = family.subspaces
        ambient_dim = family.ambient_dim
    else:
        subspaces = list(family)
        if subspaces:
            ambient_dim = subspaces[0].ambient_dim
        elif ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty family")

    constraints = []
    for sub in subspaces:
        if sub.ambient_dim != ambient_dim:
            raise ValueError("family members live in different ambient spaces")
        if sub.dim in (0, ambient_dim):
            continue  # trivial subspaces impose no constraint
        constraints.append(invariance_constraint(sub.basis))
    return nullspace_of_constraints(constraints, ambient_dim, tol, scale=1.0, within=within)


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
) -> ReflexivityReport:
    """Verify the corner algebra cut out by the invariant family.

    Computes S = {X leaving every family member invariant} and asserts:
    dim S equals the algebra dimension; every basis element of S
    reconstructs as the triangular representation of its (0, 0) block;
    and the representation of every algebra basis element lies in S.
    S is solved in one pass: first for the family without the shifted
    graph subspaces Q_j, then inside that space for the Q_j alone, so
    needed_Q (dropping the Q_j strictly enlarges the solution) is read
    off the two dimensions.  For n = 0 this degenerates to the
    bicommutant identity Alg(lat_family) = algebra.

    Raises ReflexivityViolation (report attached) when any assertion
    fails, unless ``raise_on_fail`` is False.
    """
    tol = tol or DEFAULT_TOL
    if spec.ambient_dim != d.dim:
        raise ValueError("algebra and generator dimensions differ")
    algebra = bicommutant(spec, tol=tol)
    family = invariant_family(spec, d, n, tol=tol, seed=seed)
    without_q = alg_of_family(family.without_q(), tol=tol)
    solved = alg_of_family(family.only_q(), tol=tol, within=without_q)

    base = d.dim
    fwd, bwd = corner_exponential(d, n)
    scale_tol = tol.alg(fwd.norm(), bwd.norm())

    element_residuals = []
    for x_mat in solved.basis_elements:
        block00 = x_mat[:base, :base]
        rep = triangular_representation(derivative_chain(d, block00, n))
        element_residuals.append(operator_norm(x_mat - rep.matrix))
    max_recon = max(element_residuals, default=0.0)

    membership = []
    for g in algebra.basis_elements:
        rep = triangular_representation(derivative_chain(d, g, n))
        membership.append(solved.membership_residual(rep.matrix))
    max_member = max(membership, default=0.0)

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
        needed_Q=without_q.dim > solved.dim,
        passed=passed,
        tolerance=scale_tol,
        element_residuals=element_residuals,
    )
    if not passed and raise_on_fail:
        raise ReflexivityViolation(report)
    return report
