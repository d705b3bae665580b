"""Commutator-derivative calculus under a Hermitian generator.

The one-parameter automorphism group t -> exp(itD) x exp(-itD) has, at
finite dimension, the derivative i[D, x] at t = 0; iterating gives the
higher derivatives.  This module provides that calculus: the automorphism,
the commutator derivative and its iterates, the equivalent binomial-sum
form, derivative chains with their weighted norm, the band-matrix
embedding with its blockwise derivation formula, and finite-difference /
inequality probes of the derivative identities.

At finite dimension every operator is smooth, domains are the whole
space, and closures are identities, so none of that bookkeeping appears
here.  Iteration order is capped (default 8) because the intermediate
norms grow factorially and exhaust double precision beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionMismatch,
    SelfAdjointGenerator,
    TolerancePolicy,
    as_operator,
    band_groups,
    operator_norm,
    unitary_group,
)
from .reports import CheckReport

__all__ = [
    "MAX_DERIVATIVE_ORDER",
    "automorphism",
    "commutator_derivative",
    "iterated_derivative",
    "binomial_derivative",
    "DerivativeChain",
    "derivative_chain",
    "chain_norm",
    "BandMatrix",
    "band_embed",
    "band_derivation",
    "default_step",
    "central_difference_derivative",
    "central_difference_scalar",
    "leibniz_check",
    "lipschitz_check",
    "uniform_convergence_check",
]

MAX_DERIVATIVE_ORDER = 8


def _check_dims(d: SelfAdjointGenerator, x: np.ndarray):
    if x.shape[0] != d.dim:
        raise DimensionMismatch(f"operator dim {x.shape[0]} != generator dim {d.dim}")


def _check_order(k: int, max_order: int):
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if k > max_order:
        raise ValueError(
            f"derivative order {k} exceeds the cap {max_order}; intermediate "
            "norms grow factorially and lose all precision beyond it"
        )


def automorphism(d: SelfAdjointGenerator, x, t: float) -> np.ndarray:
    """exp(itD) x exp(-itD).  Norm preserving; multiplicative in x."""
    x = as_operator(x)
    _check_dims(d, x)
    u = unitary_group(d, t)
    return u @ x @ u.conj().T


def commutator_derivative(d: SelfAdjointGenerator, x) -> np.ndarray:
    """i(Dx - xD), the derivative of t -> exp(itD) x exp(-itD) at t = 0."""
    x = as_operator(x)
    _check_dims(d, x)
    return 1j * (d.base @ x - x @ d.base)


def iterated_derivative(
    d: SelfAdjointGenerator, x, k: int, max_order: int = MAX_DERIVATIVE_ORDER
) -> np.ndarray:
    """k-fold commutator derivative, k >= 1."""
    _check_order(k, max_order)
    return derivative_chain(d, x, k).delta(k)


def binomial_derivative(
    d: SelfAdjointGenerator, x, k: int, max_order: int = MAX_DERIVATIVE_ORDER
) -> np.ndarray:
    """The k-th derivative as the expanded binomial sum.

    ``i^k * sum_j C(k, j) (-1)^j D^(k-j) x D^j`` -- algebraically equal to
    ``iterated_derivative`` but evaluated along a different arithmetic
    path, which makes the pair a two-sided consistency check.
    """
    x = as_operator(x)
    _check_dims(d, x)
    _check_order(k, max_order)
    powers = [np.eye(d.dim, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ d.base)
    acc = np.zeros_like(x)
    for j in range(k + 1):
        acc += ((-1) ** j) * math.comb(k, j) * (powers[k - j] @ x @ powers[j])
    return (1j**k) * acc


@dataclass(frozen=True)
class DerivativeChain:
    """An operator together with its first n commutator derivatives."""

    x: np.ndarray
    order: int
    derivatives: tuple
    generator: SelfAdjointGenerator

    def __post_init__(self):
        object.__setattr__(self, "x", as_operator(self.x))
        object.__setattr__(self, "derivatives", tuple(as_operator(a) for a in self.derivatives))
        if len(self.derivatives) != self.order:
            raise ValueError("chain length must equal its order")

    def delta(self, j: int) -> np.ndarray:
        """j-th derivative, with delta(0) = x."""
        if j == 0:
            return self.x
        return self.derivatives[j - 1]

    def validate(self) -> float:
        """Max residual of the recursion derivatives[k] = i[D, derivatives[k-1]]."""
        worst = 0.0
        for j in range(1, self.order + 1):
            resid = operator_norm(self.delta(j) - commutator_derivative(self.generator, self.delta(j - 1)))
            worst = max(worst, resid)
        return worst


def derivative_chain(d: SelfAdjointGenerator, x, n: int) -> DerivativeChain:
    """Build the chain [i[D,x], i[D,i[D,x]], ...] up to order n >= 0."""
    if n < 0:
        raise ValueError("chain order must be >= 0")
    x = as_operator(x)
    _check_dims(d, x)
    derivs = []
    current = x
    for _ in range(n):
        current = commutator_derivative(d, current)
        derivs.append(current)
    return DerivativeChain(x=x, order=n, derivatives=tuple(derivs), generator=d)


def chain_norm(chain: DerivativeChain) -> float:
    """sum_j ||delta^j(x)|| / j! over j = 0..n; a Banach-algebra norm."""
    return float(
        sum(operator_norm(chain.delta(j)) / math.factorial(j) for j in range(chain.order + 1))
    )


@dataclass(frozen=True)
class BandMatrix:
    """Block decomposition of an operator along the spectral bands of D.

    ``blocks[(r, c)]`` is the block of x between bands r and c expressed in
    the band eigenbases; ``diagonal_generators[r]`` is the (diagonal)
    restriction of D to band r, stored as its eigenvalue vector;
    ``band_vectors[r]`` holds the eigenvectors of band r.  All three are
    keyed by the nonempty bands in ascending order.
    """

    dim: int
    blocks: dict
    diagonal_generators: dict
    band_vectors: dict

    def assemble(self) -> np.ndarray:
        """Reassemble the full operator from the band blocks."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), block in self.blocks.items():
            vr = self.band_vectors[r]
            vc = self.band_vectors[c]
            out += vr @ block @ vc.conj().T
        return out


def band_embed(d: SelfAdjointGenerator, x) -> BandMatrix:
    """Decompose x into blocks e_r x e_c along the bands (r-1, r] of D."""
    x = as_operator(x)
    _check_dims(d, x)
    groups = band_groups(d.eigenvalues)
    vectors = {r: d.eigenvectors[:, idx] for r, idx in groups.items()}
    lams = {r: d.eigenvalues[idx] for r, idx in groups.items()}
    blocks = {}
    for r, vr in vectors.items():
        for c, vc in vectors.items():
            blocks[(r, c)] = vr.conj().T @ x @ vc
    return BandMatrix(
        dim=d.dim,
        blocks=blocks,
        diagonal_generators=lams,
        band_vectors=vectors,
    )


def band_derivation(bm: BandMatrix, k: int, max_order: int = MAX_DERIVATIVE_ORDER) -> BandMatrix:
    """Blockwise k-th derivation on the band decomposition.

    Per block: ``i^k * sum_j C(k, j) (-1)^(k-j) d_r^j y_rc d_c^(k-j)`` with
    d_r the diagonal restriction of D to band r.  Reassembling the result
    reproduces the k-th iterated commutator derivative of the original
    operator.
    """
    _check_order(k, max_order)
    new_blocks = {}
    for (r, c), y in bm.blocks.items():
        lr = bm.diagonal_generators[r]
        lc = bm.diagonal_generators[c]
        acc = np.zeros_like(y)
        for j in range(k + 1):
            weight = math.comb(k, j) * ((-1) ** (k - j))
            acc += weight * ((lr**j)[:, None] * y * (lc ** (k - j))[None, :])
        new_blocks[(r, c)] = (1j**k) * acc
    return BandMatrix(
        dim=bm.dim,
        blocks=new_blocks,
        diagonal_generators=bm.diagonal_generators,
        band_vectors=bm.band_vectors,
    )


def default_step(d: SelfAdjointGenerator) -> float:
    """Default finite-difference step, 1e-2 / (1 + ||D||)."""
    return 1e-2 / (1.0 + d.norm())


def central_difference_derivative(d: SelfAdjointGenerator, x, h: float) -> np.ndarray:
    """Second-order central-difference estimate of the derivative at t = 0.

    Error is O(h^2); compare against ``commutator_derivative``.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    return (automorphism(d, x, h) - automorphism(d, x, -h)) / (2.0 * h)


def central_difference_scalar(
    d: SelfAdjointGenerator,
    x,
    n: int,
    xi,
    eta,
    t0: float = 0.0,
    h: float | None = None,
) -> complex:
    """n-th central difference of t -> <alpha_t(x) xi, eta> at t0.

    Uses the standard (n+1)-point central stencil, error O(h^2); compare
    against <alpha_t0 applied to the n-th derivative xi, eta>.  xi and eta
    must be unit vectors.
    """
    if n < 1:
        raise ValueError("scalar derivative order must be >= 1")
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    for name, v in (("xi", xi), ("eta", eta)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    if h is None:
        h = default_step(d)
    x = as_operator(x)

    def f(t):
        return complex(np.vdot(eta, automorphism(d, x, t) @ xi))

    total = 0.0 + 0.0j
    for j in range(n + 1):
        total += ((-1) ** j) * math.comb(n, j) * f(t0 + (n / 2.0 - j) * h)
    return total / h**n


def leibniz_check(
    d: SelfAdjointGenerator, x, y, tol: TolerancePolicy | None = None, instance_id: str = ""
) -> CheckReport:
    """Derivation property: i[D, xy] = i[D, x] y + x i[D, y]."""
    tol = tol or DEFAULT_TOL
    x, y = as_operator(x), as_operator(y)
    lhs = commutator_derivative(d, x @ y)
    rhs = commutator_derivative(d, x) @ y + x @ commutator_derivative(d, y)
    resid = operator_norm(lhs - rhs)
    tolerance = tol.alg(d.norm(), operator_norm(x), operator_norm(y))
    return CheckReport("leibniz", instance_id, [resid], tolerance, resid <= tolerance)


def lipschitz_check(
    d: SelfAdjointGenerator,
    x,
    t_samples,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
) -> CheckReport:
    """||alpha_t(x) - x|| <= ||i[D, x]|| |t| for every sampled t.

    Reports the ratios lhs / (||i[D,x]|| |t|); passes when every ratio is
    <= 1 + tol_alg.  When the derivative vanishes (within tolerance) the
    differences themselves must vanish, avoiding 0/0.
    """
    tol = tol or DEFAULT_TOL
    x = as_operator(x)
    dx_norm = operator_norm(commutator_derivative(d, x))
    x_norm = operator_norm(x)
    degenerate = dx_norm <= tol.alg(d.norm(), x_norm)
    residuals = []
    passed = True
    for t in t_samples:
        diff = operator_norm(automorphism(d, x, t) - x)
        if degenerate or t == 0:
            residuals.append(diff)
            passed = passed and diff <= tol.alg(x_norm)
        else:
            ratio = diff / (dx_norm * abs(t))
            residuals.append(ratio)
            passed = passed and ratio <= 1.0 + tol.tol_alg
    max_ratio = max(residuals, default=0.0)
    return CheckReport(
        "lipschitz",
        instance_id,
        residuals,
        1.0 + tol.tol_alg,
        passed,
        details={"max_ratio": max_ratio, "derivative_norm": dx_norm, "degenerate": degenerate},
    )


def uniform_convergence_check(
    d: SelfAdjointGenerator,
    x,
    h_sequence=None,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
) -> CheckReport:
    """Norm convergence of the one-sided quotient (alpha_h(x) - x)/h to i[D, x].

    Residuals along a decreasing step sequence must shrink with observed
    order >= 0.9 (the quotient is first-order accurate).  All-vanishing
    residuals pass outright.
    """
    tol = tol or DEFAULT_TOL
    x = as_operator(x)
    if h_sequence is None:
        base = 0.2 / (1.0 + d.norm())
        h_sequence = [base * 0.5**i for i in range(6)]
    hs = [float(h) for h in h_sequence]
    if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_sequence must be positive and strictly decreasing")
    dx = commutator_derivative(d, x)
    residuals = [operator_norm((automorphism(d, x, h) - x) / h - dx) for h in hs]
    floor = tol.alg(d.norm(), operator_norm(x))
    if all(r <= floor for r in residuals):
        return CheckReport(
            "uniform_conv", instance_id, residuals, floor, True, details={"orders": [], "degenerate": True}
        )
    orders = []
    for (h0, r0), (h1, r1) in zip(zip(hs, residuals), zip(hs[1:], residuals[1:])):
        if r0 > floor and r1 > floor:
            orders.append(math.log(r0 / r1) / math.log(h0 / h1))
    passed = all(o >= 0.9 for o in orders)
    return CheckReport(
        "uniform_conv", instance_id, residuals, 0.9, passed, details={"orders": orders, "degenerate": False}
    )
