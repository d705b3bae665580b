"""Commutator-derivative calculus under a Hermitian generator.

The one-parameter automorphism group t -> exp(itD) x exp(-itD) has, at
finite dimension, the derivative i[D, x] at t = 0; iterating gives the
higher derivatives.  This module provides that calculus: the automorphism,
the commutator derivative and its iterates, the equivalent binomial-sum
form, derivative chains with their weighted norm, the band-matrix
embedding with its blockwise derivation formula, and finite-difference /
inequality probes of the derivative identities.

The band embedding stores x once, as ``V* x V`` in the eigenbasis of D;
because the eigenvalues are ascending, every spectral band is a
contiguous slice of that array, so the blockwise derivation formula is
one array expression rather than a loop over band pairs.

The probes sample the group as a stack: ``automorphism`` takes an array
of T times and returns one (T, N, N) stack, and each probe takes the
norms of its samples in one stacked ``operator_norm`` call.  The
finite-difference and convergence probes form the automorphism itself,
with the same floating-point operations per sample as a call at that one
time.  The Lipschitz probe needs only the norm of alpha_t(x) - x, which is
unitarily invariant, so it works in the eigenbasis of D: one entrywise
product of the band embedding's ``V* x V`` per sample, no matrix product.

At finite dimension every operator is smooth, domains are the whole
space, and closures are identities, so none of that bookkeeping appears
here.  Iteration order is capped at ``MAX_DERIVATIVE_ORDER`` (8) because
the intermediate norms grow factorially and exhaust double precision
beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _check_order(k: int):
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order {k} exceeds the cap {MAX_DERIVATIVE_ORDER}; intermediate "
            "norms grow factorially and lose all precision beyond it"
        )


def automorphism(d: SelfAdjointGenerator, x, t) -> np.ndarray:
    """exp(itD) x exp(-itD).  Norm preserving; multiplicative in x.

    A scalar t gives an (N, N) matrix; a 1-D array of T times gives the
    (T, N, N) stack whose entry k is the automorphism at ``t[k]``.
    """
    x = as_operator(x)
    _check_dims(d, x)
    u = unitary_group(d, t)
    return u @ x @ u.conj().swapaxes(-1, -2)


def _chain(d: SelfAdjointGenerator, x: np.ndarray, n: int) -> list[np.ndarray]:
    """x and its first n commutator derivatives, [x, i(Dx - xD), ...].

    ``x`` is a validated matrix or an ``(m, N, N)`` stack, over which each
    commutator is broadcast; nothing is validated here.
    """
    deltas = [x]
    for _ in range(n):
        deltas.append(1j * (d.base @ deltas[-1] - deltas[-1] @ d.base))
    return deltas


def commutator_derivative(d: SelfAdjointGenerator, x) -> np.ndarray:
    """i(Dx - xD), the derivative of t -> exp(itD) x exp(-itD) at t = 0."""
    x = as_operator(x)
    _check_dims(d, x)
    return _chain(d, x, 1)[1]


def iterated_derivative(d: SelfAdjointGenerator, x, k: int) -> np.ndarray:
    """k-fold commutator derivative, 1 <= k <= ``MAX_DERIVATIVE_ORDER``."""
    _check_order(k)
    return derivative_chain(d, x, k).delta(k)


def binomial_derivative(d: SelfAdjointGenerator, x, k: int) -> np.ndarray:
    """The k-th derivative as the expanded binomial sum.

    ``i^k * sum_j C(k, j) (-1)^j D^(k-j) x D^j`` -- algebraically equal to
    ``iterated_derivative`` but evaluated along a different arithmetic
    path, which makes the pair a two-sided consistency check.
    """
    x = as_operator(x)
    _check_dims(d, x)
    _check_order(k)
    powers = [np.eye(d.dim, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ d.base)
    acc = np.zeros_like(x)
    for j in range(k + 1):
        acc += ((-1) ** j) * math.comb(k, j) * (powers[k - j] @ x @ powers[j])
    return (1j**k) * acc


@dataclass(frozen=True)
class DerivativeChain:
    """An operator together with its first n commutator derivatives.

    Built by ``derivative_chain``, which validates x once; the derivatives
    are computed from it and are not validated again.  ``_memo`` holds
    values derived from the chain by other modules, each computed on first
    use (``triangular._represented``).
    """

    x: np.ndarray
    order: int
    derivatives: tuple
    generator: SelfAdjointGenerator
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.derivatives) != self.order:
            raise ValueError("chain length must equal its order")

    def delta(self, j: int) -> np.ndarray:
        """j-th derivative, with delta(0) = x."""
        if j == 0:
            return self.x
        return self.derivatives[j - 1]


def derivative_chain(d: SelfAdjointGenerator, x, n: int) -> DerivativeChain:
    """Build the chain [i[D,x], i[D,i[D,x]], ...] up to order n >= 0."""
    if n < 0:
        raise ValueError("chain order must be >= 0")
    x = as_operator(x)
    _check_dims(d, x)
    return DerivativeChain(x=x, order=n, derivatives=tuple(_chain(d, x, n)[1:]), generator=d)


def chain_norm(chain: DerivativeChain) -> float:
    """sum_j ||delta^j(x)|| / j! over j = 0..n; a Banach-algebra norm."""
    norms = operator_norm(np.stack([chain.delta(j) for j in range(chain.order + 1)]))
    return float(sum(norm / math.factorial(j) for j, norm in enumerate(norms)))


@dataclass(frozen=True)
class BandMatrix:
    """An operator in the eigenbasis of D, split along the spectral bands of D.

    ``coeffs`` is ``V* x V`` with V the eigenvectors of ``generator``.  The
    eigenvalues are ascending and ``ceil`` is monotone, so each band
    (r-1, r] is one contiguous run of indices, ``slices[r]``.
    ``blocks[(r, c)]``, the block of x between bands r and c, is a view of
    ``coeffs`` through those slices, keyed by the nonempty bands in
    ascending order.
    """

    generator: SelfAdjointGenerator
    coeffs: np.ndarray
    slices: dict

    @property
    def blocks(self) -> dict:
        s = self.slices
        return {(r, c): self.coeffs[s[r], s[c]] for r in s for c in s}

    def assemble(self) -> np.ndarray:
        """Reassemble the full operator, ``V coeffs V*``."""
        v = self.generator.eigenvectors
        return v @ self.coeffs @ v.conj().T


def band_embed(d: SelfAdjointGenerator, x) -> BandMatrix:
    """Decompose x into blocks e_r x e_c along the bands (r-1, r] of D."""
    x = as_operator(x)
    _check_dims(d, x)
    slices = {r: slice(idx[0], idx[-1] + 1) for r, idx in band_groups(d.eigenvalues).items()}
    v = d.eigenvectors
    return BandMatrix(generator=d, coeffs=v.conj().T @ x @ v, slices=slices)


def band_derivation(bm: BandMatrix, k: int) -> BandMatrix:
    """Blockwise k-th derivation on the band decomposition.

    Per block: ``i^k * sum_j C(k, j) (-1)^(k-j) d_r^j y_rc d_c^(k-j)`` with
    d_r the diagonal restriction of D to band r.  Every d_r is diagonal in
    the eigenbasis, so the sum is evaluated once over ``coeffs`` with the
    eigenvalue vector in place of each d_r; each block gets the same
    floating-point operations as it would alone.  Reassembling the result
    reproduces the k-th iterated commutator derivative of the original
    operator.
    """
    _check_order(k)
    lam = bm.generator.eigenvalues
    y = bm.coeffs
    acc = np.zeros_like(y)
    for j in range(k + 1):
        weight = math.comb(k, j) * ((-1) ** (k - j))
        acc += weight * ((lam**j)[:, None] * y * (lam ** (k - j))[None, :])
    return BandMatrix(generator=bm.generator, coeffs=(1j**k) * acc, slices=bm.slices)


def default_step(d: SelfAdjointGenerator) -> float:
    """Default finite-difference step, 1e-2 / (1 + ||D||)."""
    return 1e-2 / (1.0 + d.norm())


def central_difference_derivative(d: SelfAdjointGenerator, x, h: float) -> np.ndarray:
    """Second-order central-difference estimate of the derivative at t = 0.

    Error is O(h^2); compare against ``commutator_derivative``.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    plus, minus = automorphism(d, x, np.array([h, -h]))
    return (plus - minus) / (2.0 * h)


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
    # all n+1 stencil points as one stack; each value is still its own
    # <alpha_t(x) xi, eta>, summed in stencil order
    alphas = automorphism(d, x, t0 + (n / 2.0 - np.arange(n + 1)) * h)
    total = 0.0 + 0.0j
    for j, alpha in enumerate(alphas):
        total += ((-1) ** j) * math.comb(n, j) * complex(np.vdot(eta, alpha @ xi))
    return total / h**n


def leibniz_check(
    d: SelfAdjointGenerator, x, y, tol: TolerancePolicy | None = None, instance_id: str = ""
) -> CheckReport:
    """Derivation property: i[D, xy] = i[D, x] y + x i[D, y]."""
    tol = tol or DEFAULT_TOL
    x, y = as_operator(x), as_operator(y)
    _check_dims(d, x)
    _check_dims(d, y)
    lhs = _chain(d, x @ y, 1)[1]
    rhs = _chain(d, x, 1)[1] @ y + x @ _chain(d, y, 1)[1]
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
    <= 1 + tol_alg, or lhs exceeds ||i[D,x]|| |t| by no more than the
    roundoff floor tol_alg * (1 + ||x||).  When the derivative vanishes
    (within tolerance) the differences themselves must vanish, avoiding 0/0.

    The differences are taken in the eigenbasis of D: with y = V* x V and
    p_i = e^{it lambda_i}, alpha_t(x) - x = V ((p_i conj(p_j) - 1) y_ij) V*,
    and V is unitary, so each sample's norm is that of one entrywise
    product; all sampled times are one (T, N, N) stack and one stacked
    norm.  At t = 0 every p_i is 1, so that difference is exactly 0.
    """
    tol = tol or DEFAULT_TOL
    x = as_operator(x)
    _check_dims(d, x)
    dx_norm = operator_norm(_chain(d, x, 1)[1])
    x_norm = operator_norm(x)
    degenerate = dx_norm <= tol.alg(d.norm(), x_norm)
    ts = np.asarray(t_samples, dtype=float)
    phases = np.exp(1j * np.multiply.outer(ts, d.eigenvalues))
    weights = phases[:, :, None] * phases.conj()[:, None, :] - 1.0
    diffs = operator_norm(weights * band_embed(d, x).coeffs)
    residuals = []
    passed = True
    for t, diff in zip(ts, diffs):
        if degenerate or t == 0:
            residuals.append(diff)
            passed = passed and diff <= tol.alg(x_norm)
        else:
            ratio = diff / (dx_norm * abs(t))
            residuals.append(ratio)
            # diff carries the absolute roundoff the degenerate branch allows,
            # which dominates the ratio when ||i[D, x]|| |t| is that small
            excess = diff - dx_norm * abs(t)
            passed = passed and (ratio <= 1.0 + tol.tol_alg or excess <= tol.alg(x_norm))
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
    _check_dims(d, x)
    dx = _chain(d, x, 1)[1]
    steps = np.array(hs)
    quotients = (automorphism(d, x, steps) - x) / steps[:, None, None]
    residuals = operator_norm(quotients - dx).tolist()
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
