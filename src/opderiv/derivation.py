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

The probes sample the group as one (T, N, N) stack (``automorphism``
takes an array of times) and take its norms in one stacked
``operator_norm`` call; the Lipschitz probe works in the eigenbasis of D.
Their theorems are about operator norms.  The finite-difference and
convergence probes take no tolerance: d/dt alpha_t(x) = alpha_t(i[D, x])
and alpha_t is an isometry, so Taylor's theorem bounds each error by a
norm of a higher derivative of x, to which ``_fd_roundoff`` adds rounding.
The Leibniz rule and the binomial and band forms are exact identities;
they report the Frobenius norm of their roundoff residual, an upper bound
of its operator norm, against tolerances of operator-norm scale.  Norms
a caller already holds (||x||, ||y||, the chain norms) are keyword
arguments; a check called without them computes them.

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
    frobenius_norm,
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
    return _binomial_sums(d, x, (k,))[0]


def _binomial_sums(d: SelfAdjointGenerator, x: np.ndarray, orders) -> list[np.ndarray]:
    """``binomial_derivative(d, x, k)`` for each k in ``orders``, on a validated x.

    The sums share the powers D^j and the products D^a x; each term is
    ``(D^(k-j) x) D^j``, the same floating-point operations as a sum of
    its own, so every result is bitwise that of ``binomial_derivative``.
    """
    top = max(orders)
    powers = [np.eye(d.dim, dtype=complex)]
    for _ in range(top):
        powers.append(powers[-1] @ d.base)
    left = [p @ x for p in powers]
    sums = []
    for k in orders:
        acc = np.zeros_like(x)
        for j in range(k + 1):
            acc += ((-1) ** j) * math.comb(k, j) * (left[k - j] @ powers[j])
        sums.append((1j**k) * acc)
    return sums


@dataclass(frozen=True)
class DerivativeChain:
    """An operator together with its first n commutator derivatives.

    Built by ``derivative_chain``, which validates x once; the derivatives
    are computed from it and are not validated again.  ``_memo`` holds
    values derived from the chain by other modules, each computed on first
    use (``triangular._represented`` and ``_represented_norm``).
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


def chain_norm(chain: DerivativeChain, norms=None) -> float:
    """sum_j ||delta^j(x)|| / j! over j = 0..n; a Banach-algebra norm.

    ``norms``, when given, holds ||delta^j(x)|| for j = 0..n (or further).
    """
    n = chain.order
    if norms is None:
        norms = operator_norm(np.stack([chain.delta(j) for j in range(n + 1)]))
    return float(sum(norm / math.factorial(j) for j, norm in enumerate(norms[: n + 1])))


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

    (alpha_h(x) - alpha_-h(x)) / 2h, from one automorphism stack of the
    two times; its error is at most h^2/6 ||delta^3(x)|| plus roundoff
    (the fd_first check); compare against ``commutator_derivative``.
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

    Uses the standard (n+1)-point central stencil with step h (default
    ``default_step``), its points one automorphism stack; error O(h^2)
    (bounded in the fd_higher check); compare against <alpha_t0 applied to
    the n-th derivative xi, eta>.  xi and eta must be unit vectors.
    """
    if n < 1:
        raise ValueError("scalar derivative order must be >= 1")
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    for name, v in (("xi", xi), ("eta", eta)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    h = default_step(d) if h is None else float(h)
    alphas = automorphism(d, x, t0 + (n / 2.0 - np.arange(n + 1)) * h)
    total = 0.0 + 0.0j
    for j, alpha in enumerate(alphas):
        total += ((-1) ** j) * math.comb(n, j) * complex(np.vdot(eta, alpha @ xi))
    return total / h**n


def _fd_roundoff(d: SelfAdjointGenerator, x_norm: float, h: float, m: int, t: float) -> float:
    """c (N + 1 + |t| ||D||) eps ||x|| 2^m / h^m, c = 4: the rounding of an m-th
    difference quotient of alpha_s(x) with step h and samples at |s| <= |t|.

    A sample (V P V*) x (V P V*)*, P = diag(e^{is lambda}), is three products
    with unitary factors, each off by about (N + 1) eps ||x|| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 3.5, with errors
    adding like random signs), and its phases by eps |s| ||D||; the stencil
    weights sum to 2^m / h^m in absolute value.  The exact side adds about
    one product more: c = 4.  Over 12,000 random draws (N <= 6, ||D|| up to
    3000) the excess over the truncation reached 0.51 of this bound at c = 1
    (1.96 for one-sided quotients; 65 without the |t| ||D|| term).
    """
    return 4.0 * (d.dim + 1 + abs(t) * d.norm()) * np.finfo(float).eps * x_norm * (2.0 / h) ** m


def leibniz_check(
    d: SelfAdjointGenerator,
    x,
    y,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
    *,
    x_norm: float | None = None,
    y_norm: float | None = None,
) -> CheckReport:
    """Derivation property: i[D, xy] = i[D, x] y + x i[D, y].

    The residual is the Frobenius norm of the difference (``frobenius_norm``),
    judged against the operator-norm scale tol_alg(||D||, ||x||, ||y||);
    ``x_norm`` and ``y_norm``, when given, are ||x|| and ||y||.
    """
    tol = tol or DEFAULT_TOL
    x, y = as_operator(x), as_operator(y)
    _check_dims(d, x)
    _check_dims(d, y)
    lhs = _chain(d, x @ y, 1)[1]
    rhs = _chain(d, x, 1)[1] @ y + x @ _chain(d, y, 1)[1]
    resid = frobenius_norm(lhs - rhs)
    x_norm = operator_norm(x) if x_norm is None else x_norm
    y_norm = operator_norm(y) if y_norm is None else y_norm
    tolerance = tol.alg(d.norm(), x_norm, y_norm)
    return CheckReport("leibniz", instance_id, [resid], tolerance, resid <= tolerance)


def lipschitz_check(
    d: SelfAdjointGenerator,
    x,
    t_samples,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
    *,
    x_norm: float | None = None,
    dx_norm: float | None = None,
) -> CheckReport:
    """||alpha_t(x) - x|| <= ||i[D, x]|| |t| for every sampled t.

    Reports the ratios lhs / (||i[D,x]|| |t|); a sample passes when its
    ratio is <= 1 + tol_alg, or lhs exceeds ||i[D,x]|| |t| by no more than
    the roundoff floor tol_alg * (1 + ||x||).  When the derivative vanishes
    (within tolerance), and at t = 0, the residual is the difference
    itself, avoiding 0/0, and only the roundoff-excess test applies.
    ``x_norm`` and ``dx_norm``, when given, are ||x|| and ||i[D, x]||.

    The differences are taken in the eigenbasis of D: with y = V* x V and
    p_i = e^{it lambda_i}, alpha_t(x) - x = V ((p_i conj(p_j) - 1) y_ij) V*,
    and V is unitary, so each sample's norm is that of one entrywise
    product; all sampled times are one (T, N, N) stack and one stacked
    norm, and the samples are judged as arrays.  At t = 0 every p_i is 1,
    so that difference is exactly 0.
    """
    tol = tol or DEFAULT_TOL
    x = as_operator(x)
    _check_dims(d, x)
    dx_norm = operator_norm(_chain(d, x, 1)[1]) if dx_norm is None else dx_norm
    x_norm = operator_norm(x) if x_norm is None else x_norm
    degenerate = dx_norm <= tol.alg(d.norm(), x_norm)
    ts = np.asarray(t_samples, dtype=float)
    phases = np.exp(1j * np.multiply.outer(ts, d.eigenvalues))
    weights = phases[:, :, None] * phases.conj()[:, None, :] - 1.0
    diffs = operator_norm(weights * band_embed(d, x).coeffs)
    scale = dx_norm * np.abs(ts)
    ratio_branch = (ts != 0) & (not degenerate)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only off the ratio branch
        ratios = diffs / scale
    residuals = np.where(ratio_branch, ratios, diffs)
    # diff carries absolute roundoff, which dominates the ratio when
    # ||i[D, x]|| |t| is that small
    within = (diffs - scale <= tol.alg(x_norm)) | (ratio_branch & (ratios <= 1.0 + tol.tol_alg))
    passed = bool(within.all())
    max_ratio = float(residuals.max(initial=0.0))
    return CheckReport(
        "lipschitz",
        instance_id,
        residuals.tolist(),
        1.0 + tol.tol_alg,
        passed,
        details={"max_ratio": max_ratio, "derivative_norm": dx_norm, "degenerate": degenerate},
    )


def uniform_convergence_check(
    d: SelfAdjointGenerator,
    x,
    h_sequence=None,
    instance_id: str = "",
    *,
    chain_norms=None,
) -> CheckReport:
    """Norm convergence of the one-sided quotient (alpha_h(x) - x)/h to i[D, x].

    Each step h of a decreasing sequence is judged by its own bound,
    ||(alpha_h(x) - x)/h - i[D, x]|| <= h/2 ||delta^2(x)|| + _fd_roundoff(h, m=1).
    Proof: f(t) = alpha_t(x) has f'' = alpha_t(delta^2(x)), and Taylor's
    theorem gives f(h) - f(0) - h f'(0) = int_0^h (h - s) alpha_s(delta^2(x)) ds,
    of norm <= h^2/2 ||delta^2(x)|| as alpha_s is an isometry; divide by h.
    ``details`` holds the steps and bounds; ``chain_norms``, when given, is
    ||delta^j(x)|| for j = 0, 1, 2 (or further).
    """
    x = as_operator(x)
    if h_sequence is None:
        base = 0.2 / (1.0 + d.norm())
        h_sequence = [base * 0.5**i for i in range(6)]
    hs = [float(h) for h in h_sequence]
    if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_sequence must be positive and strictly decreasing")
    _check_dims(d, x)
    dx = _chain(d, x, 1)[1]
    if chain_norms is None:
        chain_norms = operator_norm(np.stack(_chain(d, x, 2)))
    steps = np.array(hs)
    quotients = (automorphism(d, x, steps) - x) / steps[:, None, None]
    residuals = operator_norm(quotients - dx).tolist()
    bounds = [float(h / 2 * chain_norms[2] + _fd_roundoff(d, chain_norms[0], h, 1, h)) for h in hs]
    passed = all(r <= b for r, b in zip(residuals, bounds))
    details = {"h": hs, "bounds": bounds}
    return CheckReport("uniform_conv", instance_id, residuals, max(bounds, default=0.0), passed, details=details)
