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

The probes never form the group.  In the eigenbasis of D, with
Y = V* x V and P_t = diag(e^{it lambda}), alpha_t(x) = V (P_t Y P_t*) V*:
P_t Y P_t* is Y times the phase products e^{it(lambda_i - lambda_j)}
entrywise (``_phase_products``), and V* (alpha_s(x) - x) V is Y times
e^{is(lambda_i - lambda_j)} - 1, formed to a few eps of its own size
(``_phase_differences``).  Operator norms are unitarily invariant, so the
Lipschitz, convergence and first-difference probes take the norm of each
sample there, all sampled times one (T, N, N) stack and one stacked
``operator_norm`` call, against the exact side moved into the same
basis.  The scalar probe reads <alpha_t(x) xi, eta> as
(V* eta)* (P_t Y P_t*) (V* xi), O(N^2) per sample (``_matrix_elements``),
and takes its stencil samples g(t0 + s) - g(t0) the same way
(``_stencil_samples``).  ``automorphism`` forms alpha_t(x) itself, for
callers that want the matrix.  Their theorems are about operator norms.
The finite-difference and convergence probes take no tolerance: d/dt alpha_t(x) = alpha_t(i[D, x]) and alpha_t is an
isometry, so Taylor's theorem bounds each error by a norm of a higher
derivative of x, to which ``_fd_roundoff`` adds rounding.  The Leibniz
rule and the binomial and band forms are exact identities; they report
the Frobenius norm of their roundoff residual, an upper bound of its
operator norm, against tolerances of operator-norm scale.  Norms a caller
already holds (||x||, ||y||, the chain norms) and the chain in the
eigenbasis of D, V* delta^j(x) V, are keyword arguments; a check called
without them computes them.  Each public function validates
its operands once; sample times and steps must be finite, and steps
positive.

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


def _sample_set(values, name: str) -> np.ndarray:
    """``values`` as a nonempty 1-D array of finite floats; ValueError naming
    ``name`` otherwise."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a nonempty 1-D sequence of finite numbers")
    return arr


def _step(h) -> float:
    """A finite-difference step h as a float; ValueError unless it is finite
    and positive."""
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    return h


def _eigenbasis(d: SelfAdjointGenerator, a: np.ndarray) -> np.ndarray:
    """V* a V, V the eigenvectors of D, for a validated matrix or an
    ``(m, N, N)`` stack (one stacked product)."""
    v = d.eigenvectors
    return v.conj().T @ a @ v


def _phase_products(d: SelfAdjointGenerator, t) -> np.ndarray:
    """e^{it lambda_i} e^{-it lambda_j}, the entrywise factor of alpha_t in
    the eigenbasis of D: P_t Y P_t* = _phase_products(d, t) * Y.  A 1-D
    array of T times gives the (T, N, N) stack."""
    phases = np.exp(1j * np.multiply.outer(t, d.eigenvalues))
    return phases[..., :, None] * phases.conj()[..., None, :]


def _phase_differences(d: SelfAdjointGenerator, s) -> np.ndarray:
    """e^{is(lambda_i - lambda_j)} - 1, the entrywise factor of
    alpha_s(x) - x in the eigenbasis of D: V* (alpha_s(x) - x) V is this
    times Y = V* x V.  It is formed as -2 sin^2(theta/2) + i sin(theta),
    theta = s (lambda_i - lambda_j), to a few eps of its own size however
    small s is (``_phase_products`` minus 1 is off by about eps).  Its
    value at -s is its conjugate.  A 1-D array of T steps gives the
    (T, N, N) stack."""
    lam = d.eigenvalues
    theta = np.multiply.outer(s, np.subtract.outer(lam, lam))
    half = np.sin(0.5 * theta)
    out = np.empty(theta.shape, dtype=complex)
    out.real = -2.0 * half * half
    out.imag = np.sin(theta)
    return out


def _matrix_elements(
    d: SelfAdjointGenerator, z: np.ndarray, xi_c: np.ndarray, eta_c: np.ndarray, t: float
) -> np.ndarray:
    """<alpha_t(x) xi, eta> at one time t for z = V* x V (or an (m, N, N)
    stack of such), xi_c = V* xi and eta_c = V* eta: eta_c* (P_t z P_t*)
    xi_c, O(N^2) each."""
    phases = np.exp(1j * t * d.eigenvalues)
    return np.einsum("i,...ij,j->...", eta_c.conj() * phases, z, phases.conj() * xi_c)


def _stencil_samples(
    d: SelfAdjointGenerator, y: np.ndarray, xi_c: np.ndarray, eta_c: np.ndarray, t0: float, h: float, top: int
) -> np.ndarray:
    """g(t0 + k h/2) - g(t0) for k = -top..top (entry k + top), with
    g(t) = <alpha_t(x) xi, eta>, y = V* x V, xi_c = V* xi, eta_c = V* eta.

    y is moved to t0 once, z = P_t0 y P_t0*, and each sample is the
    contraction eta_c* (E_s z) xi_c with E_s = ``_phase_differences`` at
    s = k h/2, O(N^2) per sample.  Each is rounded to a few eps of its own
    size, about |s| ||D|| times the size of g; a sample of g itself would
    carry about eps |g|, which a stencil divides by h^n.
    """
    z = _phase_products(d, t0) * y
    e = _phase_differences(d, np.arange(1, top + 1) * (0.5 * h))
    up = np.einsum("i,kij,j->k", eta_c.conj(), e * z, xi_c)
    down = np.einsum("i,kij,j->k", eta_c.conj(), e.conj() * z, xi_c)
    return np.concatenate([down[::-1], [0.0], up])


def _central_difference(samples: np.ndarray, n: int, h: float) -> complex:
    """The n-th central difference quotient at t0 from ``_stencil_samples``
    (top >= n): sum_j (-1)^j C(n, j) g(t0 + (n/2 - j) h) / h^n.  The weights
    sum to 0, so samples relative to g(t0) give the same quotient."""
    top = len(samples) // 2
    total = 0.0 + 0.0j
    for j in range(n + 1):
        total += ((-1) ** j) * math.comb(n, j) * complex(samples[top + n - 2 * j])
    return total / h**n


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
    All the terms are one stacked product, summed in the same order.
    """
    top = max(orders)
    powers = [np.eye(d.dim, dtype=complex)]
    for _ in range(top):
        powers.append(powers[-1] @ d.base)
    powers = np.stack(powers)
    left = powers @ x
    pairs = [(k - j, j) for k in orders for j in range(k + 1)]
    terms = iter(left[[a for a, _ in pairs]] @ powers[[j for _, j in pairs]])
    sums = []
    for k in orders:
        acc = np.zeros_like(x)
        for j in range(k + 1):
            acc += ((-1) ** j) * math.comb(k, j) * next(terms)
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
    return BandMatrix(generator=d, coeffs=_eigenbasis(d, x), slices=slices)


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

    (alpha_h(x) - alpha_-h(x)) / 2h; its error is at most
    h^2/6 ||delta^3(x)|| plus roundoff (the fd_first check); compare
    against ``commutator_derivative``.  h must be finite and positive.
    The quotient is formed as fd_first forms it, in the eigenbasis of D:
    with Y = V* x V and E_h = ``_phase_differences`` at h,
    (E_h Y - conj(E_h) Y) / 2h, each difference alpha_(+-h)(x) - x rounded
    to a few eps of its own size, then mapped back as V (.) V*.
    """
    x = as_operator(x)
    _check_dims(d, x)
    h = _step(h)
    y = _eigenbasis(d, x)
    e = _phase_differences(d, h)
    v = d.eigenvectors
    return v @ ((e * y - e.conj() * y) / (2.0 * h)) @ v.conj().T


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
    ``default_step``), its samples ``_stencil_samples`` in the eigenbasis
    of D; error O(h^2) (bounded in the fd_higher check); compare against
    <alpha_t0 applied to the n-th derivative xi, eta>.  xi and eta must
    be unit vectors, t0 finite and h finite and positive.
    """
    if n < 1:
        raise ValueError("scalar derivative order must be >= 1")
    x = as_operator(x)
    _check_dims(d, x)
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    for name, v in (("xi", xi), ("eta", eta)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    t0 = float(t0)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    h = default_step(d) if h is None else _step(h)
    vh = d.eigenvectors.conj().T
    return _central_difference(_stencil_samples(d, _eigenbasis(d, x), vh @ xi, vh @ eta, t0, h, n), n, h)


def _fd_roundoff(d: SelfAdjointGenerator, x_norm: float, h: float, m: int, t: float) -> float:
    """c (N + 1 + |t| ||D||) eps ||x|| 2^m / h^m, c = 4: the rounding of an m-th
    difference quotient of alpha_s(x) with step h and samples at |s| <= |t|.

    A sample is evaluated in the eigenbasis of D as Y = V* x V times phase
    products.  Y is two products with a unitary factor, each off by about
    (N + 1) eps ||x|| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sec. 3.5, with errors adding like random signs); the
    phases e^{is lambda} are off by about eps |s| ||D||, from the rounding
    of s lambda; the stencil weights sum to 2^m / h^m in absolute value.
    The exact side V* delta^m(x) V is two products more, off by about
    2 (N + 1) eps (2 ||D||)^m ||x||, far below 2^m / h^m times the rest:
    c = 4.  The probes take each sample as a difference from an unmoved
    operand (alpha_s(x) - x, or g(t0 + s) - g(t0)) through
    ``_phase_differences``, rounded to a few eps of its own size, so the
    rounding of Y is shared by every sample and cancels in the quotient up
    to a factor of about h ||D||: for them the bound is conservative.  Over
    12,000 random draws (N <= 6, ||D|| up to 3000, half of them shifted by
    up to 3000 I) the excess over the truncation reached 0.063 of this
    bound at c = 1 (uniform_conv; 0.0074 for fd_first, 0.0005 for
    fd_higher).
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
    lhs, dx, dy = _chain(d, np.stack([x @ y, x, y]), 1)[1]
    rhs = dx @ y + x @ dy
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
    eigen_chain=None,
) -> CheckReport:
    """||alpha_t(x) - x|| <= ||i[D, x]|| |t| for every sampled t.

    Reports the ratios lhs / (||i[D,x]|| |t|); a sample passes when its
    ratio is <= 1 + tol_alg, or lhs exceeds ||i[D,x]|| |t| by no more than
    the roundoff floor tol_alg * (1 + ||x||).  When the derivative vanishes
    (within tolerance), and at t = 0, the residual is the difference
    itself, avoiding 0/0, and only the roundoff-excess test applies.
    ``x_norm`` and ``dx_norm``, when given, are ||x|| and ||i[D, x]||;
    ``eigen_chain``, when given, is V* delta^j(x) V for j = 0, 1, ...
    (V the eigenvectors of D), of which the check reads j = 0.

    The differences are taken in the eigenbasis of D: with y = V* x V and
    p_i = e^{it lambda_i}, alpha_t(x) - x = V ((p_i conj(p_j) - 1) y_ij) V*,
    and V is unitary, so each sample's norm is that of one entrywise
    product; all sampled times are one (T, N, N) stack and one stacked
    norm, and the samples are judged as arrays.  At t = 0 every p_i is 1,
    so that difference is exactly 0.  ``t_samples`` must be a nonempty 1-D
    sequence of finite times.
    """
    tol = tol or DEFAULT_TOL
    x = as_operator(x)
    _check_dims(d, x)
    ts = _sample_set(t_samples, "t_samples")
    dx_norm = operator_norm(_chain(d, x, 1)[1]) if dx_norm is None else dx_norm
    x_norm = operator_norm(x) if x_norm is None else x_norm
    degenerate = dx_norm <= tol.alg(d.norm(), x_norm)
    y = _eigenbasis(d, x) if eigen_chain is None else eigen_chain[0]
    diffs = operator_norm((_phase_products(d, ts) - 1.0) * y)
    scale = dx_norm * np.abs(ts)
    ratio_branch = (ts != 0) & (not degenerate)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only off the ratio branch
        ratios = diffs / scale
    residuals = np.where(ratio_branch, ratios, diffs)
    # diff carries absolute roundoff, which dominates the ratio when
    # ||i[D, x]|| |t| is that small
    within = (diffs - scale <= tol.alg(x_norm)) | (ratio_branch & (ratios <= 1.0 + tol.tol_alg))
    passed = bool(within.all())
    max_ratio = float(residuals.max())
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
    eigen_chain=None,
) -> CheckReport:
    """Norm convergence of the one-sided quotient (alpha_h(x) - x)/h to i[D, x].

    Each step h of a decreasing sequence is judged by its own bound,
    ||(alpha_h(x) - x)/h - i[D, x]|| <= h/2 ||delta^2(x)|| + _fd_roundoff(h, m=1).
    Proof: f(t) = alpha_t(x) has f'' = alpha_t(delta^2(x)), and Taylor's
    theorem gives f(h) - f(0) - h f'(0) = int_0^h (h - s) alpha_s(delta^2(x)) ds,
    of norm <= h^2/2 ||delta^2(x)|| as alpha_s is an isometry; divide by h.
    ``details`` holds the steps and bounds; ``chain_norms``, when given, is
    ||delta^j(x)|| for j = 0, 1, 2 (or further), and ``eigen_chain`` is
    V* delta^j(x) V for j = 0, 1 (or further), V the eigenvectors of D.
    ``h_sequence`` must be a nonempty 1-D sequence of finite steps.

    The quotients are taken in the eigenbasis of D, against V* i[D, x] V:
    with Y = V* x V, (P_h Y P_h* - Y)/h (``_phase_differences``) for all
    steps is one (T, N, N) stack and one stacked norm.
    """
    x = as_operator(x)
    if h_sequence is None:
        base = 0.2 / (1.0 + d.norm())
        h_sequence = [base * 0.5**i for i in range(6)]
    steps = _sample_set(h_sequence, "h_sequence")
    if np.any(steps <= 0) or np.any(steps[1:] >= steps[:-1]):
        raise ValueError("h_sequence must be positive and strictly decreasing")
    hs = steps.tolist()
    _check_dims(d, x)
    if chain_norms is None or eigen_chain is None:
        deltas = _chain(d, x, 2 if chain_norms is None else 1)
        if chain_norms is None:
            chain_norms = operator_norm(np.stack(deltas))
        if eigen_chain is None:
            eigen_chain = _eigenbasis(d, np.stack(deltas[:2]))
    y, dy = eigen_chain[:2]
    quotients = _phase_differences(d, steps) * y / steps[:, None, None]
    residuals = operator_norm(quotients - dy).tolist()
    bounds = [float(h / 2 * chain_norms[2] + _fd_roundoff(d, chain_norms[0], h, 1, h)) for h in hs]
    passed = all(r <= b for r, b in zip(residuals, bounds))
    details = {"h": hs, "bounds": bounds}
    return CheckReport("uniform_conv", instance_id, residuals, max(bounds), passed, details=details)
