"""Block upper-triangular corner representation.

A derivative chain of order n embeds into the (n+1) x (n+1) block matrices
over the base space: the j-th superdiagonal carries the j-th derivative
divided by j!.  Conjugating the block-constant amplification of x by the
nilpotent exponential exp(kron(J, iD)), J the (n+1) x (n+1) matrix with
ones on the first superdiagonal, produces exactly that triangular matrix,
which is the identity this module verifies, along with the homomorphism
property, the norm sandwich, and the underlying ad-expansion identity
(valid in any associative algebra).

The corner exponential is block Toeplitz, built from the n powers of
i(D + shift), and its norm has a closed form in the eigenvalues of D
(``corner_exponential_norm``, one (n+1) x (n+1) norm), which sets the
tolerance of the conjugation identity and of the reflexivity check.

The homomorphism, conjugation and ad-expansion identities are exact, so
their residuals are pure roundoff: each is reported as a Frobenius norm
(``frobenius_norm``), which bounds the operator norm from above, against
a tolerance that keeps its operator-norm scale (the representations'
norms, ``corner_exponential_norm``, ||x||, ||s|| and ||b||; a caller that
holds ||x||, ||s|| or ||b|| passes it in).  The norm sandwich is a
statement about operator norms and keeps them.
A chain's representation and its norm are stored on the chain on first
use, so the checks that share a chain share both.

Corner operators are plain dense ``(N(n+1), N(n+1))`` arrays.  Basis
ordering is block-major: all of the base space tensored with the first
canonical vector, then the second, and so on, so block (i, j) is the
slice ``[i*N:(i+1)*N, j*N:(j+1)*N]`` and the leading corner projections
are contiguous.  An infinite tower of blocks extending the corner would
only be proof scaffolding; the toolkit works exclusively in the finite
corner and exposes the leading corner projections instead.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionMismatch,
    SelfAdjointGenerator,
    TolerancePolicy,
    as_operator,
    frobenius_norm,
    operator_norm,
)
from .derivation import DerivativeChain, _chain, chain_norm, derivative_chain
from .reports import CheckReport

__all__ = [
    "amplify",
    "triangular_representation",
    "triangular_representations",
    "corner_exponential",
    "corner_exponential_norm",
    "conjugation_identity_check",
    "homomorphism_check",
    "norm_sandwich_check",
    "ad_expansion_check",
]


def _toeplitz_blocks(diagonals, order: int) -> np.ndarray:
    """Block upper-triangular matrix with block (i, i+j) = diagonals[j].

    Each entry of ``diagonals`` is an (N, N) matrix or an (m, N, N) stack
    (then the result is a stack too); diagonals past the list are zero.
    """
    base = diagonals[0].shape[-1]
    out = np.zeros(diagonals[0].shape[:-2] + (base * (order + 1),) * 2, dtype=complex)
    for j, block in enumerate(diagonals):
        for i in range(order + 1 - j):
            out[..., i * base : (i + 1) * base, (i + j) * base : (i + j + 1) * base] = block
    return out


def amplify(x, order: int) -> np.ndarray:
    """Block-diagonal amplification of x: one copy of x per block."""
    return _toeplitz_blocks([as_operator(x)], order)


def triangular_representation(chain: DerivativeChain) -> np.ndarray:
    """Embed a chain as the block upper-triangular corner operator.

    Block (i, j) is delta^(j-i)(x) / (j-i)! for j >= i and zero below the
    diagonal, so the diagonals are constant.  Equals
    ``sum_j kron(J^j, delta^j(x) / j!)`` with J the nilpotent shift;
    unital, injective (block (0, 0) recovers x) and linear in the chain.
    """
    n = chain.order
    diagonals = [chain.delta(j) / math.factorial(j) for j in range(n + 1)]
    return _toeplitz_blocks(diagonals, n)


def _represented(chain: DerivativeChain) -> np.ndarray:
    """The triangular representation of a chain, stored on the chain on
    first use, so the checks that share a chain build it once."""
    if "rep" not in chain._memo:
        chain._memo["rep"] = triangular_representation(chain)
    return chain._memo["rep"]


def _represented_norm(chain: DerivativeChain) -> float:
    """The norm of ``_represented(chain)``, stored likewise: the
    homomorphism check and the norm sandwich share one operator norm."""
    if "rep_norm" not in chain._memo:
        chain._memo["rep_norm"] = operator_norm(_represented(chain))
    return chain._memo["rep_norm"]


def triangular_representations(d: SelfAdjointGenerator, xs: np.ndarray, n: int) -> np.ndarray:
    """The triangular representations of a stack of operators, all at once.

    ``xs`` is an ``(m, N, N)`` array; entry k of the ``(m, N(n+1), N(n+1))``
    result is ``triangular_representation(derivative_chain(d, xs[k], n))``.
    The representation is linear in x, so the chain is taken once on the
    whole stack, ``i(D X - X D)`` broadcast over it, and block (i, i+j) of
    every result is the stack's delta^j / j!.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    base = d.dim
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 3 or xs.shape[1:] != (base, base):
        raise DimensionMismatch(f"expected a stack of {base}x{base} operators, got shape {xs.shape}")
    deltas = _chain(d, xs, n)
    return _toeplitz_blocks([delta / math.factorial(j) for j, delta in enumerate(deltas)], n)


def _exponential_terms(d: SelfAdjointGenerator, n: int, shift: float = 0.0) -> np.ndarray:
    """The ``(n+1, N, N)`` stack of (i(D + shift))^j / j! for j = 0..n:
    block (i, i+j) of exp(S) in ``corner_exponential``, from the n powers
    of one N x N matrix."""
    gen = 1j * (d.base + float(shift) * np.eye(d.dim))
    powers = [np.eye(d.dim, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ gen)
    return np.stack([p / math.factorial(j) for j, p in enumerate(powers)])


def corner_exponential(
    d: SelfAdjointGenerator, n: int, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """exp(S) and exp(-S) for S = kron(J, i(D + shift*I)).

    J is the (n+1) x (n+1) matrix with ones on the first superdiagonal.
    S is nilpotent of index n+1, so exp(+-S) is the finite sum
    ``I + sum_{j=1}^{n} (+-S)^j / j!``; the j-th power of S carries
    (i(D + shift))^j on the j-th block superdiagonal, so both exponentials
    are block Toeplitz with block (i, i+j) = (+-i(D + shift))^j / j!, built
    from the n powers of one N x N matrix.  They multiply to the identity
    up to roundoff.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    terms = _exponential_terms(d, n, shift)
    fwd = _toeplitz_blocks(terms, n)
    bwd = _toeplitz_blocks([(-1) ** j * t for j, t in enumerate(terms)], n)
    return fwd, bwd


def corner_exponential_norm(d: SelfAdjointGenerator, n: int) -> float:
    """||exp(S)|| = ||exp(-S)|| = ||exp(r J)||, r = max_k |lambda_k|.

    S = kron(J, iD) as in ``corner_exponential``, J is the (n+1) x (n+1)
    nilpotent shift and lambda_k are the eigenvalues of D, so this is one
    (n+1) x (n+1) norm in place of the norm of either corner exponential;
    for the exponential shifted by c, pass ``d.shifted(c)``.  Proof: with
    D = V diag(lambda) V*, exp(+-S) is unitarily equivalent (conjugate by
    I (x) V, then reorder the basis eigenvalue-major) to the direct sum over
    k of exp(i mu_k J) with mu_k = +-lambda_k, whose norm is the largest of
    the summands' norms.  exp(i mu J) has (i mu)^j / j! on its j-th
    superdiagonal; conjugating it by the diagonal unitary
    diag(w^0, ..., w^n) with w = -i sign(mu) multiplies that superdiagonal
    by w^j, giving exp(|mu| J), which is entrywise nonnegative.  The norm
    of an entrywise nonnegative matrix is nondecreasing in each entry, and
    every entry |mu|^j / j! is nondecreasing in |mu|, so the largest
    summand is the one with the largest |lambda_k|.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    r = float(np.max(np.abs(d.eigenvalues)))
    terms = np.array([r**j / math.factorial(j) for j in range(n + 1)] + [0.0] * n)
    steps = np.arange(n + 1)
    exp_rj = terms[steps[None, :] - steps[:, None]]  # r^j / j! on superdiagonal j, 0 below
    return operator_norm(exp_rj)


def conjugation_identity_check(
    d: SelfAdjointGenerator,
    chain: DerivativeChain,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
    *,
    x_norm: float | None = None,
) -> CheckReport:
    """exp(S) (x amplified) exp(-S) equals the triangular representation.

    The residual is a Frobenius norm, judged against the operator-norm
    scale tol_alg(||exp(S)||, ||x||, ||exp(-S)||); ``x_norm``, when
    given, is ||x||.
    """
    tol = tol or DEFAULT_TOL
    n = chain.order
    fwd, bwd = corner_exponential(d, n)
    lhs = fwd @ amplify(chain.x, n) @ bwd
    resid = frobenius_norm(lhs - _represented(chain))
    exp_norm = corner_exponential_norm(d, n)
    x_norm = operator_norm(chain.x) if x_norm is None else x_norm
    tolerance = tol.alg(exp_norm, x_norm, exp_norm)
    return CheckReport(
        "phi_conj",
        instance_id,
        [resid],
        tolerance,
        resid <= tolerance,
        details={"order": n, "exp_norm": exp_norm},
    )


def homomorphism_check(
    chain_x: DerivativeChain,
    chain_y: DerivativeChain,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
) -> CheckReport:
    """Representation of a product equals the product of representations.

    The product chain is built independently by iterating the commutator
    on x @ y, so the two sides share no arithmetic.  The residual is a
    Frobenius norm, judged against the operator-norm scale
    tol_alg(||Phi(x)||, ||Phi(y)||).
    """
    tol = tol or DEFAULT_TOL
    if chain_x.order != chain_y.order:
        raise ValueError("chains must have the same order")
    dx, dy = chain_x.generator, chain_y.generator
    if dx.dim != dy.dim or not np.array_equal(dx.base, dy.base):
        raise ValueError("chains must share the same generator")
    n = chain_x.order
    prod_chain = derivative_chain(dx, chain_x.x @ chain_y.x, n)
    rep_xy = triangular_representation(prod_chain)
    resid = frobenius_norm(rep_xy - _represented(chain_x) @ _represented(chain_y))
    tolerance = tol.alg(_represented_norm(chain_x), _represented_norm(chain_y))
    return CheckReport(
        "phi_hom",
        instance_id,
        [resid],
        tolerance,
        resid <= tolerance,
        details={"order": n},
    )


def norm_sandwich_check(
    chain: DerivativeChain,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
    *,
    chain_norms=None,
) -> CheckReport:
    """||x||_n / (n+1) <= ||representation|| <= ||x||_n, with slack tol_alg.

    ``chain_norms``, when given, holds ||delta^j(x)|| for j = 0..n or further.
    """
    tol = tol or DEFAULT_TOL
    n = chain.order
    weighted = chain_norm(chain, chain_norms)
    rep_norm = _represented_norm(chain)
    slack = tol.alg(weighted)
    lower_violation = max(0.0, weighted / (n + 1) - rep_norm)
    upper_violation = max(0.0, rep_norm - weighted)
    passed = lower_violation <= slack and upper_violation <= slack
    return CheckReport(
        "norm_sandwich",
        instance_id,
        [lower_violation, upper_violation],
        slack,
        passed,
        details={"chain_norm": weighted, "rep_norm": rep_norm, "lower_bound": weighted / (n + 1)},
    )


def ad_expansion_check(
    s,
    b,
    n: int,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
    *,
    s_norm: float | None = None,
    b_norm: float | None = None,
) -> CheckReport:
    """sum_j ad(s)^j(b) s^(n-j) / ((n-j)! j!) == s^n b / n!.

    Holds in any associative algebra (left and right multiplication by s
    commute, so the binomial theorem collapses the sum).  The residual is a
    Frobenius norm, judged against the operator-norm scale
    tol_alg(||s||^n, ||b||); ``s_norm`` and ``b_norm``, when given, are
    ||s|| and ||b||.
    """
    tol = tol or DEFAULT_TOL
    s, b = as_operator(s), as_operator(b)
    if s.shape != b.shape:
        raise ValueError("s and b must have the same shape")
    if n < 0:
        raise ValueError("n must be >= 0")
    powers = [np.eye(s.shape[0], dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ s)
    lhs = np.zeros_like(s)
    ad_term = b
    for j in range(n + 1):
        lhs += ad_term @ powers[n - j] / (math.factorial(n - j) * math.factorial(j))
        ad_term = s @ ad_term - ad_term @ s
    rhs = powers[n] @ b / math.factorial(n)
    resid = frobenius_norm(lhs - rhs)
    s_norm = operator_norm(s) if s_norm is None else s_norm
    b_norm = operator_norm(b) if b_norm is None else b_norm
    tolerance = tol.alg(s_norm**n, b_norm)
    return CheckReport(
        "ad_identity",
        instance_id,
        [resid],
        tolerance,
        resid <= tolerance,
        details={"n": n},
    )
