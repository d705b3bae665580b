"""Block upper-triangular corner representation.

A derivative chain of order n embeds into the (n+1) x (n+1) block matrices
over the base space: the j-th superdiagonal carries the j-th derivative
divided by j!.  Conjugating the block-constant amplification of x by the
nilpotent exponential exp(kron(shift, iD)) produces exactly that
triangular matrix, which is the identity this module verifies, along with
the homomorphism property, the norm sandwich, and the underlying
ad-expansion identity (valid in any associative algebra).

Corner operators are stored as full dense matrices with block accessors;
the block bookkeeping is a view, not a second representation.  The
triangular representation and the corner exponentials are CornerOperator
values and the nilpotent shift is a plain ndarray.  Basis
ordering is block-major: all of the base space tensored with the first
canonical vector, then the second, and so on, which keeps the leading
corner projections contiguous.  An infinite tower of blocks extending the
corner would only be proof scaffolding; the toolkit works exclusively in
the finite corner and exposes the leading corner projections instead.
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
    load_matrix_json,
    operator_norm,
    save_operator,
)
from .derivation import DerivativeChain, derivative_chain
from .reports import CheckReport

__all__ = [
    "nilpotent_shift",
    "CornerOperator",
    "amplify",
    "triangular_representation",
    "triangular_representations",
    "corner_exponential",
    "conjugation_identity_check",
    "homomorphism_check",
    "norm_sandwich_check",
    "ad_expansion_check",
    "save_corner_operator",
    "load_corner_operator",
]


def nilpotent_shift(n: int) -> np.ndarray:
    """(n+1) x (n+1) matrix with ones on the first superdiagonal.

    Its (n+1)-th power is exactly 0 and its n-th power is nonzero for n >= 1.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return np.eye(n + 1, k=1, dtype=complex)


@dataclass(frozen=True)
class CornerOperator:
    """Operator on the (order+1)-fold block space, stored dense."""

    matrix: np.ndarray
    base_dim: int
    order: int

    def __post_init__(self):
        mat = as_operator(self.matrix)
        expected = self.base_dim * (self.order + 1)
        if mat.shape[0] != expected:
            raise ValueError(
                f"matrix dim {mat.shape[0]} != base_dim*(order+1) = {expected}"
            )
        object.__setattr__(self, "matrix", mat)

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j); maps block component j to block component i."""
        n, d = self.order, self.base_dim
        if not (0 <= i <= n and 0 <= j <= n):
            raise IndexError(f"block index out of range for order {n}")
        return self.matrix[i * d : (i + 1) * d, j * d : (j + 1) * d]

    def norm(self) -> float:
        return operator_norm(self.matrix)


def amplify(x, order: int) -> CornerOperator:
    """Block-diagonal amplification of x: one copy of x per block."""
    x = as_operator(x)
    return CornerOperator(np.kron(np.eye(order + 1), x), x.shape[0], order)


def triangular_representation(chain: DerivativeChain) -> CornerOperator:
    """Embed a chain as the block upper-triangular corner operator.

    Block (i, j) is delta^(j-i)(x) / (j-i)! for j >= i and zero below the
    diagonal, so the diagonals are constant.  Equals
    ``sum_j kron(shift^j, delta^j(x) / j!)``; unital, injective (block
    (0, 0) recovers x) and linear in the chain.
    """
    n = chain.order
    base = chain.x.shape[0]
    shift = nilpotent_shift(n)
    acc = np.zeros((base * (n + 1), base * (n + 1)), dtype=complex)
    shift_pow = np.eye(n + 1, dtype=complex)
    for j in range(n + 1):
        acc += np.kron(shift_pow, chain.delta(j) / math.factorial(j))
        shift_pow = shift_pow @ shift
    return CornerOperator(acc, base, n)


def triangular_representations(d: SelfAdjointGenerator, xs: np.ndarray, n: int) -> np.ndarray:
    """The triangular representations of a stack of operators, all at once.

    ``xs`` is an ``(m, N, N)`` array; entry k of the ``(m, N(n+1), N(n+1))``
    result is ``triangular_representation(derivative_chain(d, xs[k], n)).matrix``.
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
    out = np.zeros((xs.shape[0], base * (n + 1), base * (n + 1)), dtype=complex)
    delta = xs
    for j in range(n + 1):
        if j:
            delta = 1j * (d.base @ delta - delta @ d.base)
        block = delta / math.factorial(j)
        for i in range(n + 1 - j):
            out[:, i * base : (i + 1) * base, (i + j) * base : (i + j + 1) * base] = block
    return out


def corner_exponential(
    d: SelfAdjointGenerator, n: int, shift: float = 0.0
) -> tuple[CornerOperator, CornerOperator]:
    """exp(S) and exp(-S) for S = kron(nilpotent shift, i(D + shift*I)).

    S is nilpotent of index n+1, so both exponentials are the finite sums
    ``I + sum_{j=1}^{n} S^j / j!`` and multiply to the identity up to
    roundoff.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    base = d.base + float(shift) * np.eye(d.dim)
    s = np.kron(nilpotent_shift(n), 1j * base)
    dim = d.dim * (n + 1)
    fwd = np.eye(dim, dtype=complex)
    bwd = np.eye(dim, dtype=complex)
    pow_fwd = np.eye(dim, dtype=complex)
    pow_bwd = np.eye(dim, dtype=complex)
    for j in range(1, n + 1):
        pow_fwd = pow_fwd @ s
        pow_bwd = pow_bwd @ (-s)
        fwd += pow_fwd / math.factorial(j)
        bwd += pow_bwd / math.factorial(j)
    return (
        CornerOperator(fwd, d.dim, n),
        CornerOperator(bwd, d.dim, n),
    )


def save_corner_operator(path, corner: CornerOperator) -> None:
    """Shared matrix JSON plus the block-structure fields base_dim/order."""
    save_operator(path, corner.matrix, extra={"base_dim": corner.base_dim, "order": corner.order})


def load_corner_operator(path) -> CornerOperator:
    matrix, extra = load_matrix_json(path)
    if "base_dim" not in extra or "order" not in extra:
        raise ValueError(f"{path}: missing base_dim/order corner fields")
    return CornerOperator(matrix, int(extra["base_dim"]), int(extra["order"]))


def conjugation_identity_check(
    d: SelfAdjointGenerator,
    chain: DerivativeChain,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
) -> CheckReport:
    """exp(S) (x amplified) exp(-S) equals the triangular representation."""
    tol = tol or DEFAULT_TOL
    n = chain.order
    fwd, bwd = corner_exponential(d, n)
    lhs = fwd.matrix @ amplify(chain.x, n).matrix @ bwd.matrix
    rep = triangular_representation(chain)
    resid = operator_norm(lhs - rep.matrix)
    tolerance = tol.alg(fwd.norm(), operator_norm(chain.x), bwd.norm())
    return CheckReport(
        "phi_conj",
        instance_id,
        [resid],
        tolerance,
        resid <= tolerance,
        details={"order": n},
    )


def homomorphism_check(
    chain_x: DerivativeChain,
    chain_y: DerivativeChain,
    tol: TolerancePolicy | None = None,
    instance_id: str = "",
) -> CheckReport:
    """Representation of a product equals the product of representations.

    The product chain is built independently by iterating the commutator
    on x @ y, so the two sides share no arithmetic.
    """
    tol = tol or DEFAULT_TOL
    if chain_x.order != chain_y.order:
        raise ValueError("chains must have the same order")
    dx, dy = chain_x.generator, chain_y.generator
    if dx.dim != dy.dim or not np.array_equal(dx.base, dy.base):
        raise ValueError("chains must share the same generator")
    n = chain_x.order
    prod_chain = derivative_chain(dx, chain_x.x @ chain_y.x, n)
    rep_x = triangular_representation(chain_x)
    rep_y = triangular_representation(chain_y)
    rep_xy = triangular_representation(prod_chain)
    resid = operator_norm(rep_xy.matrix - rep_x.matrix @ rep_y.matrix)
    tolerance = tol.alg(rep_x.norm(), rep_y.norm())
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
) -> CheckReport:
    """||x||_n / (n+1) <= ||representation|| <= ||x||_n, with slack tol_alg."""
    from .derivation import chain_norm

    tol = tol or DEFAULT_TOL
    n = chain.order
    weighted = chain_norm(chain)
    rep_norm = triangular_representation(chain).norm()
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
    s, b, n: int, tol: TolerancePolicy | None = None, instance_id: str = ""
) -> CheckReport:
    """sum_j ad(s)^j(b) s^(n-j) / ((n-j)! j!) == s^n b / n!.

    Holds in any associative algebra (left and right multiplication by s
    commute, so the binomial theorem collapses the sum).
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
    resid = operator_norm(lhs - rhs)
    tolerance = tol.alg(operator_norm(s) ** n, operator_norm(b))
    return CheckReport(
        "ad_identity",
        instance_id,
        [resid],
        tolerance,
        resid <= tolerance,
        details={"n": n},
    )
