#!/usr/bin/env python3
"""The block upper-triangular corner representation.

A derivative chain embeds as an upper-triangular block matrix with the
j-th derivative over j! on the j-th superdiagonal.  Conjugating the
block-diagonal amplification of x by the nilpotent exponential
exp(kron(J, iD)), J the nilpotent shift, produces exactly that matrix, the
map is an algebra homomorphism, and its norm is sandwiched by the weighted
chain norm.  The
norm of the nilpotent exponential has a closed form in the eigenvalues
of D, ||exp(r J)|| with r the largest |eigenvalue|.
"""

import numpy as np

from opderiv import (
    amplify,
    chain_norm,
    conjugation_identity_check,
    corner_exponential,
    corner_exponential_norm,
    derivative_chain,
    homomorphism_check,
    norm_sandwich_check,
    operator_norm,
    triangular_representation,
)
from opderiv.scenarios import random_scenario, random_operator

n, N = 3, 4
d, x = random_scenario(N, seed=12)
chain = derivative_chain(d, x, n)
rep = triangular_representation(chain)

print(f"order-{n} representation of a random {N}x{N} operator: "
      f"{(n + 1) * N}x{(n + 1) * N} corner matrix")
print("block (0, j) norms (the j-th derivative over j!):")
for j in range(n + 1):
    print(f"  j={j}: {operator_norm(rep[:N, j * N : (j + 1) * N]):.4f}")
print()

fwd, bwd = corner_exponential(d, n)
lhs = fwd @ amplify(x, n) @ bwd
print(f"conjugation identity residual: {operator_norm(lhs - rep):.2e}")
print(f"  (checked against tolerance: {conjugation_identity_check(chain).passed})")
print(f"||exp(S)|| = {operator_norm(fwd):.12f}, ||exp(-S)|| = {operator_norm(bwd):.12f} (dense)")
print(f"closed form ||exp(r J)|| = {corner_exponential_norm(d, n):.12f}, "
      f"r = max |eigenvalue of D| = {d.norm():.4f}")
print()

y = random_operator(N, np.random.default_rng(99), "general")
hom = homomorphism_check(chain, derivative_chain(d, y, n))
print(f"homomorphism residual ||rep(xy) - rep(x) rep(y)||_F: {hom.residuals[0]:.2e}")
print()

sandwich = norm_sandwich_check(chain)
det = sandwich.details
print("norm sandwich:")
print(f"  chain norm / (n+1) = {det['lower_bound']:.4f}")
print(f"  representation norm = {det['rep_norm']:.4f}")
print(f"  chain norm          = {det['chain_norm']:.4f}")
print()

print("weighted norm is submultiplicative:")
cxy = derivative_chain(d, x @ y, n)
print(f"  ||xy||_n = {chain_norm(cxy):.4f} <= "
      f"||x||_n ||y||_n = {chain_norm(chain) * chain_norm(derivative_chain(d, y, n)):.4f}")
