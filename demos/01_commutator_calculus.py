#!/usr/bin/env python3
"""Derivative calculus on the truncated circle.

The generator is diag(-N..N) on the Fourier modes and the k-shift S_k
(mode m -> mode m+k) satisfies [D, S_k] = k S_k exactly, so every
derivative identity has a closed form to compare against.
"""

import numpy as np

from opderiv import (
    central_difference_derivative,
    chain_norm,
    commutator_derivative,
    derivative_chain,
    iterated_derivative,
    lipschitz_check,
    operator_norm,
    uniform_convergence_check,
)
from opderiv.scenarios import circle_generator, circle_shift

N = 6
d = circle_generator(N)
s1 = circle_shift(N, 1)

print(f"truncated circle, modes -{N}..{N} (dimension {d.dim})")
print()

print("closed form: the j-th derivative of S_k is (ik)^j S_k")
for k in (1, 2, 3):
    sk = circle_shift(N, k)
    for j in (1, 2, 3, 4):
        resid = operator_norm(iterated_derivative(d, sk, j) - (1j * k) ** j * sk)
        print(f"  k={k} j={j}: residual {resid:.1e}")
print()

chain = derivative_chain(d, s1, 2)
print(f"weighted chain norm of S_1 at order 2: {chain_norm(chain):.6f}  (= 1 + 1 + 1/2)")
print("(the chain keeps its norms; the Lipschitz and convergence checks below read them)")
print()

print("central differences are within their Taylor remainder h^2/6 ||d^3(x)||:")
exact = commutator_derivative(d, s1)
d3_norm = operator_norm(iterated_derivative(d, s1, 3))
for h in (1e-1, 5e-2, 2.5e-2, 1.25e-2):
    err = operator_norm(central_difference_derivative(d, s1, h) - exact)
    print(f"  h={h:<8.4g} error {err:.3e}   h^2/6 ||d^3(x)|| {h**2 / 6 * d3_norm:.3e}")
print()

print("Lipschitz bound ||alpha_t(x) - x|| <= ||i[D,x]|| |t|:")
report = lipschitz_check(chain, [0.01, 0.1, 1.0, 10.0])
for t, ratio in zip([0.01, 0.1, 1.0, 10.0], report.residuals):
    print(f"  t={t:<6g} ratio {ratio:.6f}")
print(f"  max ratio {report.details['max_ratio']:.6f} (tends to 1 as t -> 0)")
print()

print("one-sided quotients are within h/2 ||d^2(x)|| plus roundoff:")
report = uniform_convergence_check(chain)
for h, r, b in zip(report.details["h"], report.residuals, report.details["bounds"]):
    print(f"  h={h:<8.4g} residual {r:.3e}   bound {b:.3e}")
