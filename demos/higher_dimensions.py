"""Isotropic states in higher dimensions.

The correlation-operator form of the isotropic state generalizes to any
d: rho = (1/d^2)(identity + (d alpha / 2) Gamma), where Gamma is a signed
sum of generator pairs g^i x g^i.  The signs are computed, not assumed:
they come out -1 exactly on the antisymmetric generators.  As d grows the
separability threshold 1/(d+1) shrinks and the distance of the maximally
entangled state to the separable set approaches 1.
"""

import numpy as np

from witnesskit import (
    gamma_signs,
    generalized_basis,
    infinite_d_trend,
    isotropic,
    isotropic_gamma_form,
)

# --- sign patterns --------------------------------------------------------

for d in range(2, 7):
    signs = gamma_signs(d)
    pattern = " ".join("+" if s > 0 else "-" for s in signs)
    print(f"d={d}:  {pattern}")

# minus exactly on the antisymmetric generators
anti = [np.array_equal(g.T, -g) for g in generalized_basis(5)]
minus = [s == -1 for s in gamma_signs(5)]
print(f"\nd=5: minus signs coincide with antisymmetric generators: {anti == minus}")

# the gamma form reproduces the direct construction
for d in (2, 4, 6):
    diff = np.max(np.abs(isotropic_gamma_form(d, 0.7).matrix - isotropic(d, 0.7).matrix))
    print(f"d={d}: max|gamma form - direct| = {diff:.2e}")

# --- the large-d trend ----------------------------------------------------

print(f"\n{'d':>3} {'threshold':>10} {'D(alpha=1)':>11}")
for d, alpha, thr, dist in infinite_d_trend([1.0], 10):
    print(f"{d:3d} {thr:10.4f} {dist:11.6f}")
print("\nD(alpha=1) = sqrt(d^2-1)/(d+1) -> 1: almost the whole line segment")
print("from the maximally entangled state to the maximally mixed state")
print("lies outside the separable set at large d.")
