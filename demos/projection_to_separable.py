"""Projecting a state onto the separable set.

The separable states form the convex hull of the pure product states, so
the nearest separable state can be found by conditional gradient: each
step only needs the product state minimizing a linear functional, which
the product-state minimizer (alternating eigenvector steps with a damped
Newton step) provides.  For isotropic states the
answer is known in closed form, so we can watch the numeric projection
land on it.
"""

import numpy as np

from witnesskit import (
    bnt_check,
    hs_measure_isotropic,
    isotropic,
    nearest_separable,
)

# --- qubit case -----------------------------------------------------------

alpha = 0.8
target = isotropic(2, alpha)
result = nearest_separable(target)

closed = hs_measure_isotropic(2, alpha)
print(f"isotropic(2, {alpha}):")
print(f"  numeric distance   {result.distance:.8f}")
print(f"  closed form        {closed:.8f}   (sqrt(3)/2 (alpha - 1/3))")
print(f"  duality gap        {result.gap_certificate:.2e}")
print(f"  outer iterations   {result.iterations}")
print(f"  atoms in ensemble  {len(result.nearest.weights)}")

# The projection is the threshold isotropic state.
nearest = result.nearest.to_density()
ref = isotropic(2, 1 / 3)
print(f"  max|nearest - rho_1/3| = {np.max(np.abs(nearest.matrix - ref.matrix)):.2e}")

# --- distance equals maximal violation ------------------------------------

# The maximal generalized-Bell-inequality violation of a state equals its
# Hilbert-Schmidt distance to the separable set.  bnt_check takes the
# distance D from the projection and the violation B from the witness built
# at the projected point.  That witness is an affine image of the
# projection's last oracle operator, so B = D - g/(2D) for the gap g that
# B's own product-state search (32 starts, another seed) finds there.  D = B
# checks the projection's bookkeeping (its gap, weights and nearest state)
# and, through that second search, whether the projection's oracle missed
# a lower product state.
for d, a in [(2, 0.9), (3, 1.0)]:
    report = bnt_check(isotropic(d, a))
    print(f"\nisotropic({d}, {a}):")
    print(f"  D (distance)   {report.d_value:.6f}")
    print(f"  B (violation)  {report.b_value:.6f}")
    print(f"  |D - B|        {report.discrepancy:.2e}")
