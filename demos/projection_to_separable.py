"""Projecting a state onto the separable set.

The separable states form the convex hull of the pure product states, so
the nearest separable state can be found by conditional gradient: each
step only needs the product state minimizing a linear functional, which
the product-state minimizer (alternating eigenvector steps with a damped
Newton step) provides.  For isotropic states the
answer is known in closed form, so we can watch the numeric projection
land on it.

An isotropic state is fixed by the finite group {W (x) W*} of local
unitaries built from the d^2 Weyl operators W = X^k Z^l, and, in any other
local frame, by a conjugate of it.  A Werner state, whose partial
transpose is isotropic up to a local frame, is fixed by {W (x) W} or a
conjugate of it in the same way.  Twirling by such a group keeps the
separable set and the target, so the nearest separable state is invariant
too: the projection runs over twirled product states, with only their Gram
matrix averaged over the group, and its nearest ensemble holds every group
image of each atom.  The gradient is invariant as well, so the oracle's
gap still certifies the distance against every product state.
"""

import numpy as np

from witnesskit import (
    DensityMatrix,
    bnt_check,
    hs_measure_isotropic,
    isotropic,
    nearest_separable,
)
from witnesskit.states import haar_unitary

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

# --- any local frame ------------------------------------------------------

# A local unitary u_A (x) u_B keeps the distance and hides the computational
# basis; the group is found in the target's own frame, from its one
# non-degenerate eigenvector.
rng = np.random.default_rng(7)
u = np.kron(haar_unitary(4, rng), haar_unitary(4, rng))
result = nearest_separable(DensityMatrix(u @ isotropic(4, 1.0).matrix @ u.conj().T, 4, 4))
print("\nisotropic(4, 1.0) in a random local frame:")
print(f"  numeric distance   {result.distance:.12f}")
print(f"  closed form        {hs_measure_isotropic(4, 1.0):.12f}")
print(f"  outer iterations   {result.iterations}")
print(f"  atoms in ensemble  {len(result.nearest.weights)}   (16 images of each atom)")

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
