"""Building entanglement witnesses for isotropic states.

An isotropic state mixes the maximally entangled projector with white
noise.  It is separable up to alpha = 1/(d+1) and entangled beyond.  If we
guess the nearest separable state correctly, the hyperplane through the
guess and orthogonal to (guess - target) is an entanglement witness; if
the guess is wrong, the plane cuts into the separable set and the
numerical minimizer finds a product state on the wrong side.
"""

import numpy as np

from witnesskit import (
    isotropic,
    verify_nearest_separable,
    witness_candidate,
)

# --- a correct guess: the threshold state ---------------------------------

d = 2
target = isotropic(d, 0.8)
guess = isotropic(d, 1 / (d + 1))

report = verify_nearest_separable(guess, target)
print("guess = threshold state, target = isotropic(2, 0.8)")
print(f"  expectation on the target:  {report.ent_expectation:+.6f}")
print(f"  minimum over product states: {report.sep_minimum:+.2e}")
print(f"  is a witness:  {report.is_witness}")
print(f"  is optimal (tangent to the separable set): {report.is_optimal}")

# The operator itself does not depend on how entangled the target is --
# only on the direction from the guess to the target.
c1 = witness_candidate(guess, isotropic(d, 0.5))
c2 = witness_candidate(guess, isotropic(d, 1.0))
print(f"\nwitness is alpha-independent: max|C(0.5) - C(1.0)| = "
      f"{np.max(np.abs(c1 - c2)):.2e}")

# Against the closed form (1/(2 sqrt(3))) (identity - Sigma), where Sigma
# is the Pauli correlation operator with a minus sign on sigma_y x sigma_y.
sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]])
sz = np.diag([1.0, -1.0]).astype(complex)
sigma = np.kron(sx, sx) - np.kron(sy, sy) + np.kron(sz, sz)
closed = (np.eye(4) - sigma) / (2 * np.sqrt(3))
print(f"deviation from the closed form:   {np.max(np.abs(c1 - closed)):.2e}")

# --- a wrong guess: the maximally mixed state -----------------------------

from witnesskit import DensityMatrix

bad_guess = DensityMatrix(np.eye(4) / 4, 2, 2)
bad = verify_nearest_separable(bad_guess, target)
print("\nguess = maximally mixed state (interior of the separable set)")
print(f"  minimum over product states: {bad.sep_minimum:+.4f}  (negative!)")
print(f"  is a witness: {bad.is_witness}")
print("  -> the plane through an interior point always cuts the set")
