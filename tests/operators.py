"""Operators that several test modules build: random Hermitian matrices,
the signed correlation operators of the paper's qubit and qutrit witnesses,
Werner states with their closed-form distance, the Horodecki 3 x 3 family,
seeded Bell-diagonal draws, and seeded local-unitary images of a state."""

import numpy as np

from witnesskit.bases import _weyl_operators, generalized_basis
from witnesskit.states import DensityMatrix, haar_unitary


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def sigma_operator():
    sx, sy, sz = generalized_basis(2)
    return np.kron(sx, sx) - np.kron(sy, sy) + np.kron(sz, sz)


def lambda_operator():
    lam = generalized_basis(3)
    signs = [1, -1, 1, 1, -1, 1, -1, 1]
    return sum(s * np.kron(g, g) for s, g in zip(signs, lam))


def _swap(d):
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def werner(d, p):
    """p P_a / n_a + (1 - p) P_s / n_s, with P_a, P_s the projectors onto the
    antisymmetric and symmetric subspaces of C^d x C^d."""
    n_a, n_s = d * (d - 1) / 2, d * (d + 1) / 2
    p_a, p_s = (np.eye(d * d) - _swap(d)) / 2, (np.eye(d * d) + _swap(d)) / 2
    return DensityMatrix(p * p_a / n_a + (1 - p) * p_s / n_s, d, d)


def werner_distance(d, p):
    """Closed form for p > 1/2 (Werner 1989; Vollbrecht & Werner 2001): the
    nearest separable state is the Werner state at p = 1/2."""
    n_a, n_s = d * (d - 1) / 2, d * (d + 1) / 2
    return (p - 0.5) * np.sqrt(1 / n_a + 1 / n_s)


def horodecki_3x3(alpha):
    """2/7 P_+ + alpha/7 s_+ + (5 - alpha)/7 s_- with P_+ the maximally
    entangled projector, s_+ = (|01><01| + |12><12| + |20><20|)/3 and s_-
    its swap (P., M. & R. Horodecki, PRL 82, 1056 (1999)): separable for
    2 <= alpha <= 3, PPT-entangled for 3 < alpha <= 4."""
    v = np.eye(3).ravel() / np.sqrt(3)
    diag = np.zeros(9)
    for i in range(3):
        diag[3 * i + (i + 1) % 3] = alpha / 21
        diag[3 * ((i + 1) % 3) + i] = (5 - alpha) / 21
    return DensityMatrix(2 / 7 * np.outer(v, v) + np.diag(diag), 3, 3)


def bell_diagonal(d, i):
    """Bell-diagonal draw i: sum_kl p_kl |Phi_kl><Phi_kl| over the d^2 Bell
    states Phi_kl = (W_kl (x) 1)|phi+>, whose d x d reshape is W_kl / sqrt(d),
    with p the i-th draw of ``default_rng(7).dirichlet(0.3 * 1)``."""
    p = np.random.default_rng(7).dirichlet(np.full(d * d, 0.3), size=i + 1)[i]
    bells = _weyl_operators(d).reshape(d * d, d * d) / np.sqrt(d)
    return DensityMatrix((bells.T * p) @ bells.conj(), d, d)


def _local_unitary(d, seed):
    """U_A (x) U_B of seeded Haar unitaries on C^d, or the identity for seed
    None.  The separable set is invariant under it, so it maps a target's
    nearest separable state to that of the rotated target and keeps D."""
    if seed is None:
        return np.eye(d * d)
    rng = np.random.default_rng(seed)
    return np.kron(haar_unitary(d, rng), haar_unitary(d, rng))


def _rotated(state, seed):
    """A d x d ``state`` under ``_local_unitary(d, seed)``.  The rotation
    hides the computational-basis group {W (x) W*} or {W (x) W}, so an
    isotropic or Werner target's group is found in the frame of an
    eigenvector of it or of its partial transpose."""
    u = _local_unitary(state.d_a, seed)
    return DensityMatrix(u @ state.matrix @ u.conj().T, state.d_a, state.d_b)
