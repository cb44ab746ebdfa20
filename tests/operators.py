"""Operators that several test modules build: random Hermitian matrices and
the signed correlation operators of the paper's qubit and qutrit witnesses."""

import numpy as np

from witnesskit.bases import generalized_basis


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
