"""Operator bases for qudits, each written into one array: the generalized
Gell-Mann generators of SU(d), ``generalized_basis(d)`` of shape
(d^2 - 1, d, d), and the d^2 Weyl operators X^k Z^l, ``_weyl_operators(d)``
of shape (d^2, d, d), which generate the projection's local groups.
``generalized_basis(2)`` is the Pauli set and ``generalized_basis(3)`` the
Gell-Mann set in the order lambda^1..lambda^8.  ``bloch_decompose(rho, d_a,
d_b)`` and ``bloch_compose(c, d_a, d_b)`` give the Bloch matrix of a
bipartite operator in the generators' product basis.

The generators satisfy Tr g^i = 0 and Tr g^i g^j = 2 delta_ij.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatchError, as_bipartite, require_hermitian, require_integer


# For d = 3 the block ordering (symmetric, antisymmetric, diagonal) is
# permuted into the conventional Gell-Mann order lambda^1..lambda^8.
_GELL_MANN_PERMUTATION = (0, 3, 6, 1, 4, 2, 5, 7)


def generalized_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann generators for dimension ``d``, as one
    (d^2 - 1, d, d) complex array.

    Ordering: d(d-1)/2 symmetric pair matrices in lexicographic (j, k) order,
    then the antisymmetric pairs, then d-1 diagonal matrices -- except d = 3,
    which is permuted to the conventional Gell-Mann order.  Reduces to the
    Pauli set for d = 2.
    """
    require_integer("d", d, 2)
    n = d * (d - 1) // 2
    g = np.zeros((d * d - 1, d, d), dtype=complex)
    i, (j, k) = np.arange(n), np.triu_indices(d, 1)
    g[i, j, k] = g[i, k, j] = 1
    g[n + i, j, k], g[n + i, k, j] = -1j, 1j
    # diagonal generator l: sqrt(2/(l(l+1))) (1, .., 1, -l, 0, ..)
    l = np.arange(1, d)
    diag = np.tri(d - 1, d)
    diag[l - 1, l] = -l
    g[2 * n:, np.arange(d), np.arange(d)] = np.sqrt(2 / (l * (l + 1)))[:, None] * diag
    return g[list(_GELL_MANN_PERMUTATION)] if d == 3 else g


def _weyl_operators(d: int) -> np.ndarray:
    """The d^2 Weyl operators W_kl = X^k Z^l, with shift X|j> = |j+1 mod d>
    and clock Z|j> = w^j |j>, w = exp(2 pi i / d), as a (d^2, d, d) array
    with W_kl at k d + l: X at d and Z at 1 generate them up to phases."""
    k, l, j = np.indices((d, d, d))
    w = np.zeros((d, d, d, d), dtype=complex)
    w[k, l, (j + k) % d, j] = np.exp(2j * np.pi * (l * j % d) / d)
    return w.reshape(d * d, d, d)


def _with_identity(d: int) -> np.ndarray:
    """The (d^2, d, d) stack g^0 = 1 followed by :func:`generalized_basis`."""
    return np.concatenate([np.eye(d, dtype=complex)[None], generalized_basis(d)])


def bloch_decompose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Bloch matrix of a Hermitian operator on C^d_a (x) C^d_b: the real
    (d_a^2, d_b^2) array C with rho = (1/(d_a d_b)) sum_ij C_ij g^i x g^j,
    g^0 = 1 and g^1.. the :func:`generalized_basis` generators.

    C_00 = Tr rho, and the blocks a = C[1:, 0], b = C[0, 1:] and c = C[1:, 1:]
    are a_i = (d_a/2) Tr(rho g^i x 1), b_j = (d_b/2) Tr(rho 1 x g^j) and
    c_ij = (d_a d_b / 4) Tr(rho g^i x g^j).  :func:`bloch_compose` is the
    exact inverse.  Both take integer dimensions d_a, d_b >= 2.
    """
    r4 = require_hermitian(as_bipartite(rho, d_a, d_b)).reshape(d_a, d_b, d_a, d_b)
    # scaled so that Tr(ga^i g^j) = d_a delta_ij, the same for gb
    ga, gb = _with_identity(d_a), _with_identity(d_b)
    ga[1:] *= d_a / 2
    gb[1:] *= d_b / 2
    # Tr(rho ga^i x gb^j) = sum rho[(a,c),(b,d)] ga^i[b,a] gb^j[d,c]
    return np.einsum("acbd,iba,jdc->ij", r4, ga, gb, optimize=True).real


def bloch_compose(c: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Rebuild the matrix from its Bloch matrix (inverse of decompose)."""
    require_integer("d_a", d_a, 2)
    require_integer("d_b", d_b, 2)
    c = np.asarray(c)
    if c.shape != (d_a**2, d_b**2):
        raise DimensionMismatchError(f"Bloch matrix shape {c.shape} != (d_a^2, d_b^2) = {(d_a**2, d_b**2)}")
    r4 = np.einsum("ij,iab,jcd->acbd", c, _with_identity(d_a), _with_identity(d_b), optimize=True)
    return r4.reshape(d_a * d_b, d_a * d_b) / (d_a * d_b)
