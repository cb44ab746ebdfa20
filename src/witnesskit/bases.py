"""Operator bases for qudits: the generalized Gell-Mann generators of
SU(d), which ``generalized_basis(d)`` returns as one (d^2 - 1, d, d) array,
and the Bloch matrix of a bipartite operator in their product basis.
``generalized_basis(2)`` is the Pauli set and ``generalized_basis(3)`` the
Gell-Mann set in the order lambda^1..lambda^8.  ``bloch_decompose(rho, d_a,
d_b)`` and ``bloch_compose(c, d_a, d_b)`` take the subsystem dimensions and
build both bases themselves.

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
    sym, anti, diag = [], [], []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1
            sym.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            anti.append(a)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1
        m[l, l] = -l
        diag.append(np.sqrt(2 / (l * (l + 1))) * m)
    gens = sym + anti + diag
    if d == 3:
        gens = [gens[i] for i in _GELL_MANN_PERMUTATION]
    return np.array(gens)


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
