"""Operator bases for qudits: the generalized Gell-Mann generators of
SU(d), which ``generalized_basis(d)`` returns as one (d^2 - 1, d, d) array,
and Bloch-style coefficient decompositions.  ``generalized_basis(2)`` is the
Pauli set and ``generalized_basis(3)`` the Gell-Mann set in the order
lambda^1..lambda^8.  ``bloch_decompose(rho, d_a, d_b)`` and ``bloch_compose``
take the subsystem dimensions and build both bases themselves.

The generators satisfy Tr g^i = 0 and Tr g^i g^j = 2 delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TAU_HERM, DimensionMismatchError, as_bipartite, require_integer


@dataclass(frozen=True)
class BlochVector:
    """Coefficients of a bipartite operator in a product generator basis.

    Stores the plain coefficients of
    rho = (1 / (d_a d_b)) (1 + a_i g^i x 1 + b_i 1 x g^i + c_ij g^i x g^j).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


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


def bloch_decompose(rho: np.ndarray, d_a: int, d_b: int) -> BlochVector:
    """Expand a bipartite operator on C^d_a (x) C^d_b, given as a matrix, in
    the product basis of :func:`generalized_basis` generators.

    Normalization: a_i = (d_a/2) Tr(rho g^i x 1), b_i = (d_b/2) Tr(rho 1 x g^i),
    c_ij = (d_a d_b / 4) Tr(rho g^i x g^j), the exact inverse of
    :func:`bloch_compose`.  Coefficients with a non-negligible imaginary part
    signal a non-Hermitian input and raise.
    """
    r4 = as_bipartite(rho, d_a, d_b).reshape(d_a, d_b, d_a, d_b)
    ga, gb = generalized_basis(d_a), generalized_basis(d_b)
    # Tr(rho g^i x 1) = sum_{a,b,c} rho[(a,c),(b,c)] g[b,a]
    a = (d_a / 2) * np.einsum("acbc,iba->i", r4, ga)
    b = (d_b / 2) * np.einsum("acad,jdc->j", r4, gb)
    c = (d_a * d_b / 4) * np.einsum("acbd,iba,jdc->ij", r4, ga, gb, optimize=True)
    for name, arr in (("a", a), ("b", b), ("c", c)):
        if np.max(np.abs(arr.imag)) > TAU_HERM:
            raise ValueError(
                f"non-real Bloch coefficients in {name}: input is not Hermitian"
            )
    return BlochVector(a.real, b.real, c.real)


def bloch_compose(v: BlochVector, d_a: int, d_b: int) -> np.ndarray:
    """Rebuild the matrix from its Bloch coefficients (inverse of decompose)."""
    ga, gb = generalized_basis(d_a), generalized_basis(d_b)
    n_a, n_b = len(ga), len(gb)
    if v.a.shape != (n_a,) or v.b.shape != (n_b,) or v.c.shape != (n_a, n_b):
        raise DimensionMismatchError("Bloch coefficient lengths do not match the bases")
    r4 = np.einsum("ab,cd->acbd", np.eye(d_a, dtype=complex), np.eye(d_b, dtype=complex))
    r4 = r4 + np.einsum("i,iab,cd->acbd", v.a, ga, np.eye(d_b))
    r4 = r4 + np.einsum("j,ab,jcd->acbd", v.b, np.eye(d_a), gb)
    r4 = r4 + np.einsum("ij,iab,jcd->acbd", v.c, ga, gb)
    return r4.reshape(d_a * d_b, d_a * d_b) / (d_a * d_b)
