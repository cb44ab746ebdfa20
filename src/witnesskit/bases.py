"""Operator bases for qudits: the generalized Gell-Mann generators of
SU(d), held as one (d^2 - 1, d, d) array, plus Bloch-style coefficient
decompositions.  ``generalized_basis(2)`` is the Pauli set and
``generalized_basis(3)`` the Gell-Mann set in the order lambda^1..lambda^8.

The generators satisfy Tr g^i = 0 and Tr g^i g^j = 2 delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TAU_EIG, TAU_HERM, DimensionMismatchError


@dataclass(frozen=True)
class BasisSet:
    """Ordered family of d^2 - 1 traceless orthogonal Hermitian generators,
    stacked as a (d^2 - 1, d, d) array; a sequence of matrices is coerced."""

    d: int
    generators: np.ndarray

    def __post_init__(self):
        n = self.d**2 - 1
        g = np.asarray(self.generators, dtype=complex)
        if g.shape != (n, self.d, self.d):
            raise ValueError(f"expected {n} generators of shape ({self.d}, {self.d})")
        object.__setattr__(self, "generators", g)

    def validate(self):
        """Check tracelessness and Tr g^i g^j = 2 delta_ij."""
        g = self.generators
        bad = np.flatnonzero(np.abs(np.einsum("iaa->i", g)) > TAU_HERM)
        if len(bad):
            raise ValueError(f"generator {bad[0]} is not traceless")
        gram = np.einsum("iab,jab->ij", g.conj(), g, optimize=True).real
        if not np.max(np.abs(gram - 2 * np.eye(len(g)))) <= TAU_EIG:  # NaN fails too
            raise ValueError("generators are not orthogonal with Tr g^i g^j = 2 delta_ij")


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


def generalized_basis(d: int) -> BasisSet:
    """Generalized Gell-Mann generators for dimension ``d``.

    Ordering: d(d-1)/2 symmetric pair matrices in lexicographic (j, k) order,
    then the antisymmetric pairs, then d-1 diagonal matrices -- except d = 3,
    which is permuted to the conventional Gell-Mann order.  Reduces to the
    Pauli set for d = 2.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
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
    basis = BasisSet(d, tuple(gens))
    basis.validate()
    return basis


def bloch_decompose(rho: np.ndarray, basis_a: BasisSet, basis_b: BasisSet) -> BlochVector:
    """Expand a bipartite operator, given as a matrix, in the product
    generator basis.

    Normalization: a_i = (d_a/2) Tr(rho g^i x 1), b_i = (d_b/2) Tr(rho 1 x g^i),
    c_ij = (d_a d_b / 4) Tr(rho g^i x g^j), the exact inverse of
    :func:`bloch_compose`.  Coefficients with a non-negligible imaginary part
    signal a non-Hermitian input and raise.
    """
    rho = np.asarray(rho, dtype=complex)
    da, db = basis_a.d, basis_b.d
    if rho.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"state dim {rho.shape} incompatible with bases d_a={da}, d_b={db}"
        )
    r4 = rho.reshape(da, db, da, db)
    ga, gb = basis_a.generators, basis_b.generators
    # Tr(rho g^i x 1) = sum_{a,b,c} rho[(a,c),(b,c)] g[b,a]
    a = (da / 2) * np.einsum("acbc,iba->i", r4, ga)
    b = (db / 2) * np.einsum("acad,jdc->j", r4, gb)
    c = (da * db / 4) * np.einsum("acbd,iba,jdc->ij", r4, ga, gb, optimize=True)
    for name, arr in (("a", a), ("b", b), ("c", c)):
        if np.max(np.abs(arr.imag)) > TAU_HERM:
            raise ValueError(
                f"non-real Bloch coefficients in {name}: input is not Hermitian"
            )
    return BlochVector(a.real, b.real, c.real)


def bloch_compose(v: BlochVector, basis_a: BasisSet, basis_b: BasisSet) -> np.ndarray:
    """Rebuild the matrix from its Bloch coefficients (inverse of decompose)."""
    da, db = basis_a.d, basis_b.d
    n_a, n_b = da**2 - 1, db**2 - 1
    if v.a.shape != (n_a,) or v.b.shape != (n_b,) or v.c.shape != (n_a, n_b):
        raise DimensionMismatchError("Bloch coefficient lengths do not match the bases")
    ga, gb = basis_a.generators, basis_b.generators
    r4 = np.einsum("ab,cd->acbd", np.eye(da, dtype=complex), np.eye(db, dtype=complex))
    r4 = r4 + np.einsum("i,iab,cd->acbd", v.a, ga, np.eye(db))
    r4 = r4 + np.einsum("j,ab,jcd->acbd", v.b, np.eye(da), gb)
    r4 = r4 + np.einsum("ij,iab,jcd->acbd", v.c, ga, gb)
    return r4.reshape(da * db, da * db) / (da * db)
