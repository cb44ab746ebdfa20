"""Dense complex-matrix kernel: Hilbert-Schmidt geometry, the Hermiticity,
integer and bipartite-shape checks and partial transposition.

Everything downstream (bases, states, witnesses, measures) is built on the
handful of primitives in this module.  Matrices are plain square complex
``numpy`` arrays; all functions are pure.
"""

from __future__ import annotations

import numbers

import numpy as np

# Absolute entrywise tolerance for Hermiticity / trace checks.
TAU_HERM = 1e-10
# Relative tolerance for eigendecomposition residuals and round-trips.
TAU_EIG = 1e-9
# Eigenvalues this far below zero still count as zero for PSD checks.
TAU_PSD = 1e-9


class DimensionMismatchError(ValueError):
    """Operands have incompatible matrix dimensions."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_integer(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"need {name} >= {low}, got {value}")


def as_bipartite(a, d_a: int, d_b: int) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix on C^d_a (x) C^d_b, the
    dimensions being integers >= 2: a factor of dimension 1 is not bipartite."""
    require_integer("d_a", d_a, 2)
    require_integer("d_b", d_b, 2)
    m = as_matrix(a)
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatchError(f"matrix dim {m.shape[0]} != d_a*d_b = {d_a * d_b}")
    return m


def require_hermitian(a) -> np.ndarray:
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise ValueError(f"matrix has {np.count_nonzero(~np.isfinite(m))} non-finite (NaN or inf) entries")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > TAU_HERM:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {TAU_HERM:.1e})")
    return m


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt scalar product Tr(a† b)."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return complex(np.vdot(ma, mb))


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(Tr a† a)."""
    return float(np.linalg.norm(as_matrix(a)))


def partial_transpose(rho, d_a: int, d_b: int) -> np.ndarray:
    """Partial transpose over the second tensor factor of a bipartite operator.

    ``rho`` acts on a (d_a * d_b)-dimensional space with the first tensor
    factor of size ``d_a``.  Applying the map twice gives back the input.
    """
    m = as_bipartite(rho, d_a, d_b)
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
