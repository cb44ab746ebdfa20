"""Dense complex-matrix kernel: Hilbert-Schmidt geometry, the Hermiticity
check and partial transposition.

Everything downstream (bases, states, witnesses, measures) is built on the
handful of primitives in this module.  Matrices are plain square complex
``numpy`` arrays; all functions are pure.
"""

from __future__ import annotations

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


def require_hermitian(a, tol: float = TAU_HERM) -> np.ndarray:
    m = as_matrix(a)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
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


def partial_transpose(rho, d_a: int, d_b: int, subsystem: str = "B") -> np.ndarray:
    """Partial transpose over one subsystem of a bipartite operator.

    ``rho`` acts on a (d_a * d_b)-dimensional space with the first tensor
    factor of size ``d_a``.  Applying the map twice gives back the input.
    """
    m = as_matrix(rho)
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} != d_a*d_b = {d_a * d_b}"
        )
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    r4 = m.reshape(d_a, d_b, d_a, d_b)
    if subsystem == "B":
        r4 = r4.transpose(0, 3, 2, 1)
    else:
        r4 = r4.transpose(2, 1, 0, 3)
    return r4.reshape(d_a * d_b, d_a * d_b)
