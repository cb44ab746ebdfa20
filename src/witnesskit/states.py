"""Quantum states: validated density matrices, the maximally entangled
vector, isotropic families for any subsystem dimension, product ensembles
as stacked arrays, and the PPT separability probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import generalized_basis
from .linalg import (
    TAU_EIG,
    TAU_HERM,
    TAU_PSD,
    as_bipartite,
    hs_norm,
    partial_transpose,
    require_hermitian,
    require_integer,
)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state on C^d_a (x) C^d_b: Hermitian, unit trace
    and positive semidefinite."""

    matrix: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail as inf or nan
            m = require_hermitian(as_bipartite(self.matrix, self.d_a, self.d_b))
            tr = np.trace(m)
        object.__setattr__(self, "matrix", m)
        if not abs(tr - 1) <= TAU_HERM:
            raise ValueError(f"trace is {tr:.12g}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -TAU_PSD:
            raise ValueError(f"state is not positive semidefinite (min eigenvalue {w[0]:.3e})")

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


@dataclass(frozen=True)
class IsotropicParams:
    """Mixing parameter of an isotropic d x d state; positivity restricts
    alpha to [-1/(d^2-1), 1]."""

    d: int
    alpha: float

    def __post_init__(self):
        require_integer("d", self.d, 2)
        try:
            lo = -1.0 / (int(self.d) ** 2 - 1)
        except OverflowError:
            raise ValueError(f"d = {self.d} is too large: d^2 must fit in a float "
                             "(d below about 1.34e154)") from None
        if not (lo - 1e-15 <= self.alpha <= 1 + 1e-15):
            raise ValueError(
                f"alpha = {self.alpha} outside [{lo:.6g}, 1] for d = {self.d}"
            )

    @property
    def threshold(self) -> float:
        """Separability boundary 1/(d+1)."""
        return 1.0 / (self.d + 1)

    @property
    def separable(self) -> bool:
        """Whether the state is separable: alpha <= 1/(d+1)."""
        return self.alpha <= self.threshold


@dataclass(frozen=True)
class ProductEnsemble:
    """Convex combination sum_k w_k |psi_k phi_k><psi_k phi_k| of pure product
    states, held as stacked ``weights`` (k,), ``psis`` (k, d_a) and ``phis`` (k, d_b)."""

    weights: np.ndarray
    psis: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        psis = np.asarray(self.psis, dtype=complex)
        phis = np.asarray(self.phis, dtype=complex)
        if w.ndim != 1 or psis.ndim != 2 or phis.ndim != 2 or not len(w) == len(psis) == len(phis):
            raise ValueError(f"ensemble needs weights (k,), psis (k, d_a) and phis (k, d_b), got "
                             f"shapes {w.shape}, {psis.shape} and {phis.shape}")
        if not len(w):
            raise ValueError("ensemble needs at least one term")
        out = ~((-1e-15 <= w) & (w <= 1 + 1e-12))
        if out.any():
            raise ValueError(f"weight {w[out][0]} outside [0, 1]")
        for v in (psis, phis):
            if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1) <= TAU_EIG):  # NaN fails too
                raise ValueError("ensemble vectors must have unit norm")
        if abs(w.sum() - 1) > TAU_HERM:
            raise ValueError(f"weights sum to {w.sum():.12g}, expected 1")
        for name, value in (("weights", w), ("psis", psis), ("phis", phis)):
            object.__setattr__(self, name, value)

    @property
    def terms(self) -> tuple:
        """The (weight, psi, phi) triples, read-only."""
        return tuple(zip(self.weights, self.psis, self.phis))

    def to_matrix(self) -> np.ndarray:
        return product_mixture(self.weights, self.psis, self.phis)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.to_matrix(), self.psis.shape[1], self.phis.shape[1])


def product_mixture(weights: np.ndarray, psis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """sum_k w_k |psi_k phi_k><psi_k phi_k| of unchecked ``ProductEnsemble`` arrays."""
    x = (psis[:, :, None] * phis[:, None, :]).reshape(len(psis), -1)
    return (x.T * weights) @ x.conj()


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled vector (1/sqrt(d)) sum_i |i>|i> in C^(d^2)."""
    require_integer("d", d, 2)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return v


def isotropic(d: int, alpha: float) -> DensityMatrix:
    """Isotropic state: alpha-weighted maximally entangled projector mixed
    with white noise."""
    p = IsotropicParams(d, alpha)
    v = max_entangled(d)
    m = p.alpha * np.outer(v, v.conj()) + (1 - p.alpha) / d**2 * np.eye(d * d)
    return DensityMatrix(m, d, d)


def gamma_signs(d: int) -> np.ndarray:
    """Sign vector c with d^2 |phi+><phi+| - 1 = (d/2) sum_i c_i g^i x g^i over
    :func:`~witnesskit.bases.generalized_basis`: as <phi+|a x b|phi+> = Tr(a b^T)/d,
    c_i is the sign of Tr(g^i g^iT) = sum_ab (g^i_ab)^2, - on the antisymmetric g^i."""
    g = generalized_basis(d)
    return np.sign(np.einsum("iab,iab->i", g, g).real).astype(int)


def gamma_operator(d: int) -> np.ndarray:
    """The correlation operator Gamma = sum_i c_i g^i x g^i over the
    generalized Gell-Mann generators g^i, with the signs of :func:`gamma_signs`."""
    g = generalized_basis(d)
    return np.einsum("i,iab,icd->acbd", gamma_signs(d).astype(complex), g, g).reshape(d * d, d * d)


def isotropic_gamma_form(d: int, alpha: float) -> DensityMatrix:
    """Isotropic state built from its generator expansion
    (1/d^2)(1 + (d/2) alpha Gamma), Gamma being :func:`gamma_operator`;
    equals :func:`isotropic`."""
    p = IsotropicParams(d, alpha)
    m = (np.eye(d * d) + (d / 2) * p.alpha * gamma_operator(d)) / d**2
    return DensityMatrix(m, d, d)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase-fixed
    diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def twirl_invariance_check(rho: DensityMatrix, trials: int, seed: int = 0) -> float:
    """Max HS-norm deviation of rho under seeded random U x U* twirls.

    Near zero for isotropic states; typically order one for anything else.
    """
    if rho.d_a != rho.d_b:
        raise ValueError("twirl check needs equal subsystem dimensions")
    require_integer("trials", trials, 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = haar_unitary(rho.d_a, rng)
        w = np.kron(u, u.conj())
        dev = hs_norm(w @ rho.matrix @ w.conj().T - rho.matrix)
        worst = max(worst, dev)
    return worst


def is_ppt(rho: DensityMatrix) -> bool:
    """Positivity of the partial transpose; equivalent to separability for
    total dimension <= 6, necessary otherwise."""
    pt = partial_transpose(rho.matrix, rho.d_a, rho.d_b)
    return bool(np.linalg.eigvalsh(pt)[0] >= -TAU_PSD)


def density_to_json(rho: DensityMatrix) -> dict:
    """JSON-ready dict {d_a, d_b, entries} with row-major [re, im] pairs."""
    entries = [[float(z.real), float(z.imag)] for z in rho.matrix.ravel()]
    return {"d_a": int(rho.d_a), "d_b": int(rho.d_b), "entries": entries}


def density_from_json(obj: dict) -> DensityMatrix:
    """Inverse of ``density_to_json``; raises ValueError on malformed input."""
    try:
        d_a, d_b = obj["d_a"], obj["d_b"]
        require_integer("d_a", d_a, 2)
        require_integer("d_b", d_b, 2)
        entries = [complex(re, im) for re, im in obj["entries"]]
        if any(type(x) is bool for pair in obj["entries"] for x in pair):
            raise TypeError("an entry is a boolean")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError("state JSON needs integer d_a, d_b >= 2 and 'entries' as a list "
                         f"of [re, im] number pairs ({exc})") from exc
    dim = d_a * d_b
    if len(entries) != dim * dim:
        raise ValueError(f"got {len(entries)} entries, expected (d_a * d_b)^2")
    return DensityMatrix(np.array(entries).reshape(dim, dim), d_a, d_b)
