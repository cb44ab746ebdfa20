"""Quantum states: validated density matrices, the maximally entangled
vector, isotropic families for any subsystem dimension, product ensembles,
and the PPT separability probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, generalized_basis
from .linalg import (
    TAU_EIG,
    TAU_HERM,
    TAU_PSD,
    as_matrix,
    hs_norm,
    partial_transpose,
    require_hermitian,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"


class GammaFormError(Exception):
    """The maximally-entangled expansion is not of the claimed
    sum_i c_i g^i x g^i form with c_i = +-1."""

    def __init__(self, d, i, j, coefficient):
        self.d = d
        self.i = i
        self.j = j
        self.coefficient = coefficient
        if i == j:
            msg = f"d={d}: diagonal coefficient c_{i} = {coefficient:.6g} is not +-1"
        else:
            msg = f"d={d}: cross term ({i},{j}) has coefficient {coefficient:.6g} != 0"
        super().__init__(msg)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state with known bipartite split (d_b = 1 for
    single-party states)."""

    matrix: np.ndarray
    d_a: int
    d_b: int = 1

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"need d_a, d_b >= 1, got d_a = {self.d_a}, d_b = {self.d_b}")
        m = require_hermitian(as_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.d_a * self.d_b:
            raise ValueError(
                f"matrix dim {m.shape[0]} != d_a*d_b = {self.d_a * self.d_b}"
            )
        tr = np.trace(m)
        if abs(tr - 1) > TAU_HERM:
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
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        lo = -1.0 / (self.d**2 - 1)
        if not (lo - 1e-15 <= self.alpha <= 1 + 1e-15):
            raise ValueError(
                f"alpha = {self.alpha} outside [{lo:.6g}, 1] for d = {self.d}"
            )

    @property
    def threshold(self) -> float:
        """Separability boundary 1/(d+1)."""
        return 1.0 / (self.d + 1)


@dataclass(frozen=True)
class ProductEnsemble:
    """Convex combination of pure product states: terms (p_k, psi_k, phi_k)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("ensemble needs at least one term")
        norm = []
        total = 0.0
        for p, psi, phi in self.terms:
            psi = np.asarray(psi, dtype=complex)
            phi = np.asarray(phi, dtype=complex)
            if not (-1e-15 <= p <= 1 + 1e-12):
                raise ValueError(f"weight {p} outside [0, 1]")
            for v in (psi, phi):
                if abs(np.linalg.norm(v) - 1) > TAU_EIG:
                    raise ValueError("ensemble vectors must have unit norm")
            total += p
            norm.append((float(p), psi, phi))
        if abs(total - 1) > TAU_HERM:
            raise ValueError(f"weights sum to {total:.12g}, expected 1")
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def d_a(self) -> int:
        return len(self.terms[0][1])

    @property
    def d_b(self) -> int:
        return len(self.terms[0][2])

    def to_matrix(self) -> np.ndarray:
        d = self.d_a * self.d_b
        rho = np.zeros((d, d), dtype=complex)
        for p, psi, phi in self.terms:
            x = np.kron(psi, phi)
            rho += p * np.outer(x, x.conj())
        return rho

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.to_matrix(), self.d_a, self.d_b)


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled vector (1/sqrt(d)) sum_i |i>|i> in C^(d^2)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
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


def isotropic_separability(d: int, alpha: float) -> str:
    """Classify an isotropic state: separable iff alpha <= 1/(d+1)."""
    p = IsotropicParams(d, alpha)
    return SEPARABLE if p.alpha <= p.threshold else ENTANGLED


def gamma_signs(d: int, basis: BasisSet | None = None) -> np.ndarray:
    """Sign vector c with d^2 |phi+><phi+| - 1 = (d/2) sum_i c_i g^i x g^i.

    Computed, not assumed: the expansion of the maximally entangled projector
    in the product generator basis is evaluated exactly, and any cross term
    or non-unit coefficient raises :class:`GammaFormError`.
    """
    if basis is None:
        basis = generalized_basis(d)
    v = max_entangled(d)
    m = d**2 * np.outer(v, v.conj()) - np.eye(d * d)
    # Gamma = (2/d) (d^2 P - 1); coefficient of g^i x g^j in Gamma is
    # <g^i x g^j, Gamma> / 4 since each product generator has norm^2 = 4.
    g = basis.stack()
    m4 = m.reshape(d, d, d, d)
    t = np.einsum("acbd,iba,jdc->ij", m4, g, g) / (2 * d)
    if np.max(np.abs(t.imag)) > TAU_EIG:
        idx = np.unravel_index(np.argmax(np.abs(t.imag)), t.shape)
        raise GammaFormError(d, idx[0], idx[1], complex(t[idx]))
    t = t.real
    bad = np.argwhere(np.abs(np.abs(t) - np.eye(d**2 - 1)) > TAU_EIG)
    if len(bad):
        i, j = bad[0]
        raise GammaFormError(d, i, j, t[i, j])
    return np.sign(np.diag(t)).astype(int)


def gamma_operator(d: int, basis: BasisSet | None = None) -> np.ndarray:
    """The correlation operator Gamma = sum_i c_i g^i x g^i."""
    if basis is None:
        basis = generalized_basis(d)
    signs = gamma_signs(d, basis)
    g = basis.stack()
    return np.einsum("i,iab,icd->acbd", signs.astype(complex), g, g).reshape(d * d, d * d)


def isotropic_gamma_form(d: int, alpha: float, basis: BasisSet | None = None) -> DensityMatrix:
    """Isotropic state built from its generator expansion
    (1/d^2)(1 + (d/2) alpha Gamma); equals :func:`isotropic` wherever the
    sign computation succeeds."""
    p = IsotropicParams(d, alpha)
    gamma = gamma_operator(d, basis)
    m = (np.eye(d * d) + (d / 2) * p.alpha * gamma) / d**2
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
    pt = partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    return bool(np.linalg.eigvalsh(pt)[0] >= -TAU_PSD)


def density_to_json(rho: DensityMatrix) -> dict:
    """JSON-ready dict {d_a, d_b, entries} with row-major [re, im] pairs."""
    entries = [[float(z.real), float(z.imag)] for z in rho.matrix.ravel()]
    return {"d_a": rho.d_a, "d_b": rho.d_b, "entries": entries}


def density_from_json(obj: dict) -> DensityMatrix:
    """Inverse of ``density_to_json``; raises ValueError on malformed input."""
    try:
        d_a, d_b = int(obj["d_a"]), int(obj["d_b"])
        entries = [complex(re, im) for re, im in obj["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("state JSON needs integer d_a, d_b and 'entries' as a list "
                         f"of [re, im] number pairs ({exc})") from exc
    dim = d_a * d_b
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    return DensityMatrix(np.array(entries).reshape(dim, dim), d_a, d_b)
