"""Entanglement witnesses: the tangent-plane candidate built from a
(guess, entangled-state) pair, global minimization of an observable over
product states (batched multistart alternating eigenvector steps with a
damped Riemannian Newton step on the product of spheres), the closed-form
optimal witnesses for isotropic states, the CHSH operator and its exact
maximum over settings (the Horodecki criterion).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bases import bloch_decompose, pauli_basis
from .linalg import TAU_EIG, DimensionMismatchError, hs_inner, hs_norm, require_hermitian
from .states import DensityMatrix, IsotropicParams, gamma_operator

# Sign-decision tolerance for witness checks; looser than the linear-algebra
# tolerances because sep_minimum comes from an iterative solver.
TAU_WIT = 1e-7


class SolverError(RuntimeError):
    """Product-state minimization did not converge; carries the best value."""

    def __init__(self, message, best_value, iterations):
        super().__init__(message)
        self.best_value = best_value
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    """Settings for ``min_over_separable``: random starts, iterations per
    start (an alternating step and a Newton step each), the convergence
    tolerance on the value, and the seed of the random starts."""

    n_starts: int = 32
    max_iters: int = 500
    tol_conv: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        check_settings(self, (("n_starts", 1), ("max_iters", 1), ("seed", 0)), ("tol_conv",))


def check_settings(config, integers, positive_finite):
    """Raise ValueError unless each setting of ``config`` named in ``integers``
    is an integer >= its bound and each named in ``positive_finite`` is a
    positive finite number."""
    for name, low in integers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    for name in positive_finite:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of ``verify_nearest_separable``: <target, A>, the minimum of
    <A> over product states, and whether A is a witness and an optimal one."""

    ent_expectation: float
    sep_minimum: float
    is_witness: bool
    is_optimal: bool


def witness_candidate(guess: DensityMatrix, target: DensityMatrix) -> np.ndarray:
    """The witness operator of a guess: the normalized tangent-plane operator
    A = (guess - target - <guess, guess - target> 1) / ||guess - target||.

    Its expectation vanishes on ``guess`` and equals -||guess - target|| on
    ``target``; it is an entanglement witness exactly when ``guess`` is the
    nearest separable state.
    """
    if guess.dim != target.dim:
        raise DimensionMismatchError("guess and target dimensions differ")
    diff = guess.matrix - target.matrix
    norm = hs_norm(diff)
    if norm <= TAU_EIG:
        raise ValueError("guess equals target; witness direction is undefined")
    overlap = hs_inner(guess.matrix, diff).real
    return (diff - overlap * np.eye(guess.dim)) / norm


def min_over_separable(
    a,
    d_a: int,
    d_b: int,
    cfg: SolverConfig = SolverConfig(),
    extra_starts=(),
    *,
    every_start: bool = False,
):
    """Global minimum of <psi x phi| a |psi x phi> over unit vectors.

    By linearity this is the minimum of <rho, a> over all separable rho,
    attained at a pure product state.  All starts run as stacked arrays.
    Each iteration takes one alternating step (for fixed phi the optimal psi
    is the minimal eigenvector of the contracted d_a x d_a operator, and
    symmetrically), then a damped Newton step (``_newton_step``) proposes
    where the next one starts; it crosses the flat valleys where alternating
    steps crawl.  A proposal that would raise the value is dropped for a
    plain alternating step.  A start has converged once a step lowers its
    value by less than ``cfg.tol_conv``, if that step began at a proposal
    or the Newton model predicts no larger decrease.  Starts still running
    when ``cfg.max_iters`` runs out take part with the value they reached;
    if none has converged, ``SolverError`` carries the best value seen.

    Returns ``(value, (psi, phi))``, the value being the Rayleigh value of
    the returned unit vectors.  ``extra_starts`` may supply additional
    initial phi vectors (e.g. warm starts).  With ``every_start`` it returns
    the endpoints of all starts instead, sorted by value, as
    ``(values, (psis, phis))``; row 0 is the minimizer above.
    """
    m = require_hermitian(a)
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatchError(f"operator dim {m.shape[0]} != {d_a * d_b}")
    a4 = m.reshape(d_a, d_b, d_a, d_b)
    z = np.random.default_rng(cfg.seed).standard_normal((cfg.n_starts, 2, d_b))
    phi = np.concatenate([np.reshape(np.asarray(extra_starts, dtype=complex), (-1, d_b)),
                          z[:, 0] + 1j * z[:, 1]])
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    psi = np.empty((len(phi), d_a), dtype=complex)
    value = np.full(len(phi), np.inf)
    start = phi.copy()  # where each start's next psi half-step begins
    plain = np.ones(len(phi), dtype=bool)  # start is phi, not a Newton proposal
    length = np.ones(len(phi))  # scale of the next Newton step
    running = np.ones(len(phi), dtype=bool)
    for _ in range(cfg.max_iters):
        act = np.flatnonzero(running)
        q = _lowest(np.einsum("ikjl,sk,sl->sij", a4, start[act].conj(), start[act]))[1]
        w, p = _lowest(np.einsum("ikjl,si,sj->skl", a4, q.conj(), q))
        ok = plain[act] | (w < value[act])
        length[act] = np.where(plain[act], length[act],
                               np.where(ok, np.minimum(2 * length[act], 1), length[act] / 4))
        moved = act[ok]
        decrease = value[moved] - w[ok]
        psi[moved], phi[moved], value[moved] = q[ok], p[ok], w[ok]
        proposal, predicted = _newton_step(m, psi[moved], phi[moved], value[moved], length[moved])
        done = (decrease < cfg.tol_conv) & ((predicted < cfg.tol_conv) | ~plain[moved])
        running[moved[done]] = False
        start[act], plain[act] = phi[act], True
        start[moved[~done]], plain[moved[~done]] = proposal[~done], False
        if not running.any():
            break
    if running.all():
        raise SolverError(
            f"product-state solver did not converge in {cfg.max_iters} iterations",
            best_value=float(value.min()),
            iterations=cfg.max_iters,
        )
    if every_start:
        order = np.argsort(value, kind="stable")
        return value[order], (psi[order], phi[order])
    k = int(np.argmin(value))
    return float(value[k]), (psi[k], phi[k])


def _lowest(ops):
    """Lowest eigenvalue and unit eigenvector of each stacked Hermitian matrix."""
    w, v = np.linalg.eigh(ops)
    return w[:, 0], v[:, :, 0]


def _complement(v):
    """Orthonormal bases of the complements of the stacked unit vectors ``v``:
    the last columns of the Householder reflection taking e_1 to v's ray."""
    h = v * np.exp(-1j * np.angle(v[:, :1]))
    h[:, 0] += 1
    return np.eye(v.shape[1])[:, 1:] - h[:, :, None] * h[:, None, 1:].conj() / h[:, :1, None].real


def _second_order(a, psi, phi, value):
    """Riemannian gradient and Hessian at each start: ``(grad, hess, pa, pb)``.

    With pa, pb orthonormal bases of the complements of {psi, i psi} and
    {phi, i phi}, the quotient at normalized (psi + pa u, phi + pb v) is
    g + 2 Re(r^H w) + w^H (J^H a J - g) w + 2 Re(u^T pa^T conj(Y) pb v) to
    second order, with w = (u, v), J = [pa x phi, psi x pb], r = J^H a
    |psi phi> and Y the d_a x d_b reshape of a |psi phi>.  ``grad`` and
    ``hess`` refer to the real coordinates (Re w, Im w).
    """
    n, d_a, d_b = len(psi), psi.shape[1], phi.shape[1]
    na, nb, dim = d_a - 1, d_b - 1, d_a * d_b
    pa, pb = _complement(psi), _complement(phi)
    y = np.einsum("ikjl,sj,sl->sik", a.reshape(d_a, d_b, d_a, d_b), psi, phi)
    jac = np.concatenate([(pa[:, :, None, :] * phi[:, None, :, None]).reshape(n, dim, na),
                          (psi[:, :, None, None] * pb[:, None, :, :]).reshape(n, dim, nb)],
                         axis=2)
    jh = jac.conj().transpose(0, 2, 1)
    r = (jh @ y.reshape(n, dim, 1))[:, :, 0]
    k = jh @ (a @ jac) - value[:, None, None] * np.eye(na + nb)
    c = np.zeros_like(k)
    c[:, :na, na:] = pa.transpose(0, 2, 1) @ y.conj() @ pb
    c[:, na:, :na] = c[:, :na, na:].transpose(0, 2, 1)
    # w^H k w + Re(w^T c w) for w = p + i q is a real quadratic form in (p, q)
    plus, minus = 2 * (k + c), 2 * (k - c)
    hess = np.concatenate([np.concatenate([plus.real, -plus.imag], axis=2),
                           np.concatenate([minus.imag, minus.real], axis=2)], axis=1)
    return 2 * np.concatenate([r.real, r.imag], axis=1), hess, pa, pb


def _newton_step(a, psi, phi, value, length):
    """Damped Newton step for each start: the proposed phi (the phi part of
    the step, scaled by ``length``) and the decrease the model predicts.

    The Hessian is shifted by max(0, -lowest eigenvalue) + |gradient|
    (Levenberg-Marquardt), so that no step heads for a saddle point and the
    system stays regular along orbits of minimizers, where it is singular.
    """
    grad, hess, _, pb = _second_order(a, psi, phi, value)
    lowest = np.linalg.eigvalsh(hess)
    # the last term keeps the shift above rounding error in hess
    mu = (np.maximum(-lowest[:, 0], 0) + np.linalg.norm(grad, axis=1)
          + 1e-12 * np.abs(lowest).max(axis=1))
    mu[mu == 0] = 1.0
    x = -np.linalg.solve(hess + mu[:, None, None] * np.eye(grad.shape[1]), grad[..., None])[..., 0]
    predicted = 0.5 * (mu * np.einsum("si,si->s", x, x) - np.einsum("si,si->s", grad, x))
    na, nb = psi.shape[1] - 1, phi.shape[1] - 1
    v = x[:, na:na + nb] + 1j * x[:, 2 * na + nb:]
    proposal = phi + length[:, None] * (pb @ v[:, :, None])[:, :, 0]
    return proposal / np.linalg.norm(proposal, axis=1, keepdims=True), predicted


def verify_nearest_separable(
    guess: DensityMatrix,
    target: DensityMatrix,
    cfg: SolverConfig = SolverConfig(),
) -> WitnessReport:
    """Check a guess for the nearest separable state.

    The guess is certified (within solver confidence) exactly when the
    candidate operator is an entanglement witness: negative on the target
    and non-negative on every product state.
    """
    op = witness_candidate(guess, target)
    ent = hs_inner(target.matrix, op).real
    sep_min, _ = min_over_separable(op, target.d_a, target.d_b, cfg)
    is_witness = ent < -TAU_WIT and sep_min >= -TAU_WIT
    return WitnessReport(ent, sep_min, is_witness, is_witness and abs(sep_min) <= TAU_WIT)


def optimal_witness_isotropic(d: int, alpha: float) -> np.ndarray:
    """Closed-form optimal witness for an entangled isotropic state:
    (d-1)/(d sqrt(d^2-1)) (1 - d/(2(d-1)) Gamma).

    The operator itself is alpha-independent; alpha only gates the entangled
    regime alpha > 1/(d+1).
    """
    IsotropicParams(d, alpha).entangled()
    gamma = gamma_operator(d)
    pref = (d - 1) / (d * np.sqrt(d**2 - 1))
    return pref * (np.eye(d * d) - d / (2 * (d - 1)) * gamma)


def _dot_sigma(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    sx, sy, sz = pauli_basis().generators
    return v[0] * sx + v[1] * sy + v[2] * sz


def chsh_operator(a, a_p, b, b_p) -> np.ndarray:
    """CHSH operator a.sigma x (b+b').sigma + a'.sigma x (b-b').sigma for
    unit vectors in R^3; the inequality reads <rho, 2*1 - B> >= 0."""
    for v in (a, a_p, b, b_p):
        if abs(np.linalg.norm(np.asarray(v, dtype=float)) - 1) > TAU_EIG:
            raise ValueError("CHSH settings must be unit vectors")
    b = np.asarray(b, dtype=float)
    b_p = np.asarray(b_p, dtype=float)
    return np.kron(_dot_sigma(a), _dot_sigma(b + b_p)) + np.kron(
        _dot_sigma(a_p), _dot_sigma(b - b_p)
    )


def chsh_max_violation(rho: DensityMatrix) -> float:
    """Maximum of Tr(rho B) over the four CHSH settings, by the Horodecki
    criterion (R., P. & M. Horodecki, Phys. Lett. A 200, 340 (1995)):
    2 sqrt(m1 + m2), with m1 >= m2 the two largest eigenvalues of T^T T and
    T the correlation matrix T_ij = Tr(rho sigma^i x sigma^j).
    """
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatchError("CHSH scan requires a two-qubit state")
    p = pauli_basis()
    t = bloch_decompose(rho, p, p).c  # c_ij = Tr(rho sigma^i x sigma^j) for qubits
    s = np.linalg.svd(t, compute_uv=False)  # s_i^2 are the eigenvalues of T^T T
    return float(2 * np.hypot(s[0], s[1]))
