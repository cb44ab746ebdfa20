"""Entanglement witnesses: the tangent-plane candidate built from a
(guess, entangled-state) pair, global minimization of an observable over
product states (batched multistart alternating eigenvector steps with a
damped Riemannian Newton step on the product of spheres), the closed-form
optimal witnesses for isotropic states, the CHSH operator and its exact
maximum over settings (the Horodecki criterion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import bloch_decompose, generalized_basis
from .linalg import (TAU_EIG, DimensionMismatchError, as_bipartite, hs_inner, hs_norm,
                     require_hermitian, require_integer)
from .states import DensityMatrix, IsotropicParams, gamma_operator

# Sign-decision tolerance for witness checks; looser than the linear-algebra
# tolerances because sep_minimum comes from an iterative solver.
TAU_WIT = 1e-7


class SolverError(RuntimeError):
    """Product-state minimization did not converge; carries the best value."""

    def __init__(self, message, best_value):
        super().__init__(message)
        self.best_value = best_value


# Value decrease below which a start of ``min_over_separable`` has converged.
TOL_CONV = 1e-12
#: most random starts ``SolverConfig`` accepts; the solver allocates every
#: start's arrays at once
MAX_STARTS = 10**4


@dataclass(frozen=True)
class SolverConfig:
    """Settings for ``min_over_separable``: random starts, iterations per
    start (an alternating step and a Newton step each) and the seed of the
    random starts."""

    n_starts: int = 32
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_starts", 1), ("max_iters", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), low)
        if self.n_starts > MAX_STARTS:
            raise ValueError(f"need n_starts <= {MAX_STARTS}, got {self.n_starts}")


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
    if (guess.d_a, guess.d_b) != (target.d_a, target.d_b):
        raise DimensionMismatchError(f"guess is {guess.d_a} x {guess.d_b} but target is "
                                     f"{target.d_a} x {target.d_b}")
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
    value by less than ``TOL_CONV``, if that step began at a proposal
    or the Newton model predicts no larger decrease; it then leaves the
    stacked arrays.  Each start's endpoint depends on that start alone,
    not on the other starts.  Starts still running
    when ``cfg.max_iters`` runs out take part with the value they reached;
    if none has converged, ``SolverError`` carries the best value seen.

    Returns every start's endpoint as ``(values, psis, phis)``, one row per
    start (the extra starts, then ``cfg.n_starts`` random ones) in stable
    order of value: row 0 is the minimum and its minimizer, and each value
    is the Rayleigh value of its row's unit vectors.  ``extra_starts`` may
    supply initial phi vectors (e.g. warm starts), each of length d_b with a
    finite nonzero norm; other extra starts, dimensions below 2, and entries
    so large that the arithmetic overflows, raise ``ValueError``.
    """
    m = require_hermitian(as_bipartite(a, d_a, d_b))
    starts = np.asarray(extra_starts, dtype=complex)
    with np.errstate(all="ignore"):  # a norm that is not finite is rejected below
        norms = np.linalg.norm(starts, axis=-1)
    if len(starts) and (starts.shape[1:] != (d_b,) or not np.all((norms > 0) & (norms < np.inf))):
        raise ValueError(f"extra_starts must be vectors of length {d_b} with finite nonzero norm")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _multistart(m, d_a, d_b, cfg, starts.reshape(-1, d_b))
    except FloatingPointError as exc:
        raise ValueError(f"operator too large for the product-state solver ({exc})") from exc


def _multistart(m, d_a, d_b, cfg, extra_starts):
    """The endpoints ``(values, psis, phis)`` that ``min_over_separable``
    returns, row 0 the minimum, ``extra_starts`` being a (k, d_b) array.
    A start that stops writes its endpoint to its row and leaves the working
    arrays, so each iteration steps only the starts still running."""
    # a_ab[(i, j), (k, l)] = <i k|m|j l>: a half-step contracts m with phi
    # (psi) as the product of conj(phi) x phi (conj(psi) x psi) with a_ba
    # (a_ab), one row at a time, so that no row's rounding depends on the others
    a_ab = m.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    a_ba = a_ab.T
    z = np.random.default_rng(cfg.seed).standard_normal((cfg.n_starts, 2, d_b))
    phi = np.concatenate([extra_starts, z[:, 0] + 1j * z[:, 1]])
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    n = len(phi)
    values, psis, phis = np.empty(n), np.empty((n, d_a), dtype=complex), np.empty_like(phi)
    rows = np.arange(n)  # the output row of each running start
    psi, value = np.empty_like(psis), np.full(n, np.inf)
    start = phi  # where each start's next psi half-step begins
    plain = np.ones(n, dtype=bool)  # start is phi, not a Newton proposal
    length = np.ones(n)  # scale of the next Newton step
    for _ in range(cfg.max_iters):
        k = len(rows)
        # column 0 of each eigenvector stack is psi (phi), the rest span its complement
        outer = (start.conj()[:, :, None] * start[:, None, :]).reshape(k, 1, -1)
        va = np.linalg.eigh((outer @ a_ba).reshape(k, d_a, d_a))[1]
        outer = (va[:, :, 0].conj()[:, :, None] * va[:, None, :, 0]).reshape(k, 1, -1)
        w, vb = np.linalg.eigh((outer @ a_ab).reshape(k, d_b, d_b))
        w = w[:, 0]
        ok = plain | (w < value)  # the rows that take their step
        length = np.where(plain, length, np.where(ok, np.minimum(2 * length, 1), length / 4))
        decrease = value - w
        psi, phi = np.where(ok[:, None], va[:, :, 0], psi), np.where(ok[:, None], vb[:, :, 0], phi)
        value = np.where(ok, w, value)
        proposal, predicted = _newton_step(m, va, vb, length)
        done = ok & (decrease < TOL_CONV) & ((predicted < TOL_CONV) | ~plain)
        plain = ~ok
        if done.any():
            stop, keep = rows[done], ~done
            values[stop], psis[stop], phis[stop] = value[done], psi[done], phi[done]
            rows, value, psi, phi, plain, length, proposal = (
                x[keep] for x in (rows, value, psi, phi, plain, length, proposal))
            if not len(rows):
                break
        start = np.where(plain[:, None], phi, proposal)
    if len(rows) == n:
        raise SolverError(f"product-state solver did not converge in {cfg.max_iters} iterations",
                          float(value.min()))
    values[rows], psis[rows], phis[rows] = value, psi, phi
    order = np.argsort(values, kind="stable")
    return values[order], psis[order], phis[order]


def _second_order(a, va, vb):
    """Riemannian gradient and Hessian at each start: ``(grad, hess)``.

    Column 0 of each unitary ``va`` (``vb``) is psi (phi); its other columns
    pa (pb) are an orthonormal basis of the complement of {psi, i psi}
    ({phi, i phi}), any such basis serving.  The quotient at normalized
    (psi + pa u, phi + pb v) is
    g + 2 Re(r^H w) + w^H (J^H a J - g) w + 2 Re(u^T pa^T conj(Y) pb v) to
    second order, with g = <psi phi|a|psi phi> at this point, w = (u, v),
    J = [pa x phi, psi x pb], r = J^H a |psi phi> and Y the d_a x d_b
    reshape of a |psi phi>; ``grad`` and ``hess`` use (Re w, Im w).
    """
    n, d_a, d_b = len(va), va.shape[1], vb.shape[1]
    na, nb = d_a - 1, d_b - 1
    psi, phi, pa, pb = va[:, :, 0], vb[:, :, 0], va[:, :, 1:], vb[:, :, 1:]
    # the columns [|psi phi>, J]: va x phi holds |psi phi> and pa x phi
    cols = np.concatenate([va[:, :, None, :] * phi[:, None, :, None],
                           psi[:, :, None, None] * pb[:, None, :, :]], axis=3).reshape(n, d_a * d_b, -1)
    a_cols = a @ cols
    gram = cols.conj().transpose(0, 2, 1) @ a_cols  # row and column 0 hold <psi phi|a|psi phi> and r
    gram.reshape(n, -1)[:, ::na + nb + 2] -= gram[:, :1, 0].real.copy()  # the diagonal less g, in place
    r, k = gram[:, 1:, 0], gram[:, 1:, 1:]
    y = a_cols[:, :, 0].reshape(n, d_a, d_b)
    c = np.zeros_like(k)
    c[:, :na, na:] = pa.transpose(0, 2, 1) @ y.conj() @ pb
    c[:, na:, :na] = c[:, :na, na:].transpose(0, 2, 1)
    # w^H k w + Re(w^T c w) for w = p + i q is a real quadratic form in (p, q)
    plus, minus = 2 * (k + c), 2 * (k - c)
    hess = np.concatenate([np.concatenate([plus.real, -plus.imag], axis=2),
                           np.concatenate([minus.imag, minus.real], axis=2)], axis=1)
    return 2 * np.concatenate([r.real, r.imag], axis=1), hess


def _newton_step(a, va, vb, length):
    """Damped Newton step for each start, in the tangent bases of
    ``_second_order``: the proposed phi, phi + pb v with v the phi part of
    the step scaled by ``length``, and the decrease the model predicts.

    The Hessian is shifted by max(0, -lowest eigenvalue) + |gradient|
    (Levenberg-Marquardt), so that no step heads for a saddle point and the
    system stays regular along orbits of minimizers, where it is singular.
    The shift bounds the step's norm by 1, so the proposal, unnormalized,
    has squared norm 1 + |v|^2 in [1, 2]: the psi half-step from it keeps
    only eigenvectors, which a positive scale does not move.
    """
    grad, hess = _second_order(a, va, vb)
    lowest = np.linalg.eigvalsh(hess)
    # the last term keeps the shift above rounding error in hess (lowest is
    # ascending, so its largest magnitude is at one end)
    mu = (np.maximum(-lowest[:, 0], 0) + np.sqrt((grad * grad).sum(axis=1))
          + 1e-12 * np.maximum(-lowest[:, 0], lowest[:, -1]))
    mu[mu == 0] = 1.0
    hess.reshape(len(hess), -1)[:, ::hess.shape[1] + 1] += mu[:, None]  # the diagonal, in place
    x = -np.linalg.solve(hess, grad[..., None])[..., 0]
    predicted = 0.5 * (mu * np.einsum("si,si->s", x, x) - np.einsum("si,si->s", grad, x))
    na, nb = va.shape[1] - 1, vb.shape[1] - 1
    v = x[:, na:na + nb] + 1j * x[:, 2 * na + nb:]
    return vb[:, :, 0] + length[:, None] * (vb[:, :, 1:] @ v[:, :, None])[:, :, 0], predicted


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
    sep_min = float(min_over_separable(op, target.d_a, target.d_b, cfg)[0][0])
    is_witness = ent < -TAU_WIT and sep_min >= -TAU_WIT
    return WitnessReport(ent, sep_min, is_witness, is_witness and abs(sep_min) <= TAU_WIT)


def optimal_witness_isotropic(d: int, alpha: float) -> np.ndarray:
    """Closed-form optimal witness for an entangled isotropic state:
    (d-1)/(d sqrt(d^2-1)) (1 - d/(2(d-1)) Gamma).

    The operator itself is alpha-independent; alpha only gates the entangled
    regime alpha > 1/(d+1).
    """
    p = IsotropicParams(d, alpha)
    if p.separable:
        raise ValueError(f"alpha = {alpha} is in the separable regime "
                         f"(threshold {p.threshold:.6g})")
    gamma = gamma_operator(d)
    pref = (d - 1) / (d * np.sqrt(d**2 - 1))
    return pref * (np.eye(d * d) - d / (2 * (d - 1)) * gamma)


def chsh_operator(a, a_p, b, b_p) -> np.ndarray:
    """CHSH operator a.sigma x (b+b').sigma + a'.sigma x (b-b').sigma for
    unit vectors in R^3; the inequality reads <rho, 2*1 - B> >= 0."""
    v = np.array([a, a_p, b, b_p], dtype=float)
    if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1) <= TAU_EIG):
        raise ValueError("CHSH settings must be unit vectors")
    a, a_p, b, b_p = np.tensordot(v, generalized_basis(2), axes=1)
    return np.kron(a, b + b_p) + np.kron(a_p, b - b_p)


def chsh_max_violation(rho: DensityMatrix) -> float:
    """Maximum of Tr(rho B) over the four CHSH settings, by the Horodecki
    criterion (R., P. & M. Horodecki, Phys. Lett. A 200, 340 (1995)):
    2 sqrt(m1 + m2), with m1 >= m2 the two largest eigenvalues of T^T T and
    T the correlation matrix T_ij = Tr(rho sigma^i x sigma^j).
    """
    if rho.d_a != 2 or rho.d_b != 2:
        raise DimensionMismatchError("CHSH scan requires a two-qubit state")
    t = bloch_decompose(rho.matrix, 2, 2)[1:, 1:]  # c_ij = Tr(rho sigma^i x sigma^j) for qubits
    s = np.linalg.svd(t, compute_uv=False)  # s_i^2 are the eigenvalues of T^T T
    return float(2 * np.hypot(s[0], s[1]))
