"""Hilbert-Schmidt distance machinery: closed forms for isotropic states,
a projection onto the separable set by one Wolfe nearest-point loop (its
major cycle is the product-state oracle, whose endpoints from every start
may all enter; its minor cycle an exact atom-space weight step solved by
LU), the generalized Bell inequality violation, and the
distance-equals-violation equality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import TAU_EIG, hs_inner, hs_norm
from .states import DensityMatrix, IsotropicParams, ProductEnsemble
from .witness import SolverConfig, check_settings, min_over_separable, witness_candidate

#: Frank-Wolfe iterations before the projection gives up with ProjectionError
MAX_OUTER_ITERS = 5000


@dataclass(frozen=True)
class ProjectionConfig:
    """Settings for the Frank-Wolfe projection onto the separable set: a
    positive finite gap tolerance and the product-state minimizer of its
    linear subproblem, which may be lighter than the standalone default
    because each call is warm-started."""

    tol_gap: float = 1e-9
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(n_starts=8))

    def __post_init__(self):
        check_settings(self, (), ("tol_gap",))


@dataclass(frozen=True)
class MeasureResult:
    distance: float
    nearest: ProductEnsemble
    gap_certificate: float
    iterations: int
    converged: bool = True


class ProjectionError(RuntimeError):
    """Projection ran out of iterations; carries the best result found."""

    def __init__(self, message, result: MeasureResult):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class BntReport:
    """Hilbert-Schmidt measure vs. maximal Bell-inequality violation."""

    d_value: float
    b_value: float
    discrepancy: float
    measure: MeasureResult


def hs_measure_isotropic(d: int, alpha: float) -> float:
    """Closed-form distance of an entangled isotropic state to the separable
    set: sqrt(d^2-1)/d * (alpha - 1/(d+1)); the nearest separable state is
    the isotropic state at the threshold."""
    p = IsotropicParams(d, alpha).entangled()
    return np.sqrt(d**2 - 1) / d * (p.alpha - p.threshold)


def isotropic_distance(d: int, alpha: float) -> float:
    """Distance of any isotropic state to the separable set (0 if separable)."""
    p = IsotropicParams(d, alpha)
    return hs_measure_isotropic(d, alpha) if p.alpha > p.threshold else 0.0


def _corrective_weights(gram: np.ndarray, lin: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimizer of w^T G w - 2 c^T w over the probability simplex by the
    minor cycle of Wolfe's nearest-point algorithm (Math. Programming 11,
    1976).  ``w`` is optimal on every atom but the last, an oracle endpoint,
    which enters with weight 0; the Frank-Wolfe loop is the major cycle.
    Solve the KKT system [[G, 1], [1^T, 0]] on the atoms with weight and the
    new one by LU, or by least squares if LU fails or leaves a relative
    residual above 1e-10 (G is singular for affinely dependent atoms), and
    while a weight of its solution is < 0, step towards it up to the
    boundary, drop the atom that reaches 0 and solve again.  The result sums
    to 1."""
    w = w.astype(float)
    s = np.append(np.flatnonzero(w[:-1] > 0), len(w) - 1)
    while True:
        kkt = np.pad(gram[np.ix_(s, s)], (0, 1), constant_values=1.0)
        kkt[-1, -1] = 0.0
        rhs = np.append(lin[s], 1.0)
        try:
            v = np.linalg.solve(kkt, rhs)
            singular = np.linalg.norm(kkt @ v - rhs) > 1e-10 * np.linalg.norm(rhs)
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            v = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        v = v[:-1]
        neg = v < 0
        if not neg.any():
            w[s] = v
            return w
        ratio = w[s][neg] / (w[s][neg] - v[neg])
        theta = ratio.min()
        if theta == 0:  # the new atom cannot lower the objective
            return w
        w[s] += theta * (v - w[s])
        w[s[neg][ratio == theta]] = 0.0
        s = np.flatnonzero(w > 0)


def nearest_separable(
    target: DensityMatrix, cfg: ProjectionConfig = ProjectionConfig()
) -> MeasureResult:
    """Project a state onto the separable set by fully corrective
    Frank-Wolfe, which is Wolfe's nearest-point algorithm (Lacoste-Julien &
    Jaggi, NeurIPS 2015) over the pure product states.

    The iterate is an explicit convex combination of pure product states
    x_i = psi_i (x) phi_i.  Each step is a major cycle: the product-state
    oracle (the witness-side solver) minimizes the linearized objective from
    every start; the gap of its minimizer certifies the squared distance and
    stops the loop below ``cfg.tol_gap``.  Otherwise each endpoint, in order
    of value, whose gap at the current iterate is still >= ``cfg.tol_gap``
    enters, and the minor cycle (``_corrective_weights``) re-optimizes the
    weights exactly: the squared distance is w^T G w - 2 c^T w plus a
    constant, with c_i = <x_i|target|x_i> and G_ij = |<x_i|x_j>|^2, which is
    |<psi_i|psi_j>|^2 |<phi_i|phi_j>|^2 and grows by one row per entering
    atom.  Atoms whose weight reaches 0 are dropped with their row.
    """
    d_a, d_b = target.d_a, target.d_b
    if 1 in (d_a, d_b):
        raise ValueError("projection needs a bipartite state")

    # initial atom: product state most aligned with the target
    value, (psi, phi) = min_over_separable(-target.matrix, d_a, d_b, cfg.solver)
    psis, phis, w = psi[None], phi[None], np.ones(1)
    gram, lin = np.ones((1, 1)), np.array([-value])
    last_phi = phi
    for it in range(1, MAX_OUTER_ITERS + 1):
        x = (psis[:, :, None] * phis[:, None, :]).reshape(len(w), -1)
        rho = (x.T * w) @ x.conj()
        grad = 2 * (rho - target.matrix)
        v_vals, (v_psis, v_phis) = min_over_separable(
            grad, d_a, d_b, cfg.solver, extra_starts=(last_phi,), every_start=True
        )
        last_phi = v_phis[0]
        gap = hs_inner(rho, grad).real - v_vals[0]
        if gap < cfg.tol_gap:
            break
        v_x = (v_psis[:, :, None] * v_phis[:, None, :]).reshape(len(v_vals), -1)
        v_lin = np.einsum("ka,ab,kb->k", v_x.conj(), target.matrix, v_x).real
        for psi, phi, c in zip(v_psis, v_phis, v_lin):
            row = np.abs(psis.conj() @ psi) ** 2 * np.abs(phis.conj() @ phi) ** 2
            # <rho, grad> - <x|grad|x> at the current iterate, grad being 2 (G w - c)
            if 2 * (w @ (gram @ w - lin) - (row @ w - c)) < cfg.tol_gap:
                continue
            gram = np.block([[gram, row[:, None]], [row, 1.0]])
            lin = np.append(lin, c)
            w = _corrective_weights(gram, lin, np.append(w, 0.0))
            keep = w > 0
            psis, phis = np.vstack([psis, psi])[keep], np.vstack([phis, phi])[keep]
            gram, lin, w = gram[np.ix_(keep, keep)], lin[keep], w[keep]

    ensemble = ProductEnsemble(tuple(zip(w, psis, phis)))
    result = MeasureResult(
        distance=hs_norm(ensemble.to_matrix() - target.matrix),
        nearest=ensemble,
        gap_certificate=float(gap),
        iterations=it,
        converged=bool(gap < cfg.tol_gap),
    )
    if not result.converged:
        raise ProjectionError(
            f"projection gap {gap:.3e} above tolerance {cfg.tol_gap:.1e} after "
            f"{MAX_OUTER_ITERS} iterations",
            result,
        )
    return result


def gbi_violation(
    target: DensityMatrix, witness_op, cfg: SolverConfig = SolverConfig()
) -> float:
    """Bell-inequality violation of ``target`` for a given witness:
    min over separable states of <rho, A> minus <target, A>.

    For the optimal witness this is the maximal violation, which equals the
    Hilbert-Schmidt measure.
    """
    sep_min, _ = min_over_separable(witness_op, target.d_a, target.d_b, cfg)
    return sep_min - hs_inner(target.matrix, witness_op).real


def bnt_report(target: DensityMatrix, mr: MeasureResult, cfg: SolverConfig) -> BntReport:
    """Compare the projection's distance D with the maximal Bell-inequality
    violation B of the witness built at its nearest state.  A nearest state
    within TAU_EIG of the target defines no witness direction: the target is
    separable, and B = 0."""
    b = 0.0
    if mr.distance > TAU_EIG:
        b = gbi_violation(target, witness_candidate(mr.nearest.to_density(), target), cfg)
    return BntReport(mr.distance, b, abs(mr.distance - b), mr)


def bnt_check(
    target: DensityMatrix, cfg: ProjectionConfig = ProjectionConfig()
) -> BntReport:
    """Project ``target`` onto the separable set and compare the distance
    with the maximal violation (``bnt_report``); the two agree for a
    converged run."""
    return bnt_report(target, nearest_separable(target, cfg), cfg.solver)


def infinite_d_trend(alphas, d_max: int):
    """Tabulate (d, alpha, threshold, D) for d = 2..d_max.

    D is the closed-form distance in the entangled regime and 0 on or below
    the threshold; as d grows the threshold 1/(d+1) shrinks to zero and D
    approaches alpha.
    """
    if d_max < 2:
        raise ValueError(f"need d_max >= 2, got {d_max}")
    return [(d, float(alpha), IsotropicParams(d, alpha).threshold, isotropic_distance(d, alpha))
            for d in range(2, d_max + 1) for alpha in alphas]
