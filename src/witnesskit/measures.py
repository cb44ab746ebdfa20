"""Hilbert-Schmidt distance machinery: closed forms for isotropic states,
a projection onto the separable set by one Wolfe nearest-point loop (its
iterate a weighted set of product states that starts empty, its major
cycle the product-state oracle, whose cold first call runs
max(``n_starts``, 32) starts and each later call ``n_starts`` plus a warm
start, and whose endpoints from every start may all enter, its minor
cycle an exact weight step on the atoms' Gram matrix), the generalized
Bell inequality violation and the distance-equals-violation equality
check.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .linalg import TAU_EIG, hs_inner, hs_norm, require_integer
from .states import DensityMatrix, IsotropicParams, ProductEnsemble, product_mixture
from .witness import SolverConfig, min_over_separable, witness_candidate

#: Frank-Wolfe iterations before the projection gives up with ProjectionError
MAX_OUTER_ITERS = 5000
#: B's product-state search in ``bnt_report`` runs ``SolverConfig``'s default
#: starts from the projection's seed plus this offset, so it does not repeat
#: the projection's last oracle call
VIOLATION_SEED_OFFSET = 12345


@dataclass(frozen=True)
class ProjectionConfig(SolverConfig):
    """Settings for the Frank-Wolfe projection onto the separable set: those
    of the product-state minimizer of its linear subproblem and a positive
    finite gap tolerance.  Each call after the first is warm-started and
    runs fewer random starts than the standalone default; the cold first
    call runs max(``n_starts``, ``SolverConfig.n_starts``), so that its
    endpoints sample the target's orbit of maximal-overlap product states."""

    n_starts: int = 8
    tol_gap: float = 1e-9

    def __post_init__(self):
        super().__post_init__()
        tol = self.tol_gap
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError(f"tol_gap must be a positive finite number, got {tol!r}")


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
    """Closed-form distance of an isotropic state to the separable set:
    sqrt(d^2-1)/d * (alpha - 1/(d+1)) above the threshold 1/(d+1), where the
    nearest separable state is the isotropic state at the threshold, and 0
    on or below it."""
    p = IsotropicParams(d, alpha)
    if p.separable:
        return 0.0
    return math.sqrt(int(d) ** 2 - 1) / d * (p.alpha - p.threshold)  # int(d): d^2 may exceed int64


def _gaps(gram: np.ndarray, lin: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Frank-Wolfe gap 2 (w.g - g_j) of every atom j, g = G w - c."""
    g = gram @ w - lin
    return 2 * (w @ g - g)


def _corrective_weights(gram: np.ndarray, lin: np.ndarray, w: np.ndarray, j: int) -> np.ndarray:
    """Minimizer of w^T G w - 2 c^T w, c = ``lin``, over the probability
    simplex by the minor cycle of Wolfe's nearest-point algorithm (Math.
    Programming 11, 1976).  ``w`` is optimal on the atoms with weight; atom
    ``j``, an oracle endpoint with weight 0, enters, and every other atom of
    weight 0 stays at 0.  The Frank-Wolfe loop is the major cycle.  Solve
    the KKT system [[G, 1], [1^T, 0]] on the atoms with weight and atom
    ``j`` by LU, or by least squares if LU fails or leaves a relative
    residual above 1e-10 (G is singular for affinely dependent atoms), and
    while a weight of its solution is < 0, step towards it up to the
    boundary, drop the atom that reaches 0 and solve again.  The result
    sums to 1."""
    w = w.astype(float)
    s = np.append(np.flatnonzero(w > 0), j)
    while True:
        kkt = np.ones((len(s) + 1, len(s) + 1))
        kkt[:-1, :-1] = gram[np.ix_(s, s)]
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

    The iterate holds pure product states x_i = psi_i (x) phi_i with
    weights w, at first none; the result's ``ProductEnsemble`` holds the
    last one.  With c_i = <x_i|target|x_i> and G_ij = |<x_i|x_j>|^2 =
    |<psi_i|psi_j>|^2 |<phi_i|phi_j>|^2 the squared distance is
    w^T G w - 2 c^T w plus a constant, and an atom's value under
    grad = 2 (rho - target) is <x_j|grad|x_j> = 2 g_j, g = G w - c.  Each
    step is a major cycle: the product-state oracle minimizes that value
    from every start, the cold first call from max(``cfg.n_starts``,
    ``SolverConfig.n_starts``) random ones, each later call from
    ``cfg.n_starts`` random ones and the last call's minimizer as a warm
    start.  Its endpoints join the atoms at weight 0, with
    c_j = (G w)_j - v_j / 2 read off their values v_j.  The gap
    2 (w.g - g_j) of the oracle's minimizer, clipped at 0, certifies the
    squared distance; once an atom has entered, the loop stops on it below
    ``cfg.tol_gap``, or at ``MAX_OUTER_ITERS``, before the weights move, so
    distance, ensemble and gap belong to one iterate.  Otherwise each
    endpoint, in order of value, whose gap is still >= ``cfg.tol_gap``
    enters, and so does the first cycle's minimizer: the minor cycle
    (``_corrective_weights``) re-optimizes the weights exactly and the gaps
    are recomputed.  The atoms left with weight > 0 are the next iterate.
    """
    d_a, d_b = target.d_a, target.d_b
    w, lin, psis, phis = np.empty(0), np.empty(0), np.empty((0, d_a)), np.empty((0, d_b))
    rho, v_phis = 0.0, phis  # the last call's minimizer is the warm start; none at first
    for it in itertools.count(1):
        k = len(w)
        call_cfg = cfg if k else replace(cfg, n_starts=max(cfg.n_starts, SolverConfig.n_starts))
        v_vals, v_psis, v_phis = min_over_separable(2 * (rho - target.matrix), d_a, d_b, call_cfg, v_phis[:1])
        psis, phis = np.vstack([psis, v_psis]), np.vstack([phis, v_phis])
        w = np.append(w, np.zeros(len(v_vals)))
        gram = np.abs(psis.conj() @ psis.T) ** 2 * np.abs(phis.conj() @ phis.T) ** 2
        lin = np.append(lin, gram[k:] @ w - v_vals / 2)  # v_j = <x_j|grad|x_j> = 2 (G w - c)_j
        gaps = _gaps(gram, lin, w)
        gap = gaps[k]
        if k and (gap < cfg.tol_gap or it >= MAX_OUTER_ITERS):
            break
        for j in range(k, len(w)):
            if gaps[j] >= cfg.tol_gap or j == 0:  # the empty iterate takes the best endpoint
                w = _corrective_weights(gram, lin, w, j)
                gaps = _gaps(gram, lin, w)
        keep = w > 0
        w, lin, psis, phis = w[keep], lin[keep], psis[keep], phis[keep]
        rho = product_mixture(w, psis, phis)

    result = MeasureResult(
        distance=hs_norm(rho - target.matrix),
        nearest=ProductEnsemble(w[:k], psis[:k], phis[:k]),  # without the last call's endpoints
        gap_certificate=max(float(gap), 0.0),
        iterations=it,
        converged=bool(gap < cfg.tol_gap),
    )
    if not result.converged:
        raise ProjectionError(
            f"projection gap {gap:.3e} above tolerance {cfg.tol_gap:.1e} after "
            f"{it} iterations",
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
    sep_min = float(min_over_separable(witness_op, target.d_a, target.d_b, cfg)[0][0])
    return sep_min - hs_inner(target.matrix, witness_op).real


def bnt_report(target: DensityMatrix, mr: MeasureResult, cfg: SolverConfig) -> BntReport:
    """Compare the projection's distance D with the maximal Bell-inequality
    violation B of the witness built at its nearest state.  B's search is
    its own: ``SolverConfig``'s starts, ``cfg.max_iters`` and the seed
    ``cfg.seed + VIOLATION_SEED_OFFSET``.  B = D - g / (2 D) for the gap g
    that search finds at the nearest state, so a D that the projection's
    oracle left too high shows in the discrepancy.  When D is at rounding
    level (``TAU_EIG``), as for a pure product target, or D^2 is within the
    gap certificate, which then cannot exclude D = 0, the difference to the
    target is no witness direction, and B = 0."""
    b = 0.0
    if mr.distance > TAU_EIG and mr.distance**2 > mr.gap_certificate:
        own = SolverConfig(max_iters=cfg.max_iters, seed=cfg.seed + VIOLATION_SEED_OFFSET)
        b = gbi_violation(target, witness_candidate(mr.nearest.to_density(), target), own)
    return BntReport(mr.distance, b, abs(mr.distance - b), mr)


def bnt_check(
    target: DensityMatrix, cfg: ProjectionConfig = ProjectionConfig()
) -> BntReport:
    """Project ``target`` onto the separable set and compare the distance
    with the maximal violation (``bnt_report``); the two agree for a
    converged run."""
    return bnt_report(target, nearest_separable(target, cfg), cfg)


def infinite_d_trend(alphas, d_max: int):
    """Tabulate (d, alpha, threshold, D) for d = 2..d_max.

    D is the closed-form distance in the entangled regime and 0 on or below
    the threshold; as d grows the threshold 1/(d+1) shrinks to zero and D
    approaches alpha.
    """
    require_integer("d_max", d_max, 2)
    return [(d, float(alpha), IsotropicParams(d, alpha).threshold, hs_measure_isotropic(d, alpha))
            for d in range(2, d_max + 1) for alpha in alphas]
