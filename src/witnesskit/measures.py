"""Hilbert-Schmidt distance machinery: closed forms for isotropic states,
a projection onto the separable set by one Wolfe nearest-point loop (its
major cycle the product-state oracle, its minor cycle an exact weight
step; ``nearest_separable`` and ``_corrective_weights`` say how), the
generalized Bell inequality violation and the distance-equals-violation
equality check.

The projection's atoms are twirled by a finite group of local unitaries
that fixes the target, found by one frame rule over the target and its
partial transpose ({1 (x) 1} if none is found).  The twirl keeps the
separable set, so the nearest separable state is invariant (Vollbrecht &
Werner, PRA 64, 062307 (2001)); only the Gram matrix and the iterate's
images change, and the invariant gradient lets the gap certify as before.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .bases import _weyl_operators
from .linalg import TAU_EIG, hs_inner, hs_norm, partial_transpose, require_integer
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
    weight 0 stays at 0.  The Frank-Wolfe loop is the major cycle.  On the
    atoms s with weight and atom ``j``, v = e_0 + P u, P = [-1^T; I],
    eliminates sum(v) = 1 through the first; solve H u = b, H = P^T G_ss P
    (H_ij = G_ij - G_0j - G_i0 + G_00), b_i = c_i - c_0 - G_i0 + G_00.  H is
    positive semidefinite, singular for affinely dependent atoms, so its
    diagonal is shifted by len(H) eps tr(H), about its LU's backward error,
    or, where rounding leaves tr(H) <= 0 (atom ``j`` nearly a copy of the
    one atom with weight), by len(H) eps 8 G_00; one solve serves every
    case.  While a weight of v is < 0, step towards it up to the boundary,
    drop the atom that reaches 0 and solve again.  The result sums to 1."""
    w = w.astype(float)
    s = np.append(np.flatnonzero(w > 0), j)
    while True:
        dg = gram[s[1:]][:, s] - gram[s[0], s]  # G_ij - G_0j
        h = dg[:, 1:] - dg[:, :1]
        h.flat[::len(h) + 1] += len(h) * np.finfo(float).eps * (max(h.trace(), 0) or 8 * gram[s[0], s[0]])
        u = np.linalg.solve(h, lin[s[1:]] - lin[s[0]] - dg[:, 0])
        v = np.concatenate(([1 - u.sum()], u))
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


def _local_group(target: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Stacked local unitaries (us, vs) of a finite group {u_g (x) v_g} that
    fixes ``target`` T, up to phases, by one rule over A = T with v = W* and
    A = T^Gamma with v = W, over the Weyl operators W (u (x) v fixes T^Gamma
    exactly when u (x) v* fixes T).  The candidates are {x W x^dag (x) v}:
    x = 1 first, {W (x) W*} (Bell-diagonal states) and {W (x) W} (Werner),
    then x = sqrt(d) times the d x d reshape of A's one eigenvector whose
    eigenvalue differs from the other d^2 - 1, which must coincide, if x is
    unitary.  The first candidate whose two generators (shift and clock)
    leave T unchanged to rounding, 64 eps d^2 per entry, is the group; else
    {1 (x) 1}.  The bound is at rounding level because c_i = <x_i|T|x_i>
    stands for <T(x_i), T>: an off-invariance would shift the gap as much."""
    d, m = target.d_a, target.matrix
    trivial = np.eye(d)[None], np.eye(target.d_b)[None]
    if target.d_b != d:
        return trivial
    w = _weyl_operators(d)
    pairs = ((m, w.conj()), (partial_transpose(m, d, d), w))
    candidates = [(w, v) for _, v in pairs]
    for a, v in pairs:
        vals, vecs = np.linalg.eigh(a)
        for e, rest in ((vecs[:, -1], vals[:-1]), (vecs[:, 0], vals[1:])):
            x = np.sqrt(d) * e.reshape(d, d)  # (x (x) 1)|phi+> = e
            if np.ptp(rest) <= TAU_EIG and np.abs(x @ x.conj().T - np.eye(d)).max() <= TAU_EIG:
                candidates.append((x @ w @ x.conj().T, v))
    tol = 64 * np.finfo(float).eps * d * d
    for us, vs in candidates:
        gens = [np.kron(us[i], vs[i]) for i in (1, d)]
        if all(np.abs(g @ m @ g.conj().T - m).max() <= tol for g in gens):
            return us, vs
    return trivial


def _images(us: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows u_g x_j of every u_g in ``us`` and row x_j, at g len(x) + j."""
    return (x @ us.transpose(0, 2, 1)).reshape(-1, x.shape[1])


def nearest_separable(
    target: DensityMatrix, cfg: ProjectionConfig = ProjectionConfig()
) -> MeasureResult:
    """Project a state onto the separable set by fully corrective
    Frank-Wolfe, which is Wolfe's nearest-point algorithm (Lacoste-Julien &
    Jaggi, NeurIPS 2015) over the pure product states.

    The iterate holds pure product states x_i = psi_i (x) phi_i with
    weights w, at first none, each standing for its twirl
    T(x_i) = mean_g U_g x_i U_g^dag over the target's local group
    {U_g = u_g (x) v_g} (``_local_group``; {1 (x) 1} when no group is
    found), so rho = sum_i w_i T(x_i); the result's ``ProductEnsemble``
    holds the last one as the k |G| images U_g x_i at weights w_i / |G|.
    With c_i = <x_i|target|x_i> and G_ij = <T(x_i), T(x_j)> =
    mean_g |<psi_i|u_g psi_j>|^2 |<phi_i|v_g phi_j>|^2 the squared distance
    is w^T G w - 2 c^T w plus a constant, and an atom's value under
    grad = 2 (rho - target) is <x_j|grad|x_j> = 2 g_j, g = G w - c, as
    target and rho are invariant.  Each
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
    (``_corrective_weights``) re-optimizes the weights exactly, one shifted
    solve per active set, and the gaps are recomputed.  The atoms left with
    weight > 0 are the next iterate.
    The gradient is invariant under the group, so the oracle's minimum over
    all product states is also its minimum over the twirled atoms, and the
    gap certifies against the whole separable set.
    """
    d_a, d_b = target.d_a, target.d_b
    us, vs = _local_group(target)
    n = len(us)
    w, lin, psis, phis = np.empty(0), np.empty(0), np.empty((0, d_a)), np.empty((0, d_b))
    rho, v_phis = 0.0, phis  # the last call's minimizer is the warm start; none at first
    for it in itertools.count(1):
        k = len(w)
        call_cfg = cfg if k else replace(cfg, n_starts=max(cfg.n_starts, SolverConfig.n_starts))
        v_vals, v_psis, v_phis = min_over_separable(2 * (rho - target.matrix), d_a, d_b, call_cfg, v_phis[:1])
        psis, phis = np.vstack([psis, v_psis]), np.vstack([phis, v_phis])
        w = np.append(w, np.zeros(len(v_vals)))
        # |G| products (K, d) x (d, K): one (K, d) x (d, K |G|) product is wide enough for OpenBLAS to thread
        gram = (np.abs(psis.conj() @ _images(us, psis).reshape(n, -1, d_a).transpose(0, 2, 1)) ** 2
                * np.abs(phis.conj() @ _images(vs, phis).reshape(n, -1, d_b).transpose(0, 2, 1)) ** 2).mean(0)
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
        ensemble = np.tile(w, n) / n, _images(us, psis), _images(vs, phis)
        rho = product_mixture(*ensemble)

    result = MeasureResult(
        distance=hs_norm(rho - target.matrix),
        nearest=ProductEnsemble(*ensemble),
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
