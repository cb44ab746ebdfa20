import numpy as np
import pytest

from witnesskit.linalg import hs_inner, hs_norm
from witnesskit.measures import (
    ProjectionConfig,
    bnt_check,
    gbi_violation,
    hs_measure_isotropic,
    _corrective_weights,
    infinite_d_trend,
    nearest_separable,
)
from witnesskit.states import DensityMatrix, is_ppt, isotropic
from witnesskit.witness import SolverConfig, optimal_witness_isotropic


def test_hs_distance_isotropic_pair():
    # ||rho_a - rho_b|| = sqrt(d^2-1)/d |a - b|
    for d, a, b in [(2, 0.9, 0.3), (3, 1.0, 0.25)]:
        got = hs_norm(isotropic(d, a).matrix - isotropic(d, b).matrix)
        assert got == pytest.approx(np.sqrt(d**2 - 1) / d * abs(a - b))


def test_hs_distance_self_is_zero():
    rho = isotropic(3, 0.5)
    assert hs_norm(rho.matrix - rho.matrix) == 0.0


def test_hs_measure_isotropic_values():
    assert hs_measure_isotropic(2, 1.0) == pytest.approx(1 / np.sqrt(3))
    assert hs_measure_isotropic(3, 1.0) == pytest.approx(np.sqrt(2) / 2)
    assert hs_measure_isotropic(2, 0.8) == pytest.approx(np.sqrt(3) / 2 * (0.8 - 1 / 3))


def test_hs_measure_rejects_separable_regime():
    with pytest.raises(ValueError):
        hs_measure_isotropic(2, 1 / 3)
    with pytest.raises(ValueError):
        hs_measure_isotropic(4, 0.1)


def test_nearest_separable_qubit():
    res = nearest_separable(isotropic(2, 0.8))
    assert res.converged
    assert res.gap_certificate < 1e-9
    assert res.distance == pytest.approx(hs_measure_isotropic(2, 0.8), abs=1e-4)


def test_nearest_separable_of_separable_state():
    res = nearest_separable(isotropic(2, 0.2))
    assert res.distance <= 1e-4


def test_nearest_separable_qutrit_recovers_threshold_state():
    res = nearest_separable(isotropic(3, 1.0))
    assert res.distance == pytest.approx(np.sqrt(2) / 2, abs=5e-4)
    nearest = res.nearest.to_density()
    assert np.max(np.abs(nearest.matrix - isotropic(3, 0.25).matrix)) <= 1e-3


def test_nearest_ensemble_is_valid_convex_combination():
    res = nearest_separable(isotropic(2, 0.6))
    weights = [w for w, _, _ in res.nearest.terms]
    assert sum(weights) == pytest.approx(1.0)
    assert all(w > 0 for w in weights)


def test_gbi_violation_closed_form():
    for d, alpha in [(2, 0.9), (3, 0.7), (4, 0.5)]:
        a_opt = optimal_witness_isotropic(d, alpha)
        b = gbi_violation(isotropic(d, alpha), a_opt, SolverConfig(n_starts=16))
        assert b == pytest.approx(hs_measure_isotropic(d, alpha), abs=1e-6)


def test_gbi_violation_shift_invariant():
    # the violation is unchanged by A -> A + kappa * identity
    alpha = 0.8
    rho = isotropic(2, alpha)
    a_opt = optimal_witness_isotropic(2, alpha)
    cfg = SolverConfig(n_starts=16, seed=5)
    b0 = gbi_violation(rho, a_opt, cfg)
    b1 = gbi_violation(rho, a_opt + 0.41 * np.eye(4), cfg)
    assert b1 == pytest.approx(b0, abs=1e-8)


@pytest.mark.parametrize("d,alpha", [(2, 0.9), (3, 0.6)])
def test_bnt_check_distance_equals_violation(d, alpha):
    report = bnt_check(isotropic(d, alpha))
    closed = hs_measure_isotropic(d, alpha)
    assert report.d_value == pytest.approx(closed, abs=5e-4)
    assert report.discrepancy <= 5e-4


@pytest.mark.parametrize("tol_gap", [0.0, -1e-9, float("nan"), float("inf")])
def test_projection_config_rejects_non_positive_tol_gap(tol_gap):
    with pytest.raises(ValueError, match="tol_gap"):
        ProjectionConfig(tol_gap=tol_gap)


def test_bnt_check_reference_value():
    report = bnt_check(isotropic(2, 0.9))
    assert report.d_value == pytest.approx(np.sqrt(3) / 2 * (0.9 - 1 / 3), abs=5e-4)


def test_distance_upper_bounded_by_explicit_separable_state():
    # any separable state gives an upper bound on the measure; the threshold
    # state is the minimizer
    alpha = 0.7
    target = isotropic(3, alpha)
    upper = hs_norm(isotropic(3, 0.25).matrix - target.matrix)
    res = nearest_separable(target)
    assert res.distance <= upper + 1e-9
    assert upper == pytest.approx(hs_measure_isotropic(3, alpha), abs=1e-12)


def test_projection_gap_bounds_squared_distance_error():
    res = nearest_separable(isotropic(2, 0.95))
    true = hs_measure_isotropic(2, 0.95)
    assert res.distance**2 - true**2 <= res.gap_certificate + 1e-12


def test_projection_rejects_single_party_state():
    for d_a, d_b in [(4, 1), (1, 4)]:
        with pytest.raises(ValueError, match="bipartite"):
            nearest_separable(DensityMatrix(np.eye(4) / 4, d_a, d_b))


def _minor_cycle_case(seed, shift):
    # eight atoms on a 3-dimensional affine plane of R^6 (a singular Gram
    # matrix) and a target off the plane, so any interior weights on them are
    # optimal; a ninth atom is moved ``shift`` times the target's offset
    # from the plane, which lowers its gradient for shift > 0
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    atoms = rng.standard_normal(6) + rng.standard_normal((8, 3)) @ u[:, :3].T
    w = rng.dirichlet(np.ones(8))
    offset = u[:, 3:] @ rng.standard_normal(3)
    new = atoms[0] + shift * offset + u[:, :3] @ rng.standard_normal(3)
    a = np.vstack([atoms, new])
    return a @ a.T, a @ (w @ atoms + offset), np.append(w, 0.0)


def test_corrective_weights_minor_cycle():
    gram, lin, w0 = _minor_cycle_case(0, 1.0)
    grad0 = gram @ w0 - lin
    assert np.ptp(grad0[:-1]) <= 1e-12 and grad0[-1] < grad0[0]
    w = _corrective_weights(gram, lin, w0)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1) <= 1e-12
    on = w > 0
    assert np.ptp((gram @ w - lin)[on]) <= 1e-10
    assert w[-1] > 0
    assert np.any(w[:-1] == 0)  # the cycle stepped to the boundary


def test_corrective_weights_keeps_a_useless_atom_out():
    gram, lin, w0 = _minor_cycle_case(0, -1.0)
    assert np.array_equal(_corrective_weights(gram, lin, w0), w0)


def test_corrective_weights_duplicate_atom():
    # four affinely independent atoms in R^6 with optimal interior weights,
    # then an exact copy of the first: the KKT system is exactly singular, so
    # LU fails and least squares splits the first atom's weight evenly
    rng = np.random.default_rng(1)
    atoms = rng.standard_normal((4, 6))
    w = rng.dirichlet(np.ones(4))
    normal = np.linalg.svd((atoms[1:] - atoms[0]).T)[0][:, 3:] @ rng.standard_normal(3)
    a = np.vstack([atoms, atoms[0]])
    gram, lin = a @ a.T, a @ (w @ atoms + normal)
    kkt = np.pad(gram, (0, 1), constant_values=1.0)
    kkt[-1, -1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt, np.append(lin, 1.0))
    got = _corrective_weights(gram, lin, np.append(w, 0.0))
    assert abs(got.sum() - 1) <= 1e-12
    assert got[0] == pytest.approx(w[0] / 2, abs=1e-12)
    assert got[-1] == pytest.approx(w[0] / 2, abs=1e-12)
    assert np.allclose(got[1:4], w[1:], atol=1e-12)


def test_nearest_separable_non_isotropic_2x3():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    target = DensityMatrix(0.8 * np.outer(v, v.conj()) + 0.2 * np.eye(6) / 6, 2, 3)
    assert not is_ppt(target)
    res = nearest_separable(target)
    assert res.converged and res.gap_certificate < ProjectionConfig().tol_gap
    weights = np.array([w for w, _, _ in res.nearest.terms])
    assert np.all(weights > 0)
    assert abs(weights.sum() - 1) <= 1e-12
    # PPT is separability at 2x3, so the nearest state must be PPT
    assert is_ppt(res.nearest.to_density())


def _assert_optimal_weights(res, target):
    """The final weights sum to 1 and are optimal on their atoms: equal
    gradients (G w - c)_i."""
    weights = np.array([w for w, _, _ in res.nearest.terms])
    x = np.array([np.kron(psi, phi) for _, psi, phi in res.nearest.terms])
    gram = np.abs(x.conj() @ x.T) ** 2
    lin = np.einsum("ka,ab,kb->k", x.conj(), target.matrix, x).real
    assert abs(weights.sum() - 1) <= 1e-12
    assert np.ptp(gram @ weights - lin) <= 1e-10


def test_nearest_separable_rank_two_2x2():
    rng = np.random.default_rng(2)
    while True:
        vs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        mix = np.einsum("k,ka,kb->ab", rng.dirichlet(np.ones(2)), vs, vs.conj())
        target = DensityMatrix(0.9 * mix + 0.1 * np.eye(4) / 4, 2, 2)
        if not is_ppt(target):
            break
    res = nearest_separable(target)
    assert res.converged and res.gap_certificate < ProjectionConfig().tol_gap
    _assert_optimal_weights(res, target)
    # PPT is separability at 2x2
    assert is_ppt(res.nearest.to_density())


def _swap(d):
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def werner(d, p):
    """p P_a / n_a + (1 - p) P_s / n_s, with P_a, P_s the projectors onto the
    antisymmetric and symmetric subspaces of C^d x C^d."""
    n_a, n_s = d * (d - 1) / 2, d * (d + 1) / 2
    p_a, p_s = (np.eye(d * d) - _swap(d)) / 2, (np.eye(d * d) + _swap(d)) / 2
    return DensityMatrix(p * p_a / n_a + (1 - p) * p_s / n_s, d, d)


def werner_distance(d, p):
    """Closed form for p > 1/2 (Werner 1989; Vollbrecht & Werner 2001): the
    nearest separable state is the Werner state at p = 1/2."""
    n_a, n_s = d * (d - 1) / 2, d * (d + 1) / 2
    return (p - 0.5) * np.sqrt(1 / n_a + 1 / n_s)


def test_werner_distance_closed_form():
    assert werner_distance(3, 0.8) == pytest.approx(
        hs_norm(werner(3, 0.8).matrix - werner(3, 0.5).matrix), abs=1e-15)
    assert is_ppt(werner(3, 0.5)) and not is_ppt(werner(3, 0.5 + 1e-6))


def test_nearest_separable_werner_3x3():
    target = werner(3, 0.8)
    res = nearest_separable(target)
    assert res.converged
    excess = res.distance**2 - werner_distance(3, 0.8) ** 2
    assert 0 <= excess <= res.gap_certificate + 1e-12
    _assert_optimal_weights(res, target)


def test_infinite_d_trend():
    rows = infinite_d_trend([1.0], 6)
    dists = [r[3] for r in rows]
    thresholds = [r[2] for r in rows]
    # D(alpha=1) = sqrt(d^2-1)/(d+1) grows toward 1, threshold shrinks
    assert dists == sorted(dists)
    assert thresholds == sorted(thresholds, reverse=True)
    d2 = rows[0]
    assert d2[0] == 2
    assert d2[3] == pytest.approx(1 / np.sqrt(3))


def test_infinite_d_trend_separable_entries_zero():
    rows = infinite_d_trend([0.2], 6)
    for d, alpha, thr, dist in rows:
        assert dist == (0.0 if alpha <= thr else pytest.approx(
            np.sqrt(d**2 - 1) / d * (alpha - thr)))


def test_infinite_d_trend_rejects_small_dmax():
    with pytest.raises(ValueError):
        infinite_d_trend([0.5], 1)
