import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from witnesskit import measures
from witnesskit.linalg import hs_inner, hs_norm, partial_transpose
from witnesskit.measures import (
    MeasureResult,
    ProjectionConfig,
    ProjectionError,
    bnt_check,
    bnt_report,
    gbi_violation,
    hs_measure_isotropic,
    _corrective_weights,
    infinite_d_trend,
    nearest_separable,
)
from witnesskit.states import DensityMatrix, ProductEnsemble, haar_unitary, is_ppt, isotropic
from witnesskit.witness import SolverConfig, min_over_separable, optimal_witness_isotropic

from operators import _local_unitary, _rotated, bell_diagonal, horodecki_3x3, werner, werner_distance


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


def test_hs_measure_isotropic_past_int64():
    # d^2 = 2^80 is too large for a numpy integer; it is squared as a Python int
    for d in (2**40, np.int64(2**40)):
        value = hs_measure_isotropic(d, 0.5)
        assert isinstance(value, float)
        assert value == pytest.approx(0.5 - 2.0**-40, abs=1e-15)


def test_hs_measure_zero_on_separable_side():
    # the distance to the separable set vanishes on it, the threshold included
    assert hs_measure_isotropic(2, 1 / 3) == 0.0
    assert hs_measure_isotropic(4, 0.1) == 0.0
    assert hs_measure_isotropic(3, -1 / 8) == 0.0
    assert hs_measure_isotropic(3, np.nextafter(0.25, 1)) > 0.0


def test_nearest_separable_qubit():
    res = nearest_separable(isotropic(2, 0.8))
    assert res.converged
    assert res.gap_certificate < 1e-9
    assert res.distance == pytest.approx(hs_measure_isotropic(2, 0.8), abs=1e-4)


def test_nearest_separable_of_separable_state():
    res = nearest_separable(isotropic(2, 0.2))
    assert res.distance <= 1e-4


# the unrotated closed-form targets and seeded local-unitary images of them
ROTATIONS = [pytest.param(None, id="unrotated")] + [pytest.param(s, id=f"seed{s}") for s in range(3)]


@pytest.mark.parametrize("seed", ROTATIONS)
def test_nearest_separable_qutrit_recovers_threshold_state(seed):
    u = _local_unitary(3, seed)
    res = nearest_separable(DensityMatrix(u @ isotropic(3, 1.0).matrix @ u.conj().T, 3, 3))
    assert res.distance == pytest.approx(np.sqrt(2) / 2, abs=5e-4)
    nearest = res.nearest.to_density()
    assert np.max(np.abs(nearest.matrix - u @ isotropic(3, 0.25).matrix @ u.conj().T)) <= 1e-3


@pytest.fixture
def general_path(monkeypatch):
    """The projection finds no local group, so a symmetric target takes the
    general path over untwirled atoms."""
    monkeypatch.setattr(measures, "_local_group", lambda t: (np.eye(t.d_a)[None], np.eye(t.d_b)[None]))


def test_projection_error_carries_partial_result(monkeypatch, general_path):
    monkeypatch.setattr(measures, "MAX_OUTER_ITERS", 2)
    with pytest.raises(ProjectionError) as info:
        nearest_separable(_rotated(werner(3, 0.8), 0))
    res = info.value.result
    assert not res.converged and res.iterations == 2
    assert res.gap_certificate >= ProjectionConfig().tol_gap
    assert res.nearest.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_projection_error_reports_one_iterate(monkeypatch, general_path, d):
    # the partial result's distance and gap both belong to its nearest state
    monkeypatch.setattr(measures, "MAX_OUTER_ITERS", 2)
    target = _rotated(werner(d, 0.9), 0)
    with pytest.raises(ProjectionError) as info:
        nearest_separable(target)
    res = info.value.result
    rho = res.nearest.to_matrix()
    assert res.distance == hs_norm(rho - target.matrix)
    grad = 2 * (rho - target.matrix)
    sep_min = min_over_separable(grad, d, d, SolverConfig(n_starts=64))[0][0]
    assert res.gap_certificate == pytest.approx(hs_inner(rho, grad).real - sep_min, abs=1e-9)


@pytest.mark.parametrize("cfg, first", [(ProjectionConfig(), 32), (ProjectionConfig(n_starts=64), 64)],
                         ids=["default", "64-starts"])
def test_cold_first_oracle_call_runs_the_standalone_starts(monkeypatch, cfg, first):
    # the first call has no warm start and runs at least SolverConfig's 32
    # starts; every later call runs cfg.n_starts and the warm start
    calls = []

    def oracle(a, d_a, d_b, call_cfg, extra_starts=()):
        calls.append((call_cfg.n_starts, len(extra_starts)))
        return min_over_separable(a, d_a, d_b, call_cfg, extra_starts)

    monkeypatch.setattr(measures, "min_over_separable", oracle)
    u = _local_unitary(3, 0)
    nearest_separable(DensityMatrix(u @ isotropic(3, 0.6).matrix @ u.conj().T, 3, 3), cfg)
    assert calls[0] == (first, 0)
    assert len(calls) > 1 and calls[1:] == [(cfg.n_starts, 1)] * (len(calls) - 1)


@pytest.mark.parametrize("d, p, eight", [pytest.param(3, 0.8, 5, id="3"), pytest.param(4, 0.9, 7, id="4")])
def test_first_iterate_samples_the_orbit(monkeypatch, general_path, d, p, eight):
    # every endpoint of the cold first call that still has a gap enters, so on
    # the general path a rotated Werner target's first iterate holds much of
    # the orbit of its maximal-overlap product states: 9 atoms at d = 3 and 20
    # at d = 4, where an 8-start first call leaves ``eight``
    monkeypatch.setattr(measures, "MAX_OUTER_ITERS", 2)
    with pytest.raises(ProjectionError) as info:
        nearest_separable(_rotated(werner(d, p), 0))
    assert len(info.value.result.nearest.weights) > eight


def test_projection_starts_from_the_best_endpoint_whatever_the_tolerance():
    # the iterate starts empty: the first oracle call's best endpoint enters
    # even when its gap is below tol_gap, and the stop test waits for it
    res = nearest_separable(isotropic(2, 0.8), ProjectionConfig(tol_gap=10.0))
    assert res.converged and len(res.nearest.weights) >= 1
    assert 0 <= res.gap_certificate < 10.0


def test_nearest_ensemble_is_valid_convex_combination():
    res = nearest_separable(isotropic(2, 0.6))
    weights = res.nearest.weights
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
    # the witness at the nearest state is an affine image of the certifying oracle
    # operator 2 (rho - target), so B = D - g / (2 D) for the gap g that B's own
    # search finds; on these targets it finds the projection's minimum, g = gap
    mr = report.measure
    assert abs(report.b_value - (mr.distance - mr.gap_certificate / (2 * mr.distance))) <= 1e-12


def horodecki_2x4(b):
    """P. Horodecki's PPT-entangled state on C^2 x C^4, 0 < b < 1 (Phys.
    Lett. A 232, 333 (1997))."""
    m = b * np.eye(8)
    m[4, 4] = m[7, 7] = (1 + b) / 2
    m[4, 7] = m[7, 4] = np.sqrt(1 - b * b) / 2
    for i in range(3):
        m[i, i + 5] = m[i + 5, i] = b
    return DensityMatrix(m / (7 * b + 1), 2, 4)


def npt19():
    """A 2 x 3 NPT state: two Haar-random pure states with Dirichlet weights
    at purity 0.9 plus white noise, drawn from default_rng(19) until its
    partial transpose has an eigenvalue below -1e-6."""
    rng = np.random.default_rng(19)
    while True:
        m = np.zeros((6, 6), dtype=complex)
        for w in rng.dirichlet(np.ones(2)):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v /= np.linalg.norm(v)
            m += w * np.outer(v, v.conj())
        target = DensityMatrix(0.9 * m + 0.1 * np.eye(6) / 6, 2, 3)
        if np.linalg.eigvalsh(partial_transpose(target.matrix, 2, 3))[0] < -1e-6:
            return target


def assert_violation_bounds_distance_error(report, d_ref):
    """discrepancy >= (D^2 - D_ref^2) / (2 D) - 1e-12, written without the
    division.  B = D - g / (2 D) for the gap g that B's search finds at the
    nearest state, and g >= D^2 - D*^2 when that search finds the global
    minimum, so a D above the true distance shows in the discrepancy."""
    d = report.d_value
    assert 2 * d * report.discrepancy >= d**2 - d_ref**2 - 2 * d * 1e-12


# D_ref from 1,024 starts and, for npt19, the PPT dual (exact in 2 x 3); the
# projection's 8-start oracle leaves both D too high by more than its gap
@pytest.mark.parametrize("target, d_ref", [
    pytest.param(horodecki_2x4(0.2), 0.0074991328, id="horodecki-2x4"),
    pytest.param(npt19(), 0.0969975392, id="npt19"),
])
def test_bnt_discrepancy_exposes_a_distance_too_high(target, d_ref):
    assert_violation_bounds_distance_error(bnt_check(target), d_ref)


# |Phi+>, |Phi->, |Psi+>, |Psi-> as the rows
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bnt_check_of_bell_diagonal_states(seed):
    # rho = sum_i lambda_i |Phi_i><Phi_i| is at distance (2/sqrt 3) max(0,
    # lambda_max - 1/2) from the separable set, the separable Bell-diagonal
    # states being those with every lambda_i <= 1/2 (R. & M. Horodecki, PRA
    # 54, 1838 (1996)); a local unitary u_A x u_B keeps the distance
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(4))
    d_ref = 2 / np.sqrt(3) * max(0.0, lam.max() - 0.5)
    rho = np.einsum("k,ka,kb->ab", lam, BELL, BELL)
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    for m in (rho, u @ rho @ u.conj().T):
        report = bnt_check(DensityMatrix(m, 2, 2))
        mr = report.measure
        assert mr.converged
        assert -1e-15 <= mr.distance**2 - d_ref**2 <= mr.gap_certificate + 1e-15
        assert_violation_bounds_distance_error(report, d_ref)


@pytest.mark.parametrize("tol_gap", [0.0, -1e-9, float("nan"), float("inf")])
def test_projection_config_rejects_non_positive_tol_gap(tol_gap):
    with pytest.raises(ValueError, match=f"tol_gap must be a positive finite number, got {tol_gap!r}"):
        ProjectionConfig(tol_gap=tol_gap)


def test_bnt_check_reference_value():
    report = bnt_check(isotropic(2, 0.9))
    assert report.d_value == pytest.approx(np.sqrt(3) / 2 * (0.9 - 1 / 3), abs=5e-4)


@pytest.mark.parametrize("gap", [2e-10, 0.5e-10])
def test_bnt_report_no_witness_within_the_gap(gap):
    # D^2 = 1e-10: within a gap of 2e-10 the gap cannot exclude D = 0, so no
    # witness is built and B = 0; beyond a gap of 0.5e-10, B comes from the
    # witness at the (here far from optimal) nearest state
    e0 = np.array([1.0, 0.0])
    mr = MeasureResult(1e-5, ProductEnsemble([1.0], [e0], [e0]), gap, 3)
    rep = bnt_report(isotropic(2, 0.3), mr, SolverConfig())
    assert rep.d_value == 1e-5 and rep.discrepancy == abs(1e-5 - rep.b_value)
    assert (rep.b_value == 0.0) == (gap > 1e-10)


def test_bnt_check_pure_product_target():
    # a pure product target is its own nearest state: D is at rounding level
    # and the gap may round below 0, so no witness is built and B = 0
    for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
        for seed in range(8):
            rng = np.random.default_rng(seed)
            psi, phi = haar_unitary(d_a, rng)[:, 0], haar_unitary(d_b, rng)[:, 0]
            report = bnt_check(ProductEnsemble([1.0], [psi], [phi]).to_density())
            assert report.b_value == 0.0 and report.d_value <= 1e-12


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
    w = _corrective_weights(gram, lin, w0, 8)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1) <= 1e-12
    on = w > 0
    assert np.ptp((gram @ w - lin)[on]) <= 1e-10
    assert w[-1] > 0
    assert np.any(w[:-1] == 0)  # the cycle stepped to the boundary


def test_corrective_weights_enters_atom_j_only():
    # the minor cycle's case with the entering atom moved to index 0 and a
    # copy of it appended at weight 0: the copy has the same (lower) gradient
    # but is not atom j, so it stays at 0
    gram, lin, w0 = _minor_cycle_case(0, 1.0)
    perm = [8, *range(8), 8]
    w = _corrective_weights(gram[np.ix_(perm, perm)], lin[perm], w0[perm], 0)
    assert w[-1] == 0.0 and w[0] > 0
    assert np.all(w >= 0) and abs(w.sum() - 1) <= 1e-12
    on = w > 0
    assert np.ptp((gram[np.ix_(perm, perm)] @ w - lin[perm])[on]) <= 1e-10
    assert np.allclose(w[:-1], _corrective_weights(gram, lin, w0, 8)[perm[:-1]], atol=1e-12)


def test_corrective_weights_keeps_a_useless_atom_out():
    gram, lin, w0 = _minor_cycle_case(0, -1.0)
    assert np.array_equal(_corrective_weights(gram, lin, w0, 8), w0)


def test_corrective_weights_duplicate_atom():
    # four affinely independent atoms in R^6 with optimal interior weights,
    # then an exact copy of the first: the reduced system is exactly
    # singular, and its shifted diagonal still solves it; any split of the
    # first atom's weight with its copy is optimal
    rng = np.random.default_rng(1)
    atoms = rng.standard_normal((4, 6))
    w = rng.dirichlet(np.ones(4))
    normal = np.linalg.svd((atoms[1:] - atoms[0]).T)[0][:, 3:] @ rng.standard_normal(3)
    a = np.vstack([atoms, atoms[0]])
    gram, lin = a @ a.T, a @ (w @ atoms + normal)
    got = _corrective_weights(gram, lin, np.append(w, 0.0), 4)
    assert np.all(got >= 0) and abs(got.sum() - 1) <= 1e-12
    on = got > 0
    assert np.ptp((gram @ got - lin)[on]) <= 1e-10
    assert got[0] + got[-1] == pytest.approx(w[0], abs=1e-12)
    assert np.allclose(got[1:4], w[1:], atol=1e-12)


@pytest.mark.parametrize("gram", [
    pytest.param(np.full((2, 2), 1 / 3), id="trace-zero"),
    pytest.param(np.array([[0.3333325500000001, 0.33333255000000016],
                           [0.33333255000000016, 0.3333325500000001]]), id="trace-negative"),
])
def test_corrective_weights_near_copy_of_the_one_atom(gram):
    # the entering atom's reduced H = G_00 - 2 G_01 + G_11 rounds to 0 or to
    # -1.1e-16, yet its gap is positive: the objective falls all the way to it
    lin, w = np.array([0.2, 0.2 + 1e-9]), np.array([1.0, 0.0])
    assert np.array_equal(_corrective_weights(gram, lin, w, 1), [0.0, 1.0])


def test_nearest_separable_non_isotropic_2x3():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    target = DensityMatrix(0.8 * np.outer(v, v.conj()) + 0.2 * np.eye(6) / 6, 2, 3)
    assert not is_ppt(target)
    res = nearest_separable(target)
    assert res.converged and res.gap_certificate < ProjectionConfig().tol_gap
    weights = res.nearest.weights
    assert np.all(weights > 0)
    assert abs(weights.sum() - 1) <= 1e-12
    # PPT is separability at 2x3, so the nearest state must be PPT
    assert is_ppt(res.nearest.to_density())


def _assert_optimal_weights(res, target):
    """The final weights sum to 1 and are optimal on their atoms: equal
    gradients (G w - c)_i."""
    weights = res.nearest.weights
    x = np.array([np.kron(psi, phi) for psi, phi in zip(res.nearest.psis, res.nearest.phis)])
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


def test_werner_distance_closed_form():
    assert werner_distance(3, 0.8) == pytest.approx(
        hs_norm(werner(3, 0.8).matrix - werner(3, 0.5).matrix), abs=1e-15)
    assert is_ppt(werner(3, 0.5)) and not is_ppt(werner(3, 0.5 + 1e-6))


@pytest.mark.parametrize("d, p, seed", [pytest.param(3, 0.8, s.values[0], id=s.id) for s in ROTATIONS]
                         + [pytest.param(d, 0.9, None, id=f"unrotated-{d}x{d}") for d in (4, 5, 6)]
                         + [pytest.param(d, 0.9, s, id=f"seed{s}-{d}x{d}") for d in (4, 5) for s in range(3)]
                         + [pytest.param(6, 0.9, 0, id="seed0-6x6")])
def test_nearest_separable_werner(d, p, seed):
    # {W (x) W}, found in the frame of T^Gamma's isotropic eigenvector once
    # rotated, makes D the closed form, to rounding of either sign; from d = 5
    # its twirled atoms are nearly affinely dependent
    target = _rotated(werner(d, p), seed)
    assert len(measures._local_group(target)[0]) == d * d
    res = nearest_separable(target)
    assert res.converged and res.iterations <= 50
    assert res.distance == pytest.approx(werner_distance(d, p), abs=1e-10)
    _assert_optimal_weights(res, target)


def test_nearest_separable_werner_on_the_general_path(general_path):
    # over untwirled atoms the heuristic D is an upper bound within the gap
    target = _rotated(werner(3, 0.8), 0)
    res = nearest_separable(target)
    assert res.converged
    excess = res.distance**2 - werner_distance(3, 0.8) ** 2
    assert 0 <= excess <= res.gap_certificate + 1e-12
    _assert_optimal_weights(res, target)


# The symmetric path: a finite local group {u_g (x) v_g} over the d^2 Weyl
# operators fixes the target, and Frank-Wolfe runs over twirled atoms.

@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("seed", ROTATIONS)
def test_isotropic_projection_is_exact_in_any_local_frame(d, seed):
    # d = 6 checks the paper's arbitrary-d formula past d = 4
    target = _rotated(isotropic(d, 0.9), seed)
    assert len(measures._local_group(target)[0]) == d * d
    res = nearest_separable(target)
    assert res.converged
    assert res.distance == pytest.approx(hs_measure_isotropic(d, 0.9), abs=1e-10)
    # the ensemble holds every group image of every atom at an equal share
    assert len(res.nearest.weights) % (d * d) == 0
    _assert_optimal_weights(res, target)


@pytest.mark.parametrize("alpha", [2.5, 3.0])
def test_horodecki_3x3_separable(alpha):
    res = nearest_separable(horodecki_3x3(alpha))
    assert res.converged and res.distance**2 <= res.gap_certificate


# D_ref from an earlier twirled projection, an upper bound itself: the
# symmetric path lands within 2.0e-9 of them at seeds 0-9, the general path
# 3.5e-4 and 5.6e-4 above; at seed 2 a weight step on (4.0) meets a reduced
# H whose trace rounds to 0
@pytest.mark.parametrize("alpha, d_ref, seed", [
    pytest.param(alpha, d_ref, seed, id=f"{alpha}-{d_ref}" + (f"-seed{seed}" if seed else ""))
    for seed in (0, 2) for alpha, d_ref in [(3.5, 0.0270308638), (4.0, 0.0554153317)]])
def test_horodecki_3x3_bound_entanglement(alpha, d_ref, seed):
    # the target is PPT, and the witness at its nearest state detects it: B > 0
    target = horodecki_3x3(alpha)
    assert len(measures._local_group(target)[0]) == 9
    assert is_ppt(target)
    report = bnt_check(target, ProjectionConfig(seed=seed))
    assert report.measure.converged
    assert abs(report.d_value - d_ref) <= 1e-8
    assert report.b_value > 0 and report.discrepancy <= 1e-8


def test_bell_diagonal_draw_with_a_near_copy_atom():
    # at seed 3 a weight step meets an entering atom that, under the twirl,
    # nearly duplicates the one atom with weight; D is the seed-0 value
    target = bell_diagonal(3, 4)
    assert len(measures._local_group(target)[0]) == 9
    res = nearest_separable(target, ProjectionConfig(seed=3))
    assert res.converged
    assert abs(res.distance - 0.1666682281) <= 1e-8


@pytest.mark.parametrize("target", [
    pytest.param(horodecki_3x3(4.0), id="horodecki-3x3"),
    pytest.param(_rotated(isotropic(4, 1.0), 1), id="rotated-isotropic-4"),
])
def test_symmetric_gap_matches_a_64_start_oracle(target):
    # the gradient is invariant under the group, so the gap of the twirled
    # atoms certifies against every product state
    res = nearest_separable(target)
    rho = res.nearest.to_matrix()
    grad = 2 * (rho - target.matrix)
    sep_min = min_over_separable(grad, target.d_a, target.d_b, SolverConfig(n_starts=64))[0][0]
    assert res.gap_certificate == pytest.approx(hs_inner(rho, grad).real - sep_min, abs=1e-9)


def _rank1_2x2():
    """A random-project-style draw: a Haar pure state at purity 0.8 with white noise."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return DensityMatrix(0.8 * np.outer(v, v.conj()) + 0.2 * np.eye(4) / 4, 2, 2)


def _isotropic_with_product_admixture():
    rng = np.random.default_rng(4)
    product = ProductEnsemble([1.0], [haar_unitary(3, rng)[:, 0]], [haar_unitary(3, rng)[:, 0]])
    return DensityMatrix((1 - 1e-6) * isotropic(3, 0.6).matrix + 1e-6 * product.to_matrix(), 3, 3)


def _isotropic_off_invariance():
    """``isotropic(3, 0.6)`` plus a traceless Hermitian 5e-11 perturbation:
    within the Hermiticity tolerance 1e-10, far above rounding."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = a + a.conj().T - np.trace(a + a.conj().T) / 9 * np.eye(9)
    return DensityMatrix(isotropic(3, 0.6).matrix + 5e-11 * h / np.abs(h).max(), 3, 3)


# a rotated Horodecki 3x3 state keeps a torus of local symmetries, but
# neither it nor its partial transpose has an isotropic eigenvector frame
@pytest.mark.parametrize("make", [npt19, lambda: horodecki_2x4(0.2), _rank1_2x2,
                                  _isotropic_with_product_admixture, _isotropic_off_invariance,
                                  lambda: _rotated(horodecki_3x3(4.0), 2)],
                         ids=["npt19", "horodecki-2x4", "rank-1-2x2", "isotropic-admixture",
                              "isotropic-off-invariance", "rotated-horodecki-3x3"])
def test_no_group_fixes_a_non_symmetric_target(make):
    us, vs = measures._local_group(make())
    assert len(us) == len(vs) == 1
    assert np.array_equal(us[0], np.eye(us.shape[1])) and np.array_equal(vs[0], np.eye(vs.shape[1]))


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
    with pytest.raises(ValueError, match="need d_max >= 2, got 1"):
        infinite_d_trend([0.5], 1)


@pytest.mark.parametrize("d_max", [3.0, 2.5, True, "3"])
def test_infinite_d_trend_rejects_non_integer_dmax(d_max):
    with pytest.raises(ValueError, match=f"d_max must be an integer, got {d_max!r}"):
        infinite_d_trend([0.5], d_max)
