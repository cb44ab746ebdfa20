import numpy as np
import pytest

from witnesskit import witness
from witnesskit.bases import gell_mann_basis, pauli_basis
from witnesskit.linalg import DimensionMismatchError, hs_inner, hs_norm
from witnesskit.measures import nearest_separable
from witnesskit.states import DensityMatrix, gamma_operator, isotropic
from witnesskit.witness import (
    SolverConfig,
    SolverError,
    chsh_max_violation,
    chsh_operator,
    min_over_separable,
    optimal_witness_isotropic,
    verify_nearest_separable,
    witness_candidate,
)


def sigma_operator():
    sx, sy, sz = pauli_basis().generators
    return np.kron(sx, sx) - np.kron(sy, sy) + np.kron(sz, sz)


def lambda_operator():
    lam = gell_mann_basis().generators
    signs = [1, -1, 1, 1, -1, 1, -1, 1]
    return sum(s * np.kron(g, g) for s, g in zip(signs, lam))


def test_norm_constants():
    assert hs_norm(sigma_operator()) == pytest.approx(2 * np.sqrt(3), abs=1e-12)
    assert hs_norm(lambda_operator()) == pytest.approx(4 * np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
def test_witness_candidate_qubit_closed_form(alpha):
    cand = witness_candidate(isotropic(2, 1 / 3), isotropic(2, alpha))
    expected = (np.eye(4) - sigma_operator()) / (2 * np.sqrt(3))
    assert np.max(np.abs(cand - expected)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
def test_witness_candidate_qutrit_closed_form(alpha):
    cand = witness_candidate(isotropic(3, 1 / 4), isotropic(3, alpha))
    expected = (np.eye(9) - 0.75 * lambda_operator()) / (3 * np.sqrt(2))
    assert np.max(np.abs(cand - expected)) <= 1e-12


def test_witness_candidate_intermediate_scalars():
    alpha = 0.8
    guess, target = isotropic(2, 1 / 3), isotropic(2, alpha)
    diff = guess.matrix - target.matrix
    assert hs_inner(guess.matrix, diff).real == pytest.approx((1 / 3 - alpha) / 4)
    assert hs_norm(diff) == pytest.approx(np.sqrt(3) / 2 * (alpha - 1 / 3))


def test_witness_candidate_invariants():
    guess, target = isotropic(3, 0.1), isotropic(3, 0.9)
    cand = witness_candidate(guess, target)
    diff = guess.matrix - target.matrix
    assert hs_inner(diff, cand).real == pytest.approx(hs_norm(diff))
    assert hs_inner(guess.matrix, cand).real == pytest.approx(0, abs=1e-12)


def test_witness_candidate_degenerate_input():
    rho = isotropic(2, 0.5)
    with pytest.raises(ValueError):
        witness_candidate(rho, rho)


def test_min_over_separable_identity():
    value, (psi, phi) = min_over_separable(np.eye(4), 2, 2, SolverConfig(n_starts=4))
    assert value == pytest.approx(1.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_min_over_separable_diagonal():
    sz = pauli_basis().generators[2]
    value, (psi, phi) = min_over_separable(np.kron(sz, sz), 2, 2)
    assert value == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_min_over_separable_tangency(d):
    a_opt = optimal_witness_isotropic(d, 1.0)
    value, _ = min_over_separable(a_opt, d, d, SolverConfig(n_starts=64, seed=0))
    assert abs(value) <= 1e-7


def test_min_over_separable_monotone_in_starts():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a = (z + z.conj().T) / 2
    v8, _ = min_over_separable(a, 3, 3, SolverConfig(n_starts=8, seed=0))
    v32, _ = min_over_separable(a, 3, 3, SolverConfig(n_starts=32, seed=0))
    assert v32 <= v8 + 1e-10


def test_min_over_separable_returns_attained_value():
    rng = np.random.default_rng(22)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (z + z.conj().T) / 2
    value, (psi, phi) = min_over_separable(a, 2, 3)
    x = np.kron(psi, phi)
    assert np.vdot(x, a @ x).real == pytest.approx(value, abs=1e-9)


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_newton_model_matches_finite_differences():
    # the analytic Riemannian gradient and Hessian of the Rayleigh quotient,
    # against central differences in the same tangent coordinates
    rng = np.random.default_rng(31)
    d_a, d_b = 2, 3
    a = random_hermitian(rng, d_a * d_b)
    psi, phi = random_unit(rng, d_a), random_unit(rng, d_b)
    x0 = np.kron(psi, phi)
    value = np.vdot(x0, a @ x0).real
    grad, hess, pa, pb = witness._second_order(a, psi[None], phi[None], np.array([value]))
    grad, hess, pa, pb = grad[0], hess[0], pa[0], pb[0]
    m = d_a + d_b - 2

    def f(t):
        w = t[:m] + 1j * t[m:]
        x = np.kron(psi + pa @ w[:d_a - 1], phi + pb @ w[d_a - 1:])
        return np.vdot(x, a @ x).real / np.vdot(x, x).real

    h = 1e-5
    basis = np.eye(2 * m)
    fd_grad = np.array([(f(h * e) - f(-h * e)) / (2 * h) for e in basis])
    assert np.max(np.abs(fd_grad - grad)) <= 1e-8
    h = 1e-4
    v = rng.standard_normal(2 * m)
    fd_hv = np.array([
        (f(h * (e + v)) - f(h * (e - v)) - f(h * (v - e)) + f(-h * (e + v))) / (4 * h * h)
        for e in basis
    ])
    assert np.max(np.abs(fd_hv - hess @ v)) <= 1e-5 * np.abs(hess).max()
    assert np.max(np.abs(hess - hess.T)) <= 1e-12


@pytest.mark.parametrize("d_b,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_min_over_separable_against_bloch_grid(d_b, seed):
    # For d_a = 2 the minimum over phi is exact: lambda_min of the operator
    # contracted with psi.  That is 1/2 sqrt(sum_k ||A_k||^2)-Lipschitz in
    # the Bloch vector of psi (A_k = operator contracted with sigma_k), and
    # every Bloch vector lies within the grid's covering radius of a node.
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 2 * d_b)
    value, _ = min_over_separable(a, 2, d_b, SolverConfig(seed=seed))
    theta = np.linspace(0, np.pi, 121)
    azimuth = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    t, p = (g.ravel() for g in np.meshgrid(theta, azimuth))
    psi = np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=1)
    a4 = a.reshape(2, d_b, 2, d_b)
    grid_min = np.linalg.eigvalsh(np.einsum("ikjl,si,sj->skl", a4, psi.conj(), psi))[:, 0].min()
    radius = (theta[1] - theta[0]) / 2 + (azimuth[1] - azimuth[0]) / 2
    lipschitz = 0.5 * np.sqrt(sum(
        np.linalg.norm(np.einsum("ji,ikjl->kl", s, a4), 2) ** 2 for s in pauli_basis().generators
    ))
    assert value <= grid_min + 1e-12
    assert value >= grid_min - lipschitz * radius


def test_min_over_separable_budget_exhausted():
    rng = np.random.default_rng(32)
    a = random_hermitian(rng, 6)
    best, _ = min_over_separable(a, 2, 3)
    with pytest.raises(SolverError) as info:
        min_over_separable(a, 2, 3, SolverConfig(max_iters=1))
    assert info.value.iterations == 1
    assert np.isfinite(info.value.best_value)
    assert info.value.best_value >= best - 1e-12


def test_verify_nearest_separable_qubit():
    report = verify_nearest_separable(isotropic(2, 1 / 3), isotropic(2, 0.8))
    assert report.is_witness
    assert report.is_optimal
    assert report.ent_expectation == pytest.approx(-np.sqrt(3) / 2 * (0.8 - 1 / 3))


def test_verify_nearest_separable_qutrit():
    report = verify_nearest_separable(isotropic(3, 1 / 4), isotropic(3, 1.0))
    assert report.is_witness
    assert report.ent_expectation == pytest.approx(-np.sqrt(2) / 2)


def test_verify_nearest_separable_rejects_interior_guess():
    # the maximally mixed state is interior, so its plane cuts the
    # separable set
    guess = DensityMatrix(np.eye(4) / 4, 2, 2)
    report = verify_nearest_separable(guess, isotropic(2, 0.8))
    assert not report.is_witness
    assert report.sep_minimum < -1e-3


def noisy_pure_states():
    """0.9 |v><v| + 0.1 1/n for seeded random v, in 2 x 2 and then 2 x 3."""
    rng = np.random.default_rng(7)
    for d_a, d_b in ((2, 2), (2, 3)):
        n = d_a * d_b
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        yield DensityMatrix(0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(n) / n, d_a, d_b)


@pytest.mark.parametrize("target", list(noisy_pure_states()), ids=["2x2", "2x3"])
def test_verify_nearest_separable_non_isotropic(target):
    mr = nearest_separable(target)
    nearest = mr.nearest.to_density()
    report = verify_nearest_separable(nearest, target)
    assert report.is_optimal
    assert report.ent_expectation == pytest.approx(-mr.distance, abs=1e-12)
    # mixing in white noise moves the guess into the interior
    n = target.dim
    noisier = DensityMatrix(0.8 * nearest.matrix + 0.2 * np.eye(n) / n, target.d_a, target.d_b)
    assert not verify_nearest_separable(noisier, target).is_witness


def test_optimal_witness_closed_forms():
    w2 = optimal_witness_isotropic(2, 0.5)
    assert np.max(np.abs(w2 - (np.eye(4) - sigma_operator()) / (2 * np.sqrt(3)))) <= 1e-12
    w3 = optimal_witness_isotropic(3, 0.5)
    assert np.max(np.abs(w3 - (np.eye(9) - 0.75 * lambda_operator()) / (3 * np.sqrt(2)))) <= 1e-12
    w4 = optimal_witness_isotropic(4, 0.5)
    expected = 3 / (4 * np.sqrt(15)) * (np.eye(16) - (2 / 3) * gamma_operator(4))
    assert np.max(np.abs(w4 - expected)) <= 1e-12


def test_optimal_witness_rejects_separable_regime():
    with pytest.raises(ValueError):
        optimal_witness_isotropic(2, 0.2)


def test_optimal_witness_vanishes_on_threshold_state():
    for d in (2, 3, 4):
        a_opt = optimal_witness_isotropic(d, 1.0)
        rho0 = isotropic(d, 1 / (d + 1))
        assert abs(hs_inner(rho0.matrix, a_opt)) <= 1e-12


def test_witness_shift_invariance():
    # adding kappa * identity shifts both expectations by exactly kappa
    a_opt = optimal_witness_isotropic(2, 0.9)
    kappa = 0.37
    shifted = a_opt + kappa * np.eye(4)
    cfg = SolverConfig(n_starts=16, seed=3)
    v0, _ = min_over_separable(a_opt, 2, 2, cfg)
    v1, _ = min_over_separable(shifted, 2, 2, cfg)
    assert v1 - v0 == pytest.approx(kappa, abs=1e-9)


def test_chsh_operator_tsirelson():
    # phi+ has correlation diag(1, -1, 1), so optimal settings live in the
    # x-z plane
    x = np.array([1.0, 0, 0])
    z = np.array([0, 0, 1.0])
    b = chsh_operator(x, z, (x + z) / np.sqrt(2), (x - z) / np.sqrt(2))
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.vdot(phi, b @ phi).real == pytest.approx(2 * np.sqrt(2))


def test_chsh_operator_traceless():
    rng = np.random.default_rng(23)
    vs = rng.standard_normal((4, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    b = chsh_operator(*vs)
    assert abs(np.trace(b)) <= 1e-12
    assert hs_inner(np.eye(4) / 4, b).real == pytest.approx(0, abs=1e-12)


def test_chsh_operator_rejects_non_unit():
    with pytest.raises(ValueError):
        chsh_operator([1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 0, 0])


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_chsh_max_violation_isotropic(alpha):
    value = chsh_max_violation(isotropic(2, alpha))
    assert value == pytest.approx(2 * np.sqrt(2) * alpha, abs=1e-12)


def test_chsh_blind_spot():
    # entangled below 1/sqrt(2) but no CHSH violation
    alpha = 0.5
    assert alpha > 1 / 3
    value = chsh_max_violation(isotropic(2, alpha))
    assert value < 2.0


def random_two_qubit_state(rng, rank):
    z = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real, 2, 2)


def correlation_matrix(rho):
    paulis = pauli_basis().generators
    return np.array([[hs_inner(np.kron(si, sj), rho.matrix).real for sj in paulis]
                     for si in paulis])


@pytest.mark.parametrize("rank", [4, 1])
def test_chsh_max_attained_by_svd_settings(rank):
    # T = sum s_i u_i v_i^T: a = u1, a' = u2, b, b' = cos(t) v1 +- sin(t) v2,
    # tan(t) = s2 / s1, give 2 (s1 cos(t) + s2 sin(t)) = 2 sqrt(s1^2 + s2^2)
    rng = np.random.default_rng(41 + rank)
    for _ in range(10):
        rho = random_two_qubit_state(rng, rank)
        u, s, vt = np.linalg.svd(correlation_matrix(rho))
        theta = np.arctan2(s[1], s[0])
        b, b_p = (np.cos(theta) * vt[0] + sign * np.sin(theta) * vt[1] for sign in (1, -1))
        attained = hs_inner(rho.matrix, chsh_operator(u[:, 0], u[:, 1], b, b_p)).real
        assert attained == pytest.approx(chsh_max_violation(rho), abs=1e-12)


@pytest.mark.parametrize("rank", [4, 1])
def test_chsh_max_bounds_random_settings(rank):
    rng = np.random.default_rng(51 + rank)
    for _ in range(10):
        rho = random_two_qubit_state(rng, rank)
        best = chsh_max_violation(rho)
        vs = rng.standard_normal((200, 4, 3))
        vs /= np.linalg.norm(vs, axis=2, keepdims=True)
        values = [hs_inner(rho.matrix, chsh_operator(*v)).real for v in vs]
        assert max(values) <= best + 1e-12


def test_chsh_max_rejects_qutrits():
    with pytest.raises(DimensionMismatchError):
        chsh_max_violation(isotropic(3, 0.5))


@pytest.mark.parametrize("settings", [
    {"n_starts": 0}, {"n_starts": -1}, {"n_starts": "abc"}, {"n_starts": 2.0},
    {"max_iters": 0}, {"max_iters": True}, {"seed": -1}, {"seed": None},
    {"tol_conv": 0.0}, {"tol_conv": None}, {"tol_conv": float("inf")}, {"tol_conv": float("nan")},
])
def test_solver_config_rejects_bad_settings(settings):
    with pytest.raises(ValueError):
        SolverConfig(**settings)
