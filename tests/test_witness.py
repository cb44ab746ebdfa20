import numpy as np
import pytest

from witnesskit import witness
from witnesskit.bases import generalized_basis
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

from operators import lambda_operator, random_hermitian, sigma_operator


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


def test_witness_candidate_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        witness_candidate(isotropic(2, 0.5), isotropic(3, 0.5))
    # equal total dimension, different partition
    with pytest.raises(DimensionMismatchError, match="3 x 2 but target is 2 x 3"):
        witness_candidate(DensityMatrix(np.eye(6) / 6, 3, 2), DensityMatrix(np.eye(6) / 6, 2, 3))


def test_min_over_separable_rejects_huge_operator():
    # finite, but the solver's arithmetic overflows; warnings are errors in the tests
    with pytest.raises(ValueError, match="too large") as info:
        min_over_separable(np.full((4, 4), 1e308), 2, 2)
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("start", [
    pytest.param([0, 0], id="zero"),
    pytest.param([np.nan, 1], id="nan"),
    pytest.param([1e-200, 0], id="norm-underflows"),
    pytest.param([1, 0, 0], id="wrong-length"),
])
def test_min_over_separable_rejects_bad_extra_start(start):
    # the operator is fine: the error must name the start, not the operator
    with pytest.raises(ValueError, match="extra_starts"):
        min_over_separable(np.diag([1.0, 2.0, 3.0, 4.0]), 2, 2, SolverConfig(n_starts=2), [start])


def test_min_over_separable_identity():
    values, psis, phis = min_over_separable(np.eye(4), 2, 2, SolverConfig(n_starts=4))
    value, psi, phi = values[0], psis[0], phis[0]
    assert value == pytest.approx(1.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_min_over_separable_diagonal():
    sz = generalized_basis(2)[2]
    value = min_over_separable(np.kron(sz, sz), 2, 2)[0][0]
    assert value == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_min_over_separable_tangency(d):
    a_opt = optimal_witness_isotropic(d, 1.0)
    value = min_over_separable(a_opt, d, d, SolverConfig(n_starts=64, seed=0))[0][0]
    assert abs(value) <= 1e-7


def test_min_over_separable_monotone_in_starts():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a = (z + z.conj().T) / 2
    v8 = min_over_separable(a, 3, 3, SolverConfig(n_starts=8, seed=0))[0][0]
    v32 = min_over_separable(a, 3, 3, SolverConfig(n_starts=32, seed=0))[0][0]
    assert v32 <= v8 + 1e-10


def test_min_over_separable_returns_attained_value():
    rng = np.random.default_rng(22)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (z + z.conj().T) / 2
    values, psis, phis = min_over_separable(a, 2, 3)
    value, psi, phi = values[0], psis[0], phis[0]
    x = np.kron(psi, phi)
    assert np.vdot(x, a @ x).real == pytest.approx(value, abs=1e-9)


def random_unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_frame(rng, v):
    """A unitary with first column v, its other columns from the QR of a
    random matrix: an arbitrary orthonormal basis of v's complement."""
    d = len(v)
    z = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
    q = np.linalg.qr(np.column_stack([v, z]))[0]
    q[:, 0] = v  # QR returns v times a unit phase
    return q


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def test_newton_model_matches_finite_differences():
    # the analytic Riemannian gradient and Hessian of the Rayleigh quotient,
    # against central differences in the same tangent coordinates
    rng = np.random.default_rng(31)
    d_a, d_b = 2, 3
    a = random_hermitian(rng, d_a * d_b)
    psi, phi = random_unit(rng, d_a), random_unit(rng, d_b)
    va, vb = random_frame(rng, psi), random_frame(rng, phi)
    grad, hess = witness._second_order(a, va[None], vb[None])
    grad, hess, pa, pb = grad[0], hess[0], va[:, 1:], vb[:, 1:]
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


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_newton_step_ignores_the_tangent_basis(d_a, d_b):
    # the step is taken in the half-steps' eigenbases; rotating the columns
    # that span psi's and phi's complements must not move it
    rng = np.random.default_rng(41 + d_a * d_b)
    a = random_hermitian(rng, d_a * d_b)
    a4 = a.reshape(d_a, d_b, d_a, d_b)
    phi = random_unit(rng, d_b)
    va = np.linalg.eigh(np.einsum("ikjl,k,l->ij", a4, phi.conj(), phi))[1]
    vb = np.linalg.eigh(np.einsum("ikjl,i,j->kl", a4, va[:, 0].conj(), va[:, 0]))[1]
    length = np.array([1.0])
    proposal, predicted = witness._newton_step(a, va[None], vb[None], length)
    assert 1 <= np.vdot(proposal, proposal).real <= 2  # unnormalized, 1 + |v|^2
    for _ in range(3):
        ra, rb = va.copy(), vb.copy()
        ra[:, 1:] = va[:, 1:] @ random_unitary(rng, d_a - 1)
        rb[:, 1:] = vb[:, 1:] @ random_unitary(rng, d_b - 1)
        turned, turned_predicted = witness._newton_step(a, ra[None], rb[None], length)
        assert np.max(np.abs(turned - proposal)) <= 1e-12
        assert abs(turned_predicted[0] - predicted[0]) <= 1e-12


@pytest.mark.parametrize("d_b,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_min_over_separable_against_bloch_grid(d_b, seed):
    # For d_a = 2 the minimum over phi is exact: lambda_min of the operator
    # contracted with psi.  That is 1/2 sqrt(sum_k ||A_k||^2)-Lipschitz in
    # the Bloch vector of psi (A_k = operator contracted with sigma_k), and
    # every Bloch vector lies within the grid's covering radius of a node.
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 2 * d_b)
    value = min_over_separable(a, 2, d_b, SolverConfig(seed=seed))[0][0]
    theta = np.linspace(0, np.pi, 121)
    azimuth = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    t, p = (g.ravel() for g in np.meshgrid(theta, azimuth))
    psi = np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=1)
    a4 = a.reshape(2, d_b, 2, d_b)
    grid_min = np.linalg.eigvalsh(np.einsum("ikjl,si,sj->skl", a4, psi.conj(), psi))[:, 0].min()
    radius = (theta[1] - theta[0]) / 2 + (azimuth[1] - azimuth[0]) / 2
    lipschitz = 0.5 * np.sqrt(sum(
        np.linalg.norm(np.einsum("ji,ikjl->kl", s, a4), 2) ** 2 for s in generalized_basis(2)
    ))
    assert value <= grid_min + 1e-12
    assert value >= grid_min - lipschitz * radius


def test_min_over_separable_budget_exhausted():
    rng = np.random.default_rng(32)
    a = random_hermitian(rng, 6)
    best = min_over_separable(a, 2, 3)[0][0]
    with pytest.raises(SolverError) as info:
        min_over_separable(a, 2, 3, SolverConfig(max_iters=1))
    assert np.isfinite(info.value.best_value)
    assert info.value.best_value >= best - 1e-12


def test_min_over_separable_returns_every_endpoint():
    # the projection enters atoms from these rows and warm-starts from row 0
    rng = np.random.default_rng(33)
    a = random_hermitian(rng, 6)
    cfg = SolverConfig(n_starts=5)
    extra = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    values, psis, phis = min_over_separable(a, 2, 3, cfg, extra)
    assert len(values) == len(psis) == len(phis) == cfg.n_starts + len(extra)
    assert np.all(np.diff(values) >= 0)
    x = np.array([np.kron(p, f) for p, f in zip(psis, phis)])
    rayleigh = np.einsum("ka,ab,kb->k", x.conj(), a, x).real
    assert np.max(np.abs(values - rayleigh)) <= 1e-12


@pytest.mark.parametrize("d_a,d_b,seed", [(2, 2, 36), (2, 3, 34), (3, 3, 35), (4, 4, 37)])
def test_min_over_separable_endpoint_depends_only_on_its_start(d_a, d_b, seed):
    # a start that stops leaves the working arrays with its endpoint; the extra
    # start e and the first random start (the same draw for any n_starts) run
    # alone, then among 8, where the others stop earlier or later (4-8, 5-8,
    # 7-8 and 5-12 iterations here, against 7, 7, 8 and 10 for e)
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, d_a * d_b)
    e = random_unit(rng, d_b)
    alone = min_over_separable(a, d_a, d_b, SolverConfig(n_starts=1), [e])
    among = min_over_separable(a, d_a, d_b, SolverConfig(n_starts=8), [e])
    assert len(alone[0]) == 2 and len(among[0]) == 9
    # rows come back in value order, so each is found by its whole endpoint
    for value, psi, phi in zip(*alone):
        dev = np.maximum.reduce([np.abs(among[0] - value), np.abs(among[1] - psi).max(axis=1),
                                 np.abs(among[2] - phi).max(axis=1)])
        assert dev.min() <= 1e-14


def test_min_over_separable_budget_between_the_stops(monkeypatch):
    # a budget that runs out after some starts have stopped and while others
    # still run: one row per start in value order, each a start's unit vectors
    # and their value, and every stopped start's endpoint bit for bit as under
    # the default budget
    rng = np.random.default_rng(36)
    a = random_hermitian(rng, 6)
    live = []  # rows of each eigh call: the starts running in each half-step
    eigh = np.linalg.eigh

    def counting_eigh(x):
        live.append(len(x))
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    full = min_over_separable(a, 2, 3, SolverConfig(n_starts=8))
    running = live[::2]  # running[i]: the starts left after i iterations
    budget = next(i for i, k in enumerate(running) if k < 8)  # the first stops
    stopped = 8 - running[budget]
    assert 0 < stopped < 8
    values, psis, phis = min_over_separable(a, 2, 3, SolverConfig(n_starts=8, max_iters=budget))
    assert len(values) == len(psis) == len(phis) == 8
    assert np.all(np.diff(values) >= 0)
    x = np.array([np.kron(p, f) for p, f in zip(psis, phis)])
    rayleigh = np.einsum("ka,ab,kb->k", x.conj(), a, x).real
    assert np.max(np.abs(values - rayleigh)) <= 1e-12
    kept = [any(v == fv and np.array_equal(p, fp) and np.array_equal(f, ff) for fv, fp, ff in zip(*full))
            for v, p, f in zip(values, psis, phis)]
    assert sum(kept) >= stopped


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
    v0 = min_over_separable(a_opt, 2, 2, cfg)[0][0]
    v1 = min_over_separable(shifted, 2, 2, cfg)[0][0]
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


def test_chsh_operator_rejects_nan_settings():
    with pytest.raises(ValueError):
        chsh_operator([np.nan, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])


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
    paulis = generalized_basis(2)
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
