import json
import re
from functools import partial

import numpy as np
import pytest

from witnesskit.states import (
    DensityMatrix,
    IsotropicParams,
    ProductEnsemble,
    density_from_json,
    density_to_json,
    gamma_operator,
    gamma_signs,
    is_ppt,
    isotropic,
    isotropic_gamma_form,
    max_entangled,
    twirl_invariance_check,
)
from witnesskit.bases import bloch_decompose, generalized_basis
from witnesskit.linalg import hs_norm
from witnesskit.measures import hs_measure_isotropic
from witnesskit.witness import MAX_STARTS, SolverConfig


def test_max_entangled_d2():
    assert np.allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_d3():
    v = max_entangled(3)
    assert np.allclose(v[[0, 4, 8]], 1 / np.sqrt(3))
    assert np.count_nonzero(v) == 3


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_max_entangled_normalized(d):
    assert np.linalg.norm(max_entangled(d)) == pytest.approx(1.0)


def test_isotropic_qubit_matrix():
    alpha = 0.6
    m = isotropic(2, alpha).matrix
    assert m[0, 0] == pytest.approx((1 + alpha) / 4)
    assert m[1, 1] == pytest.approx((1 - alpha) / 4)
    assert m[0, 3] == pytest.approx(alpha / 2)


def test_isotropic_qutrit_matrix():
    alpha = 0.6
    m = isotropic(3, alpha).matrix
    assert m[0, 0] == pytest.approx((1 + 2 * alpha) / 9)
    assert m[1, 1] == pytest.approx((1 - alpha) / 9)
    assert m[0, 4] == pytest.approx(alpha / 3)


def test_isotropic_alpha_zero_is_maximally_mixed():
    assert np.allclose(isotropic(4, 0.0).matrix, np.eye(16) / 16)


def test_isotropic_eigenvalues():
    for d, alpha in [(2, 0.5), (3, 0.9), (4, -1 / 15)]:
        w = np.linalg.eigvalsh(isotropic(d, alpha).matrix)
        expected = np.full(d * d, (1 - alpha) / d**2)
        expected[-1] = alpha + (1 - alpha) / d**2
        assert np.allclose(np.sort(w), np.sort(expected))


def test_isotropic_alpha_out_of_range():
    with pytest.raises(ValueError):
        isotropic(2, 1.2)
    with pytest.raises(ValueError):
        isotropic(3, -0.2)


def test_isotropic_separability_boundary():
    assert IsotropicParams(2, 1 / 3).separable
    assert not IsotropicParams(3, 0.3).separable
    assert IsotropicParams(4, 0.2).separable


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_isotropic_separability_readers_agree(d):
    # a grid over the whole alpha range, the threshold and its neighbouring floats
    threshold = 1 / (d + 1)
    assert IsotropicParams(d, threshold).separable
    alphas = [*np.linspace(-1 / (d**2 - 1), 1, 41), threshold,
              np.nextafter(threshold, 0), np.nextafter(threshold, 1)]
    for alpha in alphas:
        p = IsotropicParams(d, alpha)
        assert p.separable == (alpha <= threshold)
        assert (hs_measure_isotropic(d, alpha) == 0) == p.separable


@pytest.mark.parametrize("d,expected", [
    (2, [1, -1, 1]),
    (3, [1, -1, 1, 1, -1, 1, -1, 1]),
])
def test_gamma_signs_printed_patterns(d, expected):
    assert gamma_signs(d).tolist() == expected


def test_gamma_signs_minus_on_antisymmetric():
    for d in (4, 5, 12):
        antisymmetric = [np.array_equal(g.T, -g) for g in generalized_basis(d)]
        assert ((gamma_signs(d) == -1) == antisymmetric).all()


@pytest.mark.parametrize("d", [*range(2, 9), 12])
def test_gamma_correlation_block_is_signed_identity(d):
    # gamma_signs gives the diagonal's signs as those of Tr(g g^T); the block itself, of
    # |phi+><phi+| = (1/d^2)(1 + (d/2) Gamma), must have no marginal or cross terms, and -1
    # exactly on the antisymmetric generators
    v = max_entangled(d)
    c = bloch_decompose(np.outer(v, v.conj()), d, d)
    antisymmetric = np.array([np.array_equal(g.T, -g) for g in generalized_basis(d)])
    assert np.allclose(c, np.diag([1, *(d / 2 * np.where(antisymmetric, -1, 1))]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_gamma_form_matches_isotropic(d):
    for alpha in (-1 / (d**2 - 1), 0.0, 1 / (d + 1), 1.0):
        a = isotropic_gamma_form(d, alpha).matrix
        b = isotropic(d, alpha).matrix
        assert np.max(np.abs(a - b)) <= 1e-10


def test_gamma_operator_norm():
    # ||Gamma||^2 = 4 (d^2 - 1)
    for d in (2, 3, 4):
        assert hs_norm(gamma_operator(d)) == pytest.approx(2 * np.sqrt(d**2 - 1))


def test_twirl_invariance_isotropic():
    assert twirl_invariance_check(isotropic(3, 0.7), 20, seed=0) <= 1e-10


def test_twirl_invariance_maximally_mixed():
    rho = DensityMatrix(np.eye(9) / 9, 3, 3)
    assert twirl_invariance_check(rho, 10, seed=1) <= 1e-12


def test_twirl_detects_non_isotropic():
    rho = DensityMatrix(np.diag([0.6, 0.2, 0.1, 0.1]).astype(complex), 2, 2)
    assert twirl_invariance_check(rho, 10, seed=2) > 0.01


def test_ensemble_single_term():
    e = ProductEnsemble([1.0], [[1, 0]], [[1, 0]])
    assert np.allclose(e.to_density().matrix, np.diag([1, 0, 0, 0]))


def test_ensemble_uniform_computational():
    d = 3
    terms = []
    for i in range(d):
        for j in range(d):
            psi = np.zeros(d)
            phi = np.zeros(d)
            psi[i] = 1
            phi[j] = 1
            terms.append((1 / d**2, psi, phi))
    rho = ProductEnsemble(*zip(*terms)).to_density()
    assert np.allclose(rho.matrix, np.eye(9) / 9)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ProductEnsemble([0.5], [[1, 0]], [[1, 0]])  # weights don't sum to 1
    with pytest.raises(ValueError):
        ProductEnsemble([1.0], [[2, 0]], [[1, 0]])  # non-unit vector


def test_ensemble_matches_kron_sum():
    rng = np.random.default_rng(14)
    w = rng.random(7)
    w /= w.sum()
    psis = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    phis = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    e = ProductEnsemble(w, psis, phis)
    reference = np.zeros((6, 6), dtype=complex)
    for p, a, b in zip(w, psis, phis):
        x = np.kron(a, b)
        reference += p * np.outer(x, x.conj())
    assert np.max(np.abs(e.to_matrix() - reference)) <= 1e-14
    rho = e.to_density()
    assert (rho.d_a, rho.d_b) == (2, 3)
    assert len(e.terms) == 7
    for (p, a, b), q, x, y in zip(e.terms, w, psis, phis):
        assert p == q and np.array_equal(a, x) and np.array_equal(b, y)


@pytest.mark.parametrize("weights,psis,phis,match", [
    ([], np.zeros((0, 2)), np.zeros((0, 2)), "at least one term"),
    ([0.5, 0.5], [[1, 0]], [[1, 0], [0, 1]], r"got shapes \(2,\), \(1, 2\) and \(2, 2\)"),
    ([1.5, -0.5], [[1, 0], [0, 1]], [[1, 0], [0, 1]], "weight 1.5 outside"),
    ([0.5, 0.5], [[1, 0], [0, 1]], [[1, 0], [0, 0.5]], "unit norm"),
    ([1.0], [[np.nan, 0]], [[1, 0]], "unit norm"),
    ([np.nan], [[1, 0]], [[1, 0]], "weight nan outside"),
    (1.0, [[1, 0]], [[1, 0]], r"got shapes \(\),"),
    ([1.0], [1, 0], [[1, 0]], r"\(1,\), \(2,\) and"),
])
def test_ensemble_rejects(weights, psis, phis, match):
    with pytest.raises(ValueError, match=match):
        ProductEnsemble(weights, psis, phis)


def test_ensemble_states_are_ppt():
    rng = np.random.default_rng(13)
    terms = []
    weights = rng.random(5)
    weights /= weights.sum()
    for w in weights:
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        terms.append((w, psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
    assert is_ppt(ProductEnsemble(*zip(*terms)).to_density())


def test_is_ppt_isotropic():
    assert is_ppt(isotropic(2, 1 / 3))
    assert not is_ppt(isotropic(2, 0.5))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ppt_threshold_on_grid(d):
    # PPT flips exactly at 1/(d+1) on an alpha grid of step 0.01
    thr = 1 / (d + 1)
    for alpha in np.arange(-1 / (d**2 - 1) + 0.01, 1.0, 0.01):
        assert is_ppt(isotropic(d, alpha)) == (alpha <= thr + 1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2, 2, 2)  # trace 2
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex), 2, 2)


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: DensityMatrix(np.eye(2) / 2, 0, 2), ValueError, "need d_a >= 2, got 0",
                 id="density-d_a-0"),
    pytest.param(lambda: DensityMatrix(np.eye(2) / 2, 2, -1), ValueError, "need d_b >= 2, got -1",
                 id="density-d_b-negative"),
    pytest.param(lambda: DensityMatrix(np.eye(3) / 3, 2, 2), ValueError, r"matrix dim 3 != d_a\*d_b = 4",
                 id="density-size"),
    pytest.param(lambda: IsotropicParams(1, 0.5), ValueError, "need d >= 2, got 1", id="isotropic-d-1"),
    pytest.param(lambda: max_entangled(1), ValueError, "need d >= 2, got 1", id="max-entangled-d-1"),
    pytest.param(lambda: twirl_invariance_check(DensityMatrix(np.eye(6) / 6, 2, 3), 1), ValueError,
                 "equal subsystem dimensions", id="twirl-unequal"),
    pytest.param(lambda: twirl_invariance_check(isotropic(2, 0.0), 0), ValueError,
                 "need trials >= 1, got 0", id="twirl-no-trials"),
    pytest.param(lambda: twirl_invariance_check(isotropic(2, 0.0), -3), ValueError,
                 "need trials >= 1, got -3", id="twirl-negative-trials"),
    pytest.param(lambda: twirl_invariance_check(isotropic(2, 0.0), 2.5), ValueError,
                 "trials must be an integer, got 2.5", id="twirl-fractional-trials"),
    pytest.param(lambda: twirl_invariance_check(isotropic(2, 0.0), True), ValueError,
                 "trials must be an integer, got True", id="twirl-bool-trials"),
    pytest.param(lambda: IsotropicParams(10**200, 0.5), ValueError, f"d = {10**200} is too large",
                 id="isotropic-d-past-float-range"),
    # a dimension is an integer: a float or a bool is refused by name, not left to numpy
    pytest.param(lambda: DensityMatrix(np.eye(4) / 4, 2.0, 2), ValueError,
                 "d_a must be an integer, got 2.0", id="density-float-d_a"),
    pytest.param(lambda: DensityMatrix(np.eye(4) / 4, True, 4), ValueError,
                 "d_a must be an integer, got True", id="density-bool-d_a"),
    pytest.param(lambda: DensityMatrix(np.eye(4) / 4, 2, 2.0), ValueError,
                 "d_b must be an integer, got 2.0", id="density-float-d_b"),
    pytest.param(lambda: IsotropicParams(2.5, 0.5), ValueError, "d must be an integer, got 2.5",
                 id="isotropic-fractional-d"),
    pytest.param(lambda: IsotropicParams(True, 0.5), ValueError, "d must be an integer, got True",
                 id="isotropic-bool-d"),
    pytest.param(lambda: hs_measure_isotropic(2.5, 0.9), ValueError, "d must be an integer, got 2.5",
                 id="hs-measure-fractional-d"),
    pytest.param(lambda: isotropic(2.0, 0.9), ValueError, "d must be an integer, got 2.0",
                 id="isotropic-float-d"),
    pytest.param(lambda: max_entangled(2.5), ValueError, "d must be an integer, got 2.5",
                 id="max-entangled-fractional-d"),
    pytest.param(lambda: gamma_signs(2.5), ValueError, "d must be an integer, got 2.5",
                 id="gamma-signs-fractional-d"),
    # the solver's counts and seed pass the same integer check
    pytest.param(partial(SolverConfig, n_starts=True), ValueError, "n_starts must be an integer, got True",
                 id="solver-bool-n_starts"),
    pytest.param(partial(SolverConfig, n_starts=2.0), ValueError, "n_starts must be an integer, got 2.0",
                 id="solver-float-n_starts"),
    pytest.param(partial(SolverConfig, n_starts=None), ValueError, "n_starts must be an integer, got None",
                 id="solver-none-n_starts"),
    pytest.param(partial(SolverConfig, n_starts=0), ValueError, "need n_starts >= 1, got 0",
                 id="solver-n_starts-0"),
    pytest.param(partial(SolverConfig, n_starts=-1), ValueError, "need n_starts >= 1, got -1",
                 id="solver-n_starts-negative"),
    pytest.param(partial(SolverConfig, n_starts="abc"), ValueError, "n_starts must be an integer, got 'abc'",
                 id="solver-str-n_starts"),
    # refused before the solver allocates anything
    pytest.param(partial(SolverConfig, n_starts=MAX_STARTS + 1), ValueError,
                 f"need n_starts <= {MAX_STARTS}, got {MAX_STARTS + 1}", id="solver-n_starts-above-cap"),
    pytest.param(partial(SolverConfig, max_iters=True), ValueError, "max_iters must be an integer, got True",
                 id="solver-bool-max_iters"),
    pytest.param(partial(SolverConfig, max_iters=2.0), ValueError, "max_iters must be an integer, got 2.0",
                 id="solver-float-max_iters"),
    pytest.param(partial(SolverConfig, max_iters=None), ValueError, "max_iters must be an integer, got None",
                 id="solver-none-max_iters"),
    pytest.param(partial(SolverConfig, max_iters=0), ValueError, "need max_iters >= 1, got 0",
                 id="solver-max_iters-0"),
    pytest.param(partial(SolverConfig, seed=True), ValueError, "seed must be an integer, got True",
                 id="solver-bool-seed"),
    pytest.param(partial(SolverConfig, seed=2.0), ValueError, "seed must be an integer, got 2.0",
                 id="solver-float-seed"),
    pytest.param(partial(SolverConfig, seed=None), ValueError, "seed must be an integer, got None",
                 id="solver-none-seed"),
    pytest.param(partial(SolverConfig, seed=-1), ValueError, "need seed >= 0, got -1",
                 id="solver-seed-negative"),
])
def test_states_reject_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_density_json_round_trip():
    for d in (3, np.int64(3)):
        rho = isotropic(d, 0.4)
        obj = json.loads(json.dumps(density_to_json(rho)))
        assert set(obj) == {"d_a", "d_b", "entries"}
        assert len(obj["entries"]) == 81
        back = density_from_json(obj)
        assert back.d_a == 3 and back.d_b == 3
        assert np.allclose(back.matrix, rho.matrix)


@pytest.mark.parametrize("entries", [
    5,
    None,
    [0.25] * 16,
    [[0.25, 0.0, 0.0]] * 16,
    [["0.25", "0"]] * 16,
    [[0.25, None]] * 16,
    [[10**400, 0.0]] + [[0.0, 0.0]] * 15,  # overflows a float
    [[True, False]] + [[0.0, 0.0]] * 15,  # JSON booleans are not numbers
])
def test_density_from_json_rejects_malformed_entries(entries):
    with pytest.raises(ValueError, match=r"\[re, im\] number pairs"):
        density_from_json({"d_a": 2, "d_b": 2, "entries": entries})


# the JSON message carries the reason require_integer gives
@pytest.mark.parametrize("d_a, reason", [pytest.param(d_a, reason, id=d_a) for d_a, reason in [
    ("1e400", "d_a must be an integer, got inf"),
    ("Infinity", "d_a must be an integer, got inf"),
    ("2.7", "d_a must be an integer, got 2.7"),
    ("2.0", "d_a must be an integer, got 2.0"),
    ("true", "d_a must be an integer, got True"),
    ('"2"', "d_a must be an integer, got '2'"),
    ("null", "d_a must be an integer, got None"),
    ("1", "need d_a >= 2, got 1"),
    ("0", "need d_a >= 2, got 0"),
    ("-2", "need d_a >= 2, got -2"),
]])
def test_density_from_json_rejects_malformed_dimensions(d_a, reason):
    entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
    obj = json.loads(f'{{"d_a": {d_a}, "d_b": 2, "entries": {json.dumps(entries)}}}')
    with pytest.raises(ValueError, match=re.escape(f"integer d_a, d_b >= 2 and 'entries' as a list "
                                                   f"of [re, im] number pairs ({reason})")):
        density_from_json(obj)


def test_isotropic_params_threshold():
    assert IsotropicParams(5, 0.5).threshold == pytest.approx(1 / 6)
