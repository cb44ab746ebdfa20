import json

import numpy as np
import pytest

from witnesskit.states import (
    DensityMatrix,
    GammaFormError,
    IsotropicParams,
    ProductEnsemble,
    density_from_json,
    density_to_json,
    gamma_operator,
    gamma_signs,
    is_ppt,
    isotropic,
    isotropic_gamma_form,
    isotropic_separability,
    max_entangled,
    twirl_invariance_check,
)
from witnesskit.bases import ANTISYMMETRIC, generalized_basis
from witnesskit.linalg import hs_norm


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
    assert isotropic_separability(2, 1 / 3) == "separable"
    assert isotropic_separability(3, 0.3) == "entangled"
    assert isotropic_separability(4, 0.2) == "separable"


@pytest.mark.parametrize("d,expected", [
    (2, [1, -1, 1]),
    (3, [1, -1, 1, 1, -1, 1, -1, 1]),
])
def test_gamma_signs_printed_patterns(d, expected):
    assert gamma_signs(d).tolist() == expected


def test_gamma_signs_minus_on_antisymmetric():
    for d in (4, 5):
        basis = generalized_basis(d)
        signs = gamma_signs(d, basis)
        for s, label in zip(signs, basis.labels):
            assert (s == -1) == (label == ANTISYMMETRIC)


def test_gamma_signs_reports_bad_basis():
    # mixing a symmetric with an antisymmetric generator (whose expansion
    # signs differ) turns the diagonal form into cross terms
    basis = generalized_basis(2)
    gens = list(basis.generators)
    gens[0], gens[1] = (
        (gens[0] + gens[1]) / np.sqrt(2),
        (gens[0] - gens[1]) / np.sqrt(2),
    )
    from witnesskit.bases import BasisSet

    rotated = BasisSet(2, tuple(gens), basis.labels)
    with pytest.raises(GammaFormError):
        gamma_signs(2, rotated)


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
    e = ProductEnsemble(((1.0, [1, 0], [1, 0]),))
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
    rho = ProductEnsemble(tuple(terms)).to_density()
    assert np.allclose(rho.matrix, np.eye(9) / 9)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ProductEnsemble(((0.5, [1, 0], [1, 0]),))  # weights don't sum to 1
    with pytest.raises(ValueError):
        ProductEnsemble(((1.0, [2, 0], [1, 0]),))  # non-unit vector


def test_ensemble_states_are_ppt():
    rng = np.random.default_rng(13)
    terms = []
    weights = rng.random(5)
    weights /= weights.sum()
    for w in weights:
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        terms.append((w, psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)))
    assert is_ppt(ProductEnsemble(tuple(terms)).to_density())


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
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), 2, 1)  # not PSD


def test_density_json_round_trip():
    rho = isotropic(3, 0.4)
    obj = density_to_json(rho)
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
])
def test_density_from_json_rejects_malformed_entries(entries):
    with pytest.raises(ValueError):
        density_from_json({"d_a": 2, "d_b": 2, "entries": entries})


@pytest.mark.parametrize("d_a", ["1e400", "Infinity", "2.7", "2.0", "true", '"2"', "null", "0", "-2"])
def test_density_from_json_rejects_malformed_dimensions(d_a):
    entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
    obj = json.loads(f'{{"d_a": {d_a}, "d_b": 2, "entries": {json.dumps(entries)}}}')
    with pytest.raises(ValueError, match="positive integer d_a, d_b"):
        density_from_json(obj)


def test_isotropic_params_threshold():
    assert IsotropicParams(5, 0.5).threshold == pytest.approx(1 / 6)
