import numpy as np
import pytest

from witnesskit.bases import (
    BlochVector,
    bloch_compose,
    bloch_decompose,
    generalized_basis,
)
from witnesskit.linalg import DimensionMismatchError, hs_inner
from witnesskit.states import DensityMatrix, isotropic


def generator_class(g):
    """The class of a generalized Gell-Mann generator, read off its matrix."""
    if np.array_equal(g, np.diag(np.diag(g))):
        return "diagonal"
    if np.array_equal(g.T, g):
        return "symmetric"
    assert np.array_equal(g.T, -g)
    return "antisymmetric"


def test_pauli_traceless_and_normalized():
    b = generalized_basis(2)
    for g in b:
        assert abs(np.trace(g)) == 0
    assert hs_inner(b[2], b[2]) == pytest.approx(2)


def test_pauli_algebra():
    sx, sy, sz = generalized_basis(2)
    assert np.allclose(sx @ sy, 1j * sz)


def test_gell_mann_entries():
    lam = generalized_basis(3)
    assert np.allclose(lam[7], np.diag([1, 1, -2]) / np.sqrt(3))
    assert lam[1][0, 1] == pytest.approx(-1j)
    assert np.allclose(lam[2], np.diag([1, -1, 0]))


def test_gell_mann_orthogonality():
    lam = generalized_basis(3)
    for i in range(8):
        for j in range(8):
            expect = 2.0 if i == j else 0.0
            assert hs_inner(lam[i], lam[j]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 10))
def test_generalized_basis_invariants(d):
    # traceless and orthogonal with Tr g^i g^j = 2 delta_ij, stacked as one complex array
    g = generalized_basis(d)
    assert g.shape == (d**2 - 1, d, d) and g.dtype == complex
    assert np.allclose(np.einsum("iaa->i", g), 0, rtol=0, atol=1e-12)
    gram = np.einsum("iab,jba->ij", g, g)  # Tr(g^i g^j)
    assert np.allclose(gram, 2 * np.eye(d**2 - 1), rtol=0, atol=1e-12)


def test_generalized_basis_class_counts():
    classes = [generator_class(g) for g in generalized_basis(4)]
    assert classes == ["symmetric"] * 6 + ["antisymmetric"] * 6 + ["diagonal"] * 3


def test_generalized_reduces_to_pauli():
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    b = generalized_basis(2)
    for g, p in zip(b, (sx, sy, sz)):
        assert np.array_equal(g, p)
    assert [generator_class(g) for g in b] == ["symmetric", "antisymmetric", "diagonal"]


def test_generalized_reduces_to_gell_mann():
    # d = 3 is permuted into the conventional lambda^1..lambda^8 order
    lam = generalized_basis(3)
    assert np.allclose(lam[0], np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    assert np.allclose(lam[5], np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert np.allclose(lam[6], np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]))
    assert [generator_class(g) for g in lam] == [
        "symmetric", "antisymmetric", "diagonal", "symmetric", "antisymmetric",
        "symmetric", "antisymmetric", "diagonal"]


def test_generalized_basis_rejects_small_d():
    with pytest.raises(ValueError):
        generalized_basis(1)


@pytest.mark.parametrize("d_a", [2.0, 2.5, True])
def test_bloch_rejects_non_integer_dimensions(d_a):
    # the shape check refuses them before any basis is built
    with pytest.raises(ValueError, match=f"d_a must be an integer, got {d_a!r}"):
        bloch_decompose(np.eye(4) / 4, d_a, 2)


def test_bloch_decompose_maximally_mixed():
    v = bloch_decompose(np.eye(4) / 4, 2, 2)
    assert np.allclose(v.a, 0)
    assert np.allclose(v.b, 0)
    assert np.allclose(v.c, 0)


def test_bloch_decompose_isotropic_qubit():
    alpha = 0.7
    v = bloch_decompose(isotropic(2, alpha).matrix, 2, 2)
    assert np.allclose(v.a, 0, atol=1e-12)
    assert np.allclose(v.b, 0, atol=1e-12)
    assert np.allclose(v.c, alpha * np.diag([1, -1, 1]), atol=1e-12)


def test_bloch_decompose_isotropic_qutrit():
    alpha = 0.5
    v = bloch_decompose(isotropic(3, alpha).matrix, 3, 3)
    signs = np.array([1, -1, 1, 1, -1, 1, -1, 1])
    assert np.allclose(v.c, (3 * alpha / 2) * np.diag(signs), atol=1e-12)


def test_bloch_compose_zero_vector():
    v = BlochVector(np.zeros(8), np.zeros(8), np.zeros((8, 8)))
    assert np.allclose(bloch_compose(v, 3, 3), np.eye(9) / 9)


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
def test_bloch_round_trip(da, db):
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_density(rng, da * db)
        v = bloch_decompose(rho, da, db)
        assert np.allclose(bloch_compose(v, da, db), rho, atol=1e-9)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: bloch_decompose(np.eye(3) / 3, 2, 2),
                 r"matrix dim 3 != d_a\*d_b = 4", id="decompose-size"),
    pytest.param(lambda: bloch_decompose(np.eye(4) / 4, 2, 3),
                 r"matrix dim 4 != d_a\*d_b = 6", id="decompose-bases"),
    pytest.param(lambda: bloch_compose(BlochVector(np.zeros(2), np.zeros(3), np.zeros((3, 3))), 2, 2),
                 "coefficient lengths do not match", id="compose-a"),
    pytest.param(lambda: bloch_compose(BlochVector(np.zeros(3), np.zeros(3), np.zeros((3, 8))), 2, 2),
                 "coefficient lengths do not match", id="compose-c"),
])
def test_bloch_rejects_mismatched_dimensions(build, match):
    with pytest.raises(DimensionMismatchError, match=match):
        build()


def test_bloch_decompose_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    with pytest.raises(ValueError):
        bloch_decompose(m, 2, 2)

