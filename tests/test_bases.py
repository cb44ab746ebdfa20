import numpy as np
import pytest

from witnesskit.bases import (
    ANTISYMMETRIC,
    DIAGONAL,
    SYMMETRIC,
    bloch_compose,
    bloch_decompose,
    gell_mann_basis,
    generalized_basis,
    pauli_basis,
)
from witnesskit.linalg import hs_inner
from witnesskit.states import DensityMatrix, isotropic


def test_pauli_traceless_and_normalized():
    b = pauli_basis()
    for g in b.generators:
        assert abs(np.trace(g)) == 0
    assert hs_inner(b.generators[2], b.generators[2]) == pytest.approx(2)


def test_pauli_algebra():
    sx, sy, sz = pauli_basis().generators
    assert np.allclose(sx @ sy, 1j * sz)


def test_gell_mann_entries():
    lam = gell_mann_basis().generators
    assert np.allclose(lam[7], np.diag([1, 1, -2]) / np.sqrt(3))
    assert lam[1][0, 1] == pytest.approx(-1j)
    assert np.allclose(lam[2], np.diag([1, -1, 0]))


def test_gell_mann_orthogonality():
    lam = gell_mann_basis().generators
    for i in range(8):
        for j in range(8):
            expect = 2.0 if i == j else 0.0
            assert hs_inner(lam[i], lam[j]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 10))
def test_generalized_basis_invariants(d):
    b = generalized_basis(d)
    assert len(b.generators) == d**2 - 1
    b.validate()


def test_generalized_basis_class_counts():
    b = generalized_basis(4)
    assert b.labels.count(SYMMETRIC) == 6
    assert b.labels.count(ANTISYMMETRIC) == 6
    assert b.labels.count(DIAGONAL) == 3


def test_generalized_reduces_to_pauli():
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    b = generalized_basis(2)
    for g, p in zip(b.generators, (sx, sy, sz)):
        assert np.array_equal(g, p)
    assert b.labels == (SYMMETRIC, ANTISYMMETRIC, DIAGONAL)


def test_generalized_reduces_to_gell_mann():
    # d = 3 is permuted into the conventional lambda^1..lambda^8 order
    lam = gell_mann_basis().generators
    assert np.allclose(lam[0], np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    assert np.allclose(lam[5], np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert np.allclose(lam[6], np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]))


def test_generalized_basis_rejects_small_d():
    with pytest.raises(ValueError):
        generalized_basis(1)


def test_bloch_decompose_maximally_mixed():
    b = pauli_basis()
    v = bloch_decompose(np.eye(4) / 4, b, b)
    assert np.allclose(v.a, 0)
    assert np.allclose(v.b, 0)
    assert np.allclose(v.c, 0)


def test_bloch_decompose_isotropic_qubit():
    b = pauli_basis()
    alpha = 0.7
    v = bloch_decompose(isotropic(2, alpha), b, b)
    assert np.allclose(v.a, 0, atol=1e-12)
    assert np.allclose(v.b, 0, atol=1e-12)
    assert np.allclose(v.c, alpha * np.diag([1, -1, 1]), atol=1e-12)


def test_bloch_decompose_isotropic_qutrit():
    b = gell_mann_basis()
    alpha = 0.5
    v = bloch_decompose(isotropic(3, alpha), b, b)
    signs = np.array([1, -1, 1, 1, -1, 1, -1, 1])
    assert np.allclose(v.c, (3 * alpha / 2) * np.diag(signs), atol=1e-12)


def test_bloch_compose_zero_vector():
    b = gell_mann_basis()
    from witnesskit.bases import BlochVector

    v = BlochVector(3, 3, np.zeros(8), np.zeros(8), np.zeros((8, 8)))
    assert np.allclose(bloch_compose(v, b, b), np.eye(9) / 9)


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
def test_bloch_round_trip(da, db):
    ba, bb = generalized_basis(da), generalized_basis(db)
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_density(rng, da * db)
        v = bloch_decompose(rho, ba, bb)
        assert np.allclose(bloch_compose(v, ba, bb), rho, atol=1e-9)


def test_bloch_decompose_rejects_non_hermitian():
    b = pauli_basis()
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    with pytest.raises(ValueError):
        bloch_decompose(m, b, b)

