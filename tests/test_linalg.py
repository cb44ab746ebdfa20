import re

import numpy as np
import pytest

from witnesskit.linalg import (
    DimensionMismatchError,
    as_matrix,
    hs_inner,
    hs_norm,
    partial_transpose,
    require_hermitian,
)
from witnesskit.bases import bloch_decompose, generalized_basis
from witnesskit.states import DensityMatrix, haar_unitary, max_entangled
from witnesskit.witness import min_over_separable

from operators import random_hermitian

SX, SY, SZ = generalized_basis(2)


# the library takes tensor products with np.kron and eigendecompositions with
# np.linalg.eigh; these tests pin the conventions it relies on


def test_tensor_product_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_diagonal_paulis():
    assert np.allclose(np.kron(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_tensor_product_sx_sy():
    # expanded by hand from the 2x2 definitions
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ]
    )
    assert np.allclose(np.kron(SX, SY), expected)


def test_tensor_product_associative():
    rng = np.random.default_rng(1)
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    left = np.kron(np.kron(a, b), c)
    right = np.kron(a, np.kron(b, c))
    assert np.allclose(left, right)


def test_tensor_product_trace_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        assert np.isclose(np.trace(np.kron(a, b)), np.trace(a) * np.trace(b))


def test_hs_inner_identity():
    assert hs_inner(np.eye(4), np.eye(4)) == pytest.approx(4)


def test_hs_inner_pauli_orthogonality():
    for i, gi in enumerate((SX, SY, SZ)):
        for j, gj in enumerate((SX, SY, SZ)):
            assert hs_inner(gi, gj) == pytest.approx(2.0 if i == j else 0.0, abs=1e-14)


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


@pytest.mark.parametrize("a, shape", [
    pytest.param(np.zeros((2, 3)), "(2, 3)", id="rectangular"),
    pytest.param(np.zeros(4), "(4,)", id="vector"),
    pytest.param(np.zeros((2, 2, 2)), "(2, 2, 2)", id="stack"),
])
def test_as_matrix_rejects_non_square(a, shape):
    with pytest.raises(DimensionMismatchError, match=f"expected a square matrix, got shape {re.escape(shape)}"):
        as_matrix(a)


def test_hs_inner_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_norm_zero_and_identity():
    assert hs_norm(np.zeros((3, 3))) == 0.0
    assert hs_norm(np.eye(9)) == pytest.approx(3.0)


def test_hs_norm_separates_points():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 4)
    b = a + 1e-8 * np.eye(4)
    assert hs_norm(a - a) == 0.0
    assert hs_norm(a - b) > 0


def test_eig_hermitian_ascending():
    w, _ = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])


def test_eig_hermitian_pauli():
    w, _ = np.linalg.eigh(SX)
    assert np.allclose(w, [-1, 1])


def test_eig_hermitian_projector():
    v = max_entangled(2)
    w, _ = np.linalg.eigh(np.outer(v, v.conj()))
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_hermitian(rng, 5)
        w, v = np.linalg.eigh(a)
        assert hs_norm(v @ np.diag(w) @ v.conj().T - a) <= 1e-9 * max(hs_norm(a), 1)
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-9)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m, 2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            min_over_separable(m, 2, 2)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(6)
    wa = random_hermitian(rng, 2)
    wb = random_hermitian(rng, 3)
    pt = partial_transpose(np.kron(wa, wb), 2, 3)
    assert np.allclose(pt, np.kron(wa, wb.T))


def test_partial_transpose_max_entangled():
    v = max_entangled(2)
    pt = partial_transpose(np.outer(v, v.conj()), 2, 2)
    assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5])


def test_partial_transpose_involution():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(partial_transpose(partial_transpose(m, 2, 3), 2, 3), m)


@pytest.mark.parametrize("d", [2, 3])
def test_partial_transpose_swaps_local_symmetries(d):
    # (u (x) v) A^Gamma (u (x) v)^dag = ((u (x) v*) A (u (x) v*)^dag)^Gamma, so
    # u (x) v fixes A^Gamma exactly when u (x) v* fixes A
    rng = np.random.default_rng(9 + d)
    u, v = haar_unitary(d, rng), haar_unitary(d, rng)
    a = random_hermitian(rng, d * d)
    g, g_conj = np.kron(u, v), np.kron(u, v.conj())
    lhs = g @ partial_transpose(a, d, d) @ g.conj().T
    assert np.allclose(lhs, partial_transpose(g_conj @ a @ g_conj.conj().T, d, d), atol=1e-12)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    m = random_hermitian(rng, 6)
    pt = partial_transpose(m, 3, 2)
    assert np.isclose(np.trace(pt), np.trace(m))
    assert np.allclose(pt, pt.conj().T)


# every operator on C^d_a (x) C^d_b passes one shape check, so the same bad
# dimensions fail with the same message at each entry point; a factor of
# dimension 1 is not bipartite, even where the matrix size fits
@pytest.mark.parametrize("n, d_a, d_b, error, message", [
    pytest.param(4, 2.0, 2, ValueError, "d_a must be an integer, got 2.0", id="float"),
    pytest.param(4, 2, True, ValueError, "d_b must be an integer, got True", id="bool"),
    pytest.param(4, 0, 4, ValueError, "need d_a >= 2, got 0", id="zero"),
    pytest.param(4, -2, -2, ValueError, "need d_a >= 2, got -2", id="negative"),
    pytest.param(4, 4, 1, ValueError, "need d_b >= 2, got 1", id="one-factor"),
    pytest.param(1, 1, 1, ValueError, "need d_a >= 2, got 1", id="one-by-one"),
    pytest.param(4, 2, 3, DimensionMismatchError, "matrix dim 4 != d_a*d_b = 6", id="mismatch"),
])
@pytest.mark.parametrize("entry", [partial_transpose, min_over_separable, DensityMatrix, bloch_decompose],
                         ids=lambda f: f.__name__)
def test_bipartite_shape_check(entry, n, d_a, d_b, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        entry(np.eye(n) / n, d_a, d_b)
