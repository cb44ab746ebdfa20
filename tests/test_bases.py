import numpy as np
import pytest

from witnesskit.bases import _weyl_operators, bloch_compose, bloch_decompose, generalized_basis
from witnesskit.linalg import DimensionMismatchError, hs_inner
from witnesskit.states import DensityMatrix, isotropic, max_entangled


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
    # for d >= 4 the blocks keep their order: the i-th symmetric and the i-th
    # antisymmetric generator sit on the i-th pair j < k in lexicographic order,
    # then the diagonal generator l is sqrt(2/(l(l+1))) (1, .., 1, -l, 0, ..)
    for d in (4, 5):
        g = generalized_basis(d)
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
        n = len(pairs)
        classes = [generator_class(x) for x in g]
        assert classes == ["symmetric"] * n + ["antisymmetric"] * n + ["diagonal"] * (d - 1)
        for i, (j, k) in enumerate(pairs):
            for x in (g[i], g[n + i]):
                assert {tuple(map(int, jk)) for jk in np.argwhere(x)} == {(j, k), (k, j)}
            assert (g[i][j, k], g[n + i][j, k]) == (1, -1j)
        for l in range(1, d):
            diag = np.sqrt(2 / (l * (l + 1))) * np.array([1] * l + [-l] + [0] * (d - l - 1))
            assert np.array_equal(np.diag(g[2 * n + l - 1]), diag)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_weyl_operators(d):
    # d^2 unitaries, orthogonal in the Hilbert-Schmidt product, X at d and Z
    # at 1, and W (x) W* fixes the maximally entangled vector
    w = _weyl_operators(d)
    assert w.shape == (d * d, d, d)
    assert np.allclose(np.einsum("kab,lab->kl", w.conj(), w), d * np.eye(d * d), atol=1e-12)
    assert np.array_equal(w[d], np.roll(np.eye(d), 1, axis=0))
    assert np.allclose(w[1], np.diag(np.exp(2j * np.pi * np.arange(d) / d)), atol=1e-15)
    assert np.allclose(w[d + 1], w[d] @ w[1], atol=1e-15)
    phi = max_entangled(d)
    for u in w:
        assert np.allclose(np.kron(u, u.conj()) @ phi, phi, atol=1e-12)


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
    # the dimension check refuses them before any basis is built
    with pytest.raises(ValueError, match=f"d_a must be an integer, got {d_a!r}"):
        bloch_decompose(np.eye(4) / 4, d_a, 2)


def test_bloch_decompose_maximally_mixed():
    c = bloch_decompose(np.eye(4) / 4, 2, 2)
    assert c.shape == (4, 4) and c.dtype == float
    assert np.allclose(c, np.diag([1, 0, 0, 0]))


def test_bloch_decompose_isotropic_qubit():
    alpha = 0.7
    c = bloch_decompose(isotropic(2, alpha).matrix, 2, 2)
    assert np.allclose(c, np.diag([1, alpha, -alpha, alpha]), atol=1e-12)


def test_bloch_decompose_isotropic_qutrit():
    alpha = 0.5
    c = bloch_decompose(isotropic(3, alpha).matrix, 3, 3)
    signs = np.array([1, -1, 1, 1, -1, 1, -1, 1])
    assert np.allclose(c, np.diag([1, *((3 * alpha / 2) * signs)]), atol=1e-12)


def test_bloch_compose_zero_vector():
    c = np.zeros((9, 9))
    c[0, 0] = 1
    assert np.allclose(bloch_compose(c, 3, 3), np.eye(9) / 9)


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_bloch_round_trip(da, db):
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_density(rng, da * db)
        c = bloch_decompose(rho, da, db)
        assert c.shape == (da**2, db**2)
        assert np.allclose(bloch_compose(c, da, db), rho, atol=1e-9)


def test_bloch_matrix_blocks_are_traces():
    # each block against Tr(rho g^i x g^j) computed directly, one entry at a time
    da, db = 2, 3
    rho = random_density(np.random.default_rng(5), da * db)
    ga, gb = generalized_basis(da), generalized_basis(db)
    c = bloch_decompose(rho, da, db)
    assert c[0, 0] == pytest.approx(1, abs=1e-12)
    for i, g in enumerate(ga, 1):
        assert c[i, 0] == pytest.approx(da / 2 * np.trace(rho @ np.kron(g, np.eye(db))).real, abs=1e-12)
    for j, h in enumerate(gb, 1):
        assert c[0, j] == pytest.approx(db / 2 * np.trace(rho @ np.kron(np.eye(da), h)).real, abs=1e-12)
    for i, g in enumerate(ga, 1):
        for j, h in enumerate(gb, 1):
            assert c[i, j] == pytest.approx(da * db / 4 * np.trace(rho @ np.kron(g, h)).real, abs=1e-12)


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: bloch_decompose(np.eye(3) / 3, 2, 2), DimensionMismatchError,
                 r"matrix dim 3 != d_a\*d_b = 4", id="decompose-size"),
    pytest.param(lambda: bloch_decompose(np.eye(4) / 4, 2, 3), DimensionMismatchError,
                 r"matrix dim 4 != d_a\*d_b = 6", id="decompose-bases"),
    pytest.param(lambda: bloch_compose(np.zeros((4, 4)), 2.0, 2), ValueError,
                 r"^d_a must be an integer, got 2\.0$", id="compose-float"),
    # a one-dimensional factor is refused under its own name, before any basis is built
    pytest.param(lambda: bloch_decompose(np.eye(2) / 2, 1, 2), ValueError,
                 r"^need d_a >= 2, got 1$", id="decompose-one"),
    pytest.param(lambda: bloch_compose(np.zeros((4, 1)), 2, 1), ValueError,
                 r"^need d_b >= 2, got 1$", id="compose-one"),
    # an a block C[1:, 0] of 2 entries, and a (3, 8) c block C[1:, 1:], for 2x2
    pytest.param(lambda: bloch_compose(np.zeros((3, 4)), 2, 2), DimensionMismatchError,
                 r"^Bloch matrix shape \(3, 4\) != \(d_a\^2, d_b\^2\) = \(4, 4\)$", id="compose-a"),
    pytest.param(lambda: bloch_compose(np.zeros((4, 9)), 2, 2), DimensionMismatchError,
                 r"^Bloch matrix shape \(4, 9\) != \(d_a\^2, d_b\^2\) = \(4, 4\)$", id="compose-c"),
])
def test_bloch_rejects_mismatched_dimensions(build, error, match):
    with pytest.raises(error, match=match):
        build()


def with_entry(index, value):
    m = np.eye(4, dtype=complex) / 4
    m[index] = value
    return m


# the one require_hermitian check: NaN and inf fail it as a non-Hermitian entry does
@pytest.mark.parametrize("m, match", [
    pytest.param(with_entry((0, 1), 0.3), r"^matrix is not Hermitian \(max deviation 3\.000e-01 > 1\.0e-10\)$",
                 id="non-hermitian"),
    pytest.param(with_entry((0, 0), np.nan), r"^matrix has 1 non-finite \(NaN or inf\) entries$", id="nan"),
    pytest.param(with_entry((0, 0), np.inf), r"^matrix has 1 non-finite \(NaN or inf\) entries$", id="inf"),
])
def test_bloch_decompose_rejects_non_hermitian(m, match):
    with pytest.raises(ValueError, match=match):
        bloch_decompose(m, 2, 2)
