import numpy as np
from hypothesis import given, settings, strategies as st

from witnesskit.linalg import hs_norm
from witnesskit.measures import ProjectionConfig, nearest_separable
from witnesskit.states import DensityMatrix, is_ppt


def npt_state(seed, d_b):
    """A seeded NPT state on C^2 x C^d_b: a random rank-1 or rank-2 mixture
    with a little white noise, drawn again until its partial transpose has a
    negative eigenvalue."""
    rng = np.random.default_rng(seed)
    n = 2 * d_b
    while True:
        rank = int(rng.integers(1, 3))
        vs = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        mix = np.einsum("k,ka,kb->ab", rng.dirichlet(np.ones(rank)), vs, vs.conj())
        target = DensityMatrix(0.9 * mix + 0.1 * np.eye(n) / n, 2, d_b)
        if not is_ppt(target):
            return target


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d_b=st.sampled_from([2, 3]))
def test_projection_of_npt_states(seed, d_b):
    target = npt_state(seed, d_b)
    res = nearest_separable(target)
    assert res.converged and res.gap_certificate < ProjectionConfig().tol_gap
    weights = res.nearest.weights
    assert abs(weights.sum() - 1) <= 1e-12
    # PPT is separability in 2x2 and 2x3
    assert is_ppt(res.nearest.to_density())
    # the maximally mixed state is separable, so it bounds the distance
    n = target.dim
    assert res.distance <= hs_norm(target.matrix - np.eye(n) / n)
