import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import attention


def naive_convolve(grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """O(n^2 k^2) convolution with edge-inclusive reflect padding (oracle)."""
    h, w = grid.shape
    k = kernel.shape[0]
    pad = k // 2
    out = np.zeros_like(grid, dtype=np.float64)
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr in range(-pad, pad + 1):
                for dc in range(-pad, pad + 1):
                    rr, cc = r + dr, c + dc
                    # symmetric reflection, repeated until inside
                    while not (0 <= rr < h):
                        rr = -rr - 1 if rr < 0 else 2 * h - rr - 1
                    while not (0 <= cc < w):
                        cc = -cc - 1 if cc < 0 else 2 * w - cc - 1
                    acc += grid[rr, cc] * kernel[dr + pad, dc + pad]
            out[r, c] = acc
    return out


def test_merge_single_head_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(attention.merge_heads(m[None]), m)


def test_merge_two_heads_mean():
    stack = np.array([[[0.0, 1.0]], [[2.0, 3.0]]])
    np.testing.assert_array_equal(attention.merge_heads(stack), [[1.0, 2.0]])


def test_merge_matches_naive_sum():
    rng = np.random.default_rng(0)
    stack = rng.uniform(size=(6, 5, 4))
    acc = np.zeros((5, 4))
    for head in stack:
        acc += head
    np.testing.assert_allclose(attention.merge_heads(stack), acc / 6, atol=1e-12)


def test_merge_rejects_negative():
    with pytest.raises(ValueError):
        attention.merge_heads(np.array([[[-1.0]]]))


def test_smooth_constant_unchanged():
    grid = np.full((9, 9), 2.5)
    out = attention.gaussian_smooth(grid, kernel=7, sigma=1.5)
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_smooth_impulse_response():
    grid = np.zeros((9, 9))
    grid[4, 4] = 1.0
    out = attention.gaussian_smooth(grid, kernel=7, sigma=1.5)
    k = attention.gaussian_kernel(7, 1.5)
    assert out[4, 4] == pytest.approx(k[3, 3], abs=1e-12)


def test_smooth_matches_naive_convolution():
    rng = np.random.default_rng(1)
    grid = rng.uniform(size=(12, 12))
    out = attention.gaussian_smooth(grid, kernel=7, sigma=1.5)
    np.testing.assert_allclose(out, naive_convolve(grid, attention.gaussian_kernel(7, 1.5)),
                               atol=1e-6)


def test_smooth_small_grid_does_not_crash():
    out = attention.gaussian_smooth(np.ones((2, 2)), kernel=7, sigma=1.5)
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 5), (4, 0), (5,)])
def test_smooth_rejects_an_empty_grid(shape):
    """An empty grid has nothing to reflect; the pad loop must not spin on it."""
    with pytest.raises(ValueError, match="non-empty"):
        attention.gaussian_smooth(np.zeros(shape))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_smooth_preserves_mean_on_periodic_input(seed):
    # constant rows are invariant under reflection, so the mean is exact
    rng = np.random.default_rng(seed)
    row = rng.uniform(size=12)
    grid = np.tile(row.mean(), (8, 12)) * np.ones((8, 12))
    out = attention.gaussian_smooth(grid)
    assert out.mean() == pytest.approx(grid.mean(), abs=1e-12)


def test_threshold_hand_case():
    mask = attention.threshold_mass(np.array([[4.0, 3.0, 2.0, 1.0]]), rho=0.6)
    np.testing.assert_array_equal(mask, [[1, 1, 0, 0]])


def test_threshold_single_cell():
    for rho in (0.01, 0.5, 1.0):
        np.testing.assert_array_equal(
            attention.threshold_mass(np.array([[5.0]]), rho=rho), [[1]])


def test_threshold_uniform_tie_rule():
    mask = attention.threshold_mass(np.ones((2, 5)), rho=0.6)
    assert mask.sum() == 6
    np.testing.assert_array_equal(mask, [[1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])


def test_threshold_all_zero_errors():
    with pytest.raises(ValueError):
        attention.threshold_mass(np.zeros((2, 2)))


def exhaustive_prefix_mass(grid: np.ndarray, rho: float) -> int:
    """Smallest top-value prefix reaching rho of the mass (oracle)."""
    vals = sorted(grid.ravel(), reverse=True)
    total = sum(vals)
    acc = 0.0
    for n, v in enumerate(vals, start=1):
        acc += v
        if acc >= rho * total - 1e-12 * total:
            return n
    return len(vals)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), rho=st.floats(0.05, 1.0))
def test_threshold_minimal_superset_property(seed, rho):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 5.0, size=(4, 5))
    mask = attention.threshold_mass(grid, rho=rho)
    assert mask.sum() == exhaustive_prefix_mass(grid, rho)
    kept = grid[mask.astype(bool)]
    assert kept.sum() >= rho * grid.sum() - 1e-9
    if mask.sum() > 1:
        assert kept.sum() - kept.min() < rho * grid.sum() + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.floats(0.1, 100.0))
def test_threshold_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.1, 5.0, size=(3, 4))
    np.testing.assert_array_equal(
        attention.threshold_mass(grid, 0.6),
        attention.threshold_mass(grid * scale, 0.6),
    )


def test_stacked_chain_equals_map_by_map():
    """A stack of head stacks gives bit for bit the masks of one call per
    stack, at each step of the chain, tiny grids and value ties included."""
    rng = np.random.default_rng(7)
    for h, w in [(5, 5), (2, 3), (1, 1), (9, 4)]:
        stacks = rng.uniform(size=(3, 2, 2, h, w))
        stacks[0, 1] = np.round(stacks[0, 1], 1)  # ties
        merged = attention.merge_heads(stacks)
        smooth = attention.gaussian_smooth(merged)
        masks = attention.foreground_mask(stacks)
        assert masks.shape == (3, 2, h, w)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(merged[idx], attention.merge_heads(stacks[idx]))
            assert np.array_equal(smooth[idx], attention.gaussian_smooth(merged[idx]))
            assert np.array_equal(masks[idx], attention.threshold_mass(smooth[idx]))


def test_threshold_rejects_one_all_zero_map_in_a_stack():
    grids = np.ones((3, 2, 2))
    grids[1] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        attention.threshold_mass(grids)
