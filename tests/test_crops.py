import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import crops


# --------------------------------------------------------------------------
# oracles

def pixel_membership_intersection(a: crops.CropBox, b: crops.CropBox, n: int = 100) -> float:
    """Rasterized intersection area on an n x n grid (oracle)."""
    xs = (np.arange(n) + 0.5) / n
    ys = (np.arange(n) + 0.5) / n
    in_a = ((xs[None, :] >= a.x0) & (xs[None, :] <= a.x1)
            & (ys[:, None] >= a.y0) & (ys[:, None] <= a.y1))
    in_b = ((xs[None, :] >= b.x0) & (xs[None, :] <= b.x1)
            & (ys[:, None] >= b.y0) & (ys[:, None] <= b.y1))
    return float((in_a & in_b).sum()) / (n * n)


def bilinear_oracle(src: np.ndarray, box, out_h: int, out_w: int) -> np.ndarray:
    """Direct scalar bilinear interpolation, clamped at edges (oracle)."""
    x0, y0, x1, y1 = box
    h, w = src.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        for c in range(out_w):
            yy = (y0 + (r + 0.5) / out_h * (y1 - y0)) * h - 0.5
            xx = (x0 + (c + 0.5) / out_w * (x1 - x0)) * w - 0.5
            yy = min(max(yy, 0.0), h - 1.0)
            xx = min(max(xx, 0.0), w - 1.0)
            iy, ix = int(np.floor(yy)), int(np.floor(xx))
            iy2, ix2 = min(iy + 1, h - 1), min(ix + 1, w - 1)
            fy, fx = yy - iy, xx - ix
            out[r, c] = ((1 - fy) * (1 - fx) * src[iy, ix]
                         + (1 - fy) * fx * src[iy, ix2]
                         + fy * (1 - fx) * src[iy2, ix]
                         + fy * fx * src[iy2, ix2])
    return out


def random_box(rng) -> tuple[float, float, float, float]:
    x0, y0 = rng.uniform(0, 0.6, size=2)
    x1 = rng.uniform(x0 + 0.2, 1.0)
    y1 = rng.uniform(y0 + 0.2, 1.0)
    return (x0, y0, x1, y1)


# --------------------------------------------------------------------------
# sampling and box algebra

def test_sample_crops_respects_min_intersection():
    spec = crops.CropSpec(n_global=2, n_local=4, min_intersection=0.01)
    boxes, mat = crops.sample_crops(spec, rng_seed=42)
    assert len(boxes) == 6
    assert sum(b.kind == "global" for b in boxes) == 2
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            if i != j and (a.kind == "global" or b.kind == "global"):
                assert crops.intersection_area(a, b) >= 0.01


def test_full_image_crops_give_full_boxes():
    a = crops.CropBox(0, 0, 1, 1, "global")
    b = crops.CropBox(0, 0, 1, 1, "global")
    mat = crops.box_matrix([a, b])
    for i in range(2):
        for j in range(2):
            assert mat[i, j] == crops.FULL_BOX


def test_intersection_local_coords_hand_case():
    a = crops.CropBox(0, 0, 0.5, 0.5, "global")
    b = crops.CropBox(0.25, 0.25, 1, 1, "global")
    assert crops.intersection_in_local(a, b) == pytest.approx((0.5, 0.5, 1.0, 1.0))
    # cross-check area against the rasterized oracle
    area = crops.intersection_area(a, b)
    assert abs(area - pixel_membership_intersection(a, b)) <= 2 * 100 / 100**2


def test_intersection_matches_pixel_oracle_many():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = crops.CropBox(*random_box(rng), "global")
        b = crops.CropBox(*random_box(rng), "local")
        area = crops.intersection_area(a, b)
        approx = pixel_membership_intersection(a, b)
        assert abs(area - approx) <= 2 * 100 / 100**2  # +/- ~1 pixel row


def test_sampling_error_on_impossible_spec():
    spec = crops.CropSpec(n_global=2, n_local=0, global_scale=(0.01, 0.02),
                          min_intersection=0.5)
    with pytest.raises(crops.CropSamplingError):
        crops.sample_crops(spec, rng_seed=0)


def test_box_matrix_rejects_asymmetric_presence():
    with pytest.raises(ValueError):
        crops.BoxMatrix([[crops.FULL_BOX, None],
                         [(0, 0, 1, 1), crops.FULL_BOX]])


# --------------------------------------------------------------------------
# align forward

def test_align_identity():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(4, 4))
    out = crops.align(src, crops.FULL_BOX, 4, 4)
    np.testing.assert_allclose(out, src, atol=1e-12)


def test_align_constant_preserved():
    src = np.full((3, 5), 3.7)
    rng = np.random.default_rng(1)
    for _ in range(10):
        out = crops.align(src, random_box(rng), 4, 6)
        np.testing.assert_allclose(out, 3.7, atol=1e-12)


def test_align_2x2_to_3x3_matches_oracle():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = crops.align(src, crops.FULL_BOX, 3, 3)
    np.testing.assert_allclose(out, bilinear_oracle(src, crops.FULL_BOX, 3, 3), atol=1e-12)


def test_align_random_boxes_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h, w = rng.integers(2, 9, size=2)
        src = rng.normal(size=(h, w))
        box = random_box(rng)
        oh, ow = rng.integers(1, 9, size=2)
        out = crops.align(src, box, oh, ow)
        np.testing.assert_allclose(out, bilinear_oracle(src, box, oh, ow), atol=1e-6)


def test_align_channels_independent():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(3, 5, 5))
    box = (0.1, 0.2, 0.9, 0.8)
    out = crops.align(src, box, 4, 4)
    for c in range(3):
        np.testing.assert_allclose(out[c], crops.align(src[c], box, 4, 4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_align_linear_in_source(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 5))
    y = rng.normal(size=(5, 5))
    a, b = rng.normal(size=2)
    box = random_box(rng)
    lhs = crops.align(a * x + b * y, box, 3, 4)
    rhs = a * crops.align(x, box, 3, 4) + b * crops.align(y, box, 3, 4)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_align_stack_matches_one_box_at_a_time():
    """A stack of grids over a stack of boxes, and one grid broadcast over
    many boxes, equal single-box calls."""
    rng = np.random.default_rng(8)
    src = rng.normal(size=(4, 3, 6, 5))
    boxes = np.array([random_box(rng) for _ in range(4)])
    stacked = crops.align(src, boxes, 3, 4)
    shared = crops.align(src[0], boxes, 3, 4)
    back = crops.align_backward(stacked, boxes, 6, 5)
    for n in range(4):
        np.testing.assert_allclose(stacked[n], crops.align(src[n], boxes[n], 3, 4), rtol=1e-14)
        np.testing.assert_allclose(shared[n], crops.align(src[0], boxes[n], 3, 4), rtol=1e-14)
        np.testing.assert_allclose(back[n], crops.align_backward(stacked[n], boxes[n], 6, 5),
                                   rtol=1e-14)
    channels = crops.align(src[:, 0], boxes, 3, 4)  # a 3-D array is one (C, H, W) grid
    assert channels.shape == (4, 4, 3, 4)


def test_taps_rows_are_bilinear_weights():
    lo, hi = np.array([0.0, 0.25, 0.9]), np.array([1.0, 0.5, 1.0])
    r = crops.taps(lo, hi, 4, 3)
    assert r.shape == (3, 3, 4)
    np.testing.assert_allclose(r.sum(axis=2), 1.0, atol=1e-15)
    assert np.all(r >= 0) and np.all((r > 0).sum(axis=2) <= 2)


# --------------------------------------------------------------------------
# align backward

def test_backward_identity_passthrough():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(4, 4))
    back = crops.align_backward(g, crops.FULL_BOX, 4, 4)
    np.testing.assert_allclose(back, g, atol=1e-12)


def test_backward_splits_center_tap():
    # single output cell landing exactly between 4 source cells
    g = np.array([[1.0]])
    back = crops.align_backward(g, crops.FULL_BOX, 2, 2)
    np.testing.assert_allclose(back, np.full((2, 2), 0.25), atol=1e-12)


def test_adjoint_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h, w = rng.integers(2, 8, size=2)
        oh, ow = rng.integers(1, 8, size=2)
        box = random_box(rng)
        x = rng.normal(size=(h, w)).astype(np.float32)
        g = rng.normal(size=(oh, ow)).astype(np.float32)
        lhs = float(np.sum(crops.align(x, box, oh, ow) * g))
        rhs = float(np.sum(x * crops.align_backward(g, box, h, w)))
        assert abs(lhs - rhs) <= 100 * np.finfo(np.float32).eps * max(1.0, abs(lhs))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    src = rng.normal(size=(5, 5))
    box = random_box(rng)
    g = rng.normal(size=(3, 3))
    analytic = crops.align_backward(g, box, 5, 5)
    eps = 1e-6
    for i in range(5):
        for j in range(5):
            plus = src.copy()
            plus[i, j] += eps
            minus = src.copy()
            minus[i, j] -= eps
            fd = np.sum((crops.align(plus, box, 3, 3)
                         - crops.align(minus, box, 3, 3)) * g) / (2 * eps)
            assert abs(fd - analytic[i, j]) <= 1e-6 * max(1.0, abs(fd))
