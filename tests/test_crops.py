from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import crops


# --------------------------------------------------------------------------
# oracles

def pixel_membership_intersection(a, b, n: int = 100) -> float:
    """Rasterized intersection area of two (x0, y0, x1, y1) boxes on an n x n grid (oracle)."""
    xs = (np.arange(n) + 0.5) / n
    ys = (np.arange(n) + 0.5) / n

    def inside(box):
        x0, y0, x1, y1 = box
        return ((xs[None, :] >= x0) & (xs[None, :] <= x1)
                & (ys[:, None] >= y0) & (ys[:, None] <= y1))

    return float((inside(a) & inside(b)).sum()) / (n * n)


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
# reference alignment
#
# The forms the separable alignment replaced: taps built by comparing every
# source column against the two tap indices, and one product per (box,
# channel) pair through a broadcast channel axis. Kept as the bit-for-bit
# oracles of crops.taps, crops.align and crops.align_backward.


def reference_taps(lo, hi, src: int, out: int) -> np.ndarray:
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    t = np.clip((lo + (np.arange(out) + 0.5) / out * (hi - lo)) * src - 0.5, 0.0, src - 1.0)
    i0 = np.floor(t).astype(np.intp)
    i1 = np.minimum(i0 + 1, src - 1)
    w = (t - i0)[..., None]
    cols = np.arange(src)
    return (1.0 - w) * (cols == i0[..., None]) + w * (cols == i1[..., None])


def reference_box_taps(box, src_h, src_w, out_h, out_w, dtype):
    coords = np.asarray(box, dtype=np.float64)
    ry = reference_taps(coords[..., 1], coords[..., 3], src_h, out_h).astype(dtype, copy=False)
    rx = reference_taps(coords[..., 0], coords[..., 2], src_w, out_w).astype(dtype, copy=False)
    return ry[..., None, :, :], rx[..., None, :, :]


def reference_align(src, box, out_h, out_w):
    chans = src[None] if src.ndim == 2 else src
    ry, rx = reference_box_taps(box, *chans.shape[-2:], out_h, out_w, src.dtype)
    out = ry @ chans @ np.swapaxes(rx, -1, -2)
    return out[..., 0, :, :] if src.ndim == 2 else out


def reference_align_backward(grad_out, box, src_h, src_w):
    chans = grad_out[None] if grad_out.ndim == 2 else grad_out
    ry, rx = reference_box_taps(box, src_h, src_w, *chans.shape[-2:], grad_out.dtype)
    grad = np.swapaxes(ry, -1, -2) @ chans @ rx
    return grad[..., 0, :, :] if grad_out.ndim == 2 else grad


# --------------------------------------------------------------------------
# reference sampler
#
# The object-based sampler that the array one replaced: a list of CropBox
# objects, then a V x V BoxMatrix of tuples (None where empty) built from one
# intersection_in_local call per pair, converted to the (V, V, 4) array the
# training step uses. Kept as the oracle for sample_crops and pair_boxes.


@dataclass(frozen=True)
class CropBox:
    x0: float
    y0: float
    x1: float
    y1: float
    kind: str = "global"  # "global" or "local"

    def __post_init__(self) -> None:
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise ValueError(f"invalid crop box {self.coords}")

    @property
    def coords(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)


def reference_intersection_area(a: CropBox, b: CropBox) -> float:
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    return max(w, 0.0) * max(h, 0.0)


def reference_intersection_in_local(a: CropBox, b: CropBox):
    x0, y0 = max(a.x0, b.x0), max(a.y0, b.y0)
    x1, y1 = min(a.x1, b.x1), min(a.y1, b.y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return ((x0 - a.x0) / (a.x1 - a.x0), (y0 - a.y0) / (a.y1 - a.y0),
            (x1 - a.x0) / (a.x1 - a.x0), (y1 - a.y0) / (a.y1 - a.y0))


def reference_box_matrix(boxes: list[CropBox]) -> list[list]:
    n = len(boxes)
    mat = [[crops.FULL_BOX if i == j else reference_intersection_in_local(boxes[i], boxes[j])
            for j in range(n)] for i in range(n)]
    for i in range(n):
        assert mat[i][i] == crops.FULL_BOX
        for j in range(n):
            assert (mat[i][j] is None) == (mat[j][i] is None)
    return mat


def reference_box_array(mat: list[list]) -> np.ndarray:
    return np.array([[(np.nan,) * 4 if box is None else box for box in row] for row in mat],
                    dtype=np.float64)


def reference_sample_box(rng, scale, aspect, kind):
    area = rng.uniform(*scale)
    ratio = np.exp(rng.uniform(np.log(aspect[0]), np.log(aspect[1])))
    w = float(np.sqrt(area * ratio))
    h = float(np.sqrt(area / ratio))
    if w > 1.0 or h > 1.0:
        return None
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return CropBox(x0, y0, x0 + w, y0 + h, kind)


def reference_sample_crops(spec: crops.CropSpec, seed: int) -> list[CropBox]:
    rng = np.random.default_rng(seed)
    kinds = ["global"] * spec.n_global + ["local"] * spec.n_local
    scales = [spec.global_scale] * spec.n_global + [spec.local_scale] * spec.n_local
    boxes: list[CropBox] = []
    for kind, scale in zip(kinds, scales):
        for _ in range(crops.RETRY_BUDGET):
            cand = reference_sample_box(rng, scale, spec.aspect, kind)
            if cand is None:
                continue
            if all(reference_intersection_area(cand, prev) >= spec.min_intersection
                   for prev in boxes if kind == "global" or prev.kind == "global"):
                boxes.append(cand)
                break
        else:
            raise crops.CropSamplingError(f"could not place a {kind} crop")
    return boxes


# --------------------------------------------------------------------------
# sampling and box algebra

ACCEPTANCE_SPEC = crops.CropSpec()
SAMPLING_SPECS = {
    "acceptance": ACCEPTANCE_SPEC,
    "two_locals": crops.CropSpec(n_local=2),
    "no_locals": crops.CropSpec(n_local=0),
    # small globals that must overlap a lot: most candidates are rejected
    "tight": crops.CropSpec(n_global=3, n_local=3, global_scale=(0.1, 0.4),
                            local_scale=(0.02, 0.2), min_intersection=0.06,
                            aspect=(0.3, 3.0)),
}


@pytest.mark.parametrize("name", sorted(SAMPLING_SPECS))
def test_sampling_matches_reference_sampler(name):
    """Over 2,000 seeds, the sampled (V, 4) boxes and their pair_boxes equal
    the object-based reference bit for bit, and both fail on the same seeds."""
    spec = SAMPLING_SPECS[name]
    n_views = spec.n_global + spec.n_local
    failures = 0
    for seed in range(2000):
        try:
            want = reference_sample_crops(spec, seed)
        except crops.CropSamplingError:
            failures += 1
            with pytest.raises(crops.CropSamplingError):
                crops.sample_crops(spec, np.random.default_rng(seed))
            continue
        got = crops.sample_crops(spec, np.random.default_rng(seed))
        assert got.shape == (n_views, 4) and got.dtype == np.float64
        np.testing.assert_array_equal(got, [box.coords for box in want])
        np.testing.assert_array_equal(crops.pair_boxes(got),
                                      reference_box_array(reference_box_matrix(want)))
    assert failures < 20


def test_pair_boxes_broadcast_over_leading_dims():
    """A (B, V, 4) stack gives each image's (V, V, 4) pair boxes."""
    spec = crops.CropSpec()
    coords = np.stack([crops.sample_crops(spec, seed) for seed in range(5)])
    stacked = crops.pair_boxes(coords)
    assert stacked.shape == (5, 6, 6, 4)
    for b in range(5):
        np.testing.assert_array_equal(stacked[b], crops.pair_boxes(coords[b]))


def test_sample_crops_respects_min_intersection():
    spec = crops.CropSpec(n_global=2, n_local=4, min_intersection=0.01)
    boxes = crops.sample_crops(spec, rng_seed=42)
    assert boxes.shape == (6, 4)
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            if i != j and (i < 2 or j < 2):
                assert pixel_membership_intersection(a, b, n=400) >= 0.01 - 2 / 400


def test_full_image_crops_give_full_boxes():
    mat = crops.pair_boxes(np.array([crops.FULL_BOX, crops.FULL_BOX]))
    for i in range(2):
        for j in range(2):
            assert tuple(mat[i, j]) == crops.FULL_BOX


def test_intersection_local_coords_hand_case():
    a, b = (0, 0, 0.5, 0.5), (0.25, 0.25, 1, 1)
    mat = crops.pair_boxes(np.array([a, b], dtype=np.float64))
    assert tuple(mat[0, 1]) == pytest.approx((0.5, 0.5, 1.0, 1.0))
    assert tuple(mat[1, 0]) == pytest.approx((0.0, 0.0, 1 / 3, 1 / 3))
    # cross-check area against the rasterized oracle
    area = local_area(mat[0, 1]) * 0.25
    assert abs(area - pixel_membership_intersection(a, b)) <= 2 * 100 / 100**2


def local_area(box) -> float:
    return float((box[2] - box[0]) * (box[3] - box[1]))


def test_intersection_matches_pixel_oracle_many():
    """The area of each intersection, from either crop's local box, matches
    the rasterized oracle; disjoint crops get NaN both ways."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_box(rng), random_box(rng)
        mat = crops.pair_boxes(np.array([a, b]))
        approx = pixel_membership_intersection(a, b)
        for i, own in ((0, a), (1, b)):
            box = mat[i, 1 - i]
            area = 0.0 if np.isnan(box[0]) else local_area(box) * local_area(own)
            assert abs(area - approx) <= 2 * 100 / 100**2  # +/- ~1 pixel row


def test_pair_boxes_presence_is_symmetric_with_full_diagonal():
    """Disjoint crops are NaN in both directions; touching edges count as
    disjoint; every crop's box of itself is the full box."""
    coords = np.array([(0.0, 0.0, 0.5, 0.5), (0.5, 0.0, 1.0, 0.5),
                       (0.6, 0.6, 0.9, 0.9), (0.1, 0.1, 0.7, 0.7)])
    mat = crops.pair_boxes(coords)
    absent = np.isnan(mat[..., 0])
    assert np.array_equal(absent, np.isnan(mat).any(axis=-1))
    assert np.array_equal(absent, absent.T)
    assert absent[0, 1] and absent[0, 2] and not absent[0, 3] and not absent[2, 3]
    for i in range(4):
        assert tuple(mat[i, i]) == crops.FULL_BOX


def test_sampling_error_on_impossible_spec():
    spec = crops.CropSpec(n_global=2, n_local=0, global_scale=(0.01, 0.02),
                          min_intersection=0.5)
    with pytest.raises(crops.CropSamplingError):
        crops.sample_crops(spec, rng_seed=0)


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


def test_taps_match_reference_taps():
    """The scatter-built taps equal the comparison-built ones bit for bit,
    signs of zero included: one source cell, more output than source cells,
    boxes touching 0 and 1, and samples clamped at both borders."""
    rng = np.random.default_rng(9)
    lo = rng.uniform(0.0, 0.9, size=40)
    hi = lo + rng.uniform(0.0, 1.0, size=40) * (1.0 - lo)
    edges = np.array([[0.0, 1.0], [0.0, 0.01], [0.99, 1.0], [0.0, 0.5], [0.5, 1.0],
                      [0.25, 0.25 + 1e-9], [1.0 - 1e-9, 1.0]])
    lo, hi = np.concatenate([lo, edges[:, 0]]), np.concatenate([hi, edges[:, 1]])
    for src in (1, 2, 3, 5, 10):
        for out in (1, 2, 3, 5, 7, 12, 100):
            got, want = crops.taps(lo, hi, src, out), reference_taps(lo, hi, src, out)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    stacked = rng.uniform(0.0, 0.5, size=(3, 4))  # leading dims kept
    np.testing.assert_array_equal(crops.taps(stacked, stacked + 0.5, 6, 4),
                                  reference_taps(stacked, stacked + 0.5, 6, 4))


def test_align_matches_reference_products_on_training_shapes():
    """Channels folded into the columns give the per-channel products bit for
    bit, forward and adjoint, on every shape the training step and the
    evaluation use."""
    rng = np.random.default_rng(10)
    n_img, n_glob, size = 16, 2, 10
    coords = np.stack([crops.sample_crops(ACCEPTANCE_SPEC, seed) for seed in range(n_img)])
    # every intersecting (predictor i, global target j != i) pair of the batch
    pairs = crops.pair_boxes(coords)
    off_diag = ~np.eye(coords.shape[1], dtype=bool)[:, :n_glob]
    box_pred = pairs[:, :, :n_glob][:, off_diag].reshape(-1, 4)
    box_target = np.swapaxes(pairs[:, :n_glob], 1, 2)[:, off_diag].reshape(-1, 4)
    present = ~np.isnan(box_pred[:, 0])
    box_pred, box_target = box_pred[present], box_target[present]
    n_pairs = len(box_pred)

    def check(src, boxes, out_h, out_w, adjoint=True):
        got = crops.align(src, boxes, out_h, out_w)
        np.testing.assert_array_equal(got, reference_align(src, boxes, out_h, out_w))
        assert got.dtype == src.dtype and got.flags.c_contiguous
        if not adjoint:
            return
        grad = rng.normal(size=got.shape).astype(src.dtype)
        back = crops.align_backward(grad, boxes, *src.shape[-2:])
        np.testing.assert_array_equal(back, reference_align_backward(grad, boxes,
                                                                     *src.shape[-2:]))
        assert back.flags.c_contiguous

    for dtype in (np.float32, np.float64):
        raw = rng.normal(size=(n_img, 1, 32, size, size)).astype(dtype)
        check(raw, coords[:, :n_glob], 5, 5)   # global crops
        check(raw, coords[:, n_glob:], 3, 3)   # local crops
        for grid in (5, 3):                    # global, then local predictor logits
            check(rng.normal(size=(n_pairs, 8, grid, grid)).astype(dtype), box_pred, 5, 5)
        check(rng.normal(size=(n_pairs, 8, 5, 5)).astype(dtype), box_target, 5, 5)  # targets
        # cluster_eval.resize_bilinear: forward only (its adjoint sums 100 terms,
        # which BLAS blocks by the matrix shapes)
        check(rng.normal(size=(32, size, size)).astype(dtype), crops.FULL_BOX, 100, 100,
              adjoint=False)
    masks = (rng.random((n_pairs, 1, 5, 5)) < 0.5).astype(np.float64)
    check(masks, box_target, 5, 5)
    check(rng.normal(size=(7, 9)), coords[0, 0], 4, 6)  # a plain map


def test_align_rejects_non_finite_boxes():
    with pytest.raises(ValueError, match="finite"):
        crops.align(np.ones((4, 4)), (0.0, np.nan, 1.0, 1.0), 2, 2)


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
