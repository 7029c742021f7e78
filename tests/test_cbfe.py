"""Counting oracles for foreground extraction and binary mask metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leopart import cbfe


# ------------------------------------------------------------- precision


def test_cluster_precision_counting_oracle():
    rng = np.random.default_rng(0)
    k = 5
    maps = [rng.integers(0, k, size=(8, 8)) for _ in range(3)]
    hints = [rng.integers(0, 2, size=(8, 8)) for _ in range(3)]
    precision = cbfe.cluster_precision(maps, hints, k)
    for c in range(k):
        inside = sum(int(np.sum((m == c) & (h == 1))) for m, h in zip(maps, hints))
        total = sum(int(np.sum(m == c)) for m in maps)
        assert precision[c] == pytest.approx(inside / total, abs=1e-12)


def test_cluster_precision_missing_cluster_warns_and_zeroes():
    maps = [np.zeros((4, 4), dtype=int)]
    hints = [np.ones((4, 4), dtype=int)]
    with pytest.warns(UserWarning, match="never appear"):
        precision = cbfe.cluster_precision(maps, hints, 3)
    assert precision[0] == 1.0
    assert precision[1] == 0.0 and precision[2] == 0.0


def test_cluster_precision_rejects_resolution_mismatch():
    with pytest.raises(ValueError):
        cbfe.cluster_precision([np.zeros((4, 4), dtype=int)],
                               [np.zeros((5, 5), dtype=int)], 2)


# ------------------------------------------------------------- theta


def test_build_theta_threshold_semantics():
    precisions = np.array([0.0, 0.349999, 0.35, 0.9, 1.0])
    fg = cbfe.build_theta(precisions, 0.35)
    assert list(fg.theta) == [False, False, True, True, True]


def test_build_theta_endpoints():
    precisions = np.array([0.2, 0.8])
    assert cbfe.build_theta(precisions, 0.0).theta.all()
    fg = cbfe.build_theta(precisions, 1.0)
    assert not fg.theta.any()
    with pytest.raises(ValueError):
        cbfe.build_theta(precisions, 1.5)


def test_theta_is_monotone_in_threshold():
    rng = np.random.default_rng(1)
    precisions = rng.uniform(size=20)
    lo = cbfe.build_theta(precisions, 0.3).theta
    hi = cbfe.build_theta(precisions, 0.6).theta
    assert np.all(hi <= lo)  # raising the threshold only removes foreground


def test_foreground_map_rejects_inconsistent_theta():
    with pytest.raises(ValueError):
        cbfe.ForegroundMap(theta=np.array([True]), precision=np.array([0.1]),
                           threshold=0.5)


def test_extract_foreground_lookup_and_unseen_ids():
    fg = cbfe.build_theta(np.array([0.9, 0.1]), 0.5)
    cm = np.array([[0, 1], [1, 0]])
    out = cbfe.extract_foreground(cm, fg)
    assert np.array_equal(out, np.array([[1, 0], [0, 1]], dtype=np.uint8))
    with pytest.warns(UserWarning, match="unseen"):
        out = cbfe.extract_foreground(np.array([[0, 7]]), fg)
    assert np.array_equal(out, np.array([[1, 0]], dtype=np.uint8))


# ------------------------------------------------------------- jaccard


def test_jaccard_hand_cases():
    a = np.array([[1, 1, 0, 0]])
    b = np.array([[0, 1, 1, 0]])
    assert cbfe.jaccard(a, b) == pytest.approx(1 / 3)
    assert cbfe.jaccard(a, a) == 1.0
    assert cbfe.jaccard(a, 1 - a) == 0.0
    assert cbfe.jaccard(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0


masks = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2,
                                              min_side=2, max_side=12),
                   elements=st.integers(0, 1))


@given(masks, masks)
@settings(max_examples=60, deadline=None)
def test_jaccard_is_symmetric_and_bounded(a, b):
    if a.shape != b.shape:
        b = np.resize(b, a.shape)
    j = cbfe.jaccard(a, b)
    assert j == cbfe.jaccard(b, a)
    assert 0.0 <= j <= 1.0


@given(masks)
@settings(max_examples=30, deadline=None)
def test_jaccard_self_is_one(a):
    assert cbfe.jaccard(a, a) == 1.0


# ------------------------------------------------------------- boundary F1


def test_boundary_pixels_square():
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:5, 2:5] = True
    b = cbfe.boundary_pixels(mask)
    expected = mask.copy()
    expected[3, 3] = False  # interior pixel has no opposite 4-neighbor
    assert np.array_equal(b, expected)


def test_boundary_pixels_full_mask_has_no_boundary():
    assert not cbfe.boundary_pixels(np.ones((5, 5), dtype=bool)).any()


def test_boundary_f1_identical_masks():
    mask = np.zeros((10, 10), dtype=np.uint8)
    mask[3:7, 3:7] = 1
    assert cbfe.boundary_f1(mask, mask) == 1.0


def test_boundary_f1_shifted_square_within_and_beyond_tolerance():
    a = np.zeros((40, 40), dtype=np.uint8)
    b = np.zeros((40, 40), dtype=np.uint8)
    a[10:20, 10:20] = 1
    b[11:21, 10:20] = 1  # shifted one pixel down
    assert cbfe.boundary_f1(a, b, tol_px=1.5) == 1.0
    assert cbfe.boundary_f1(a, b, tol_px=0.0) < 1.0
    far = np.zeros((40, 40), dtype=np.uint8)
    far[30:38, 30:38] = 1
    assert cbfe.boundary_f1(a, far, tol_px=1.5) == 0.0


def test_boundary_f1_empty_mask_rules():
    empty = np.zeros((8, 8), dtype=np.uint8)
    square = np.zeros((8, 8), dtype=np.uint8)
    square[2:5, 2:5] = 1
    assert cbfe.boundary_f1(empty, empty) == 1.0
    assert cbfe.boundary_f1(empty, square) == 0.0
    assert cbfe.boundary_f1(square, empty) == 0.0


def test_boundary_f1_default_tolerance_uses_diagonal():
    a = np.zeros((200, 200), dtype=np.uint8)
    b = np.zeros((200, 200), dtype=np.uint8)
    a[50:150, 50:150] = 1
    b[51:151, 50:150] = 1
    # diagonal ~283 px -> tolerance ~2.1 px, a 1-px shift passes
    assert cbfe.boundary_f1(a, b) == 1.0


@given(masks)
@settings(max_examples=30, deadline=None)
def test_boundary_f1_symmetric(a):
    rng = np.random.default_rng(0)
    b = rng.integers(0, 2, size=a.shape).astype(np.uint8)
    assert cbfe.boundary_f1(a, b) == pytest.approx(cbfe.boundary_f1(b, a), abs=1e-12)


# ------------------------------------------------------------- persistence


def test_foreground_map_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    precisions = np.round(rng.uniform(size=10), 6)
    fg = cbfe.build_theta(precisions, cbfe.THRESHOLD_SINGLE_DATASET)
    path = tmp_path / "fg.txt"
    cbfe.write_foreground_map(fg, path)
    assert np.array_equal(cbfe.read_foreground_map(path), fg.theta)


def test_foreground_map_read_keeps_the_written_labels(tmp_path):
    """A precision just under the threshold rounds to it when written; the
    written bg label still reads back as bg."""
    fg = cbfe.build_theta(np.array([0.3499996, 0.9, 0.1]), 0.35)
    path = tmp_path / "fg.txt"
    cbfe.write_foreground_map(fg, path)
    assert path.read_text().splitlines()[0] == "0 0.350000 bg"
    assert cbfe.read_foreground_map(path).tolist() == [False, True, False]


@pytest.mark.parametrize("bad", ["1 0.5 fg", "0 0.5", "0 0.5 maybe", "0 half fg", "x 0.5 fg", "0 1.5 fg"])
def test_foreground_map_read_names_the_malformed_line(tmp_path, bad):
    path = tmp_path / "fg.txt"
    path.write_text(f"\n{bad}\n1 0.2 bg\n")
    with pytest.raises(ValueError, match=f"{path}:2"):
        cbfe.read_foreground_map(path)
