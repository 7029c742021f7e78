"""Oracles for K-means, matching and the segmentation protocols."""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from leopart import cluster_eval, model, pipeline, synth


# ---------------------------------------------------------------- resizing


def test_resize_nearest_exact_on_integer_factor():
    grid = np.array([[1, 2], [3, 4]])
    up = cluster_eval.resize_nearest(grid, 4, 4)
    expected = np.array([
        [1, 1, 2, 2],
        [1, 1, 2, 2],
        [3, 3, 4, 4],
        [3, 3, 4, 4],
    ])
    assert np.array_equal(up, expected)


def test_resize_nearest_identity():
    grid = np.arange(12).reshape(3, 4)
    assert np.array_equal(cluster_eval.resize_nearest(grid, 3, 4), grid)


def test_resize_bilinear_preserves_constant():
    grid = np.full((2, 5, 5), 3.25)
    up = cluster_eval.resize_bilinear(grid, 9, 7)
    assert up.shape == (2, 9, 7)
    assert np.allclose(up, 3.25, atol=1e-6)


# ---------------------------------------------------------------- k-means


def test_kmeans_matches_bruteforce_partition_1d():
    """All 2-partitions of {0, 1, 10, 11} -> optimum is {0,1} | {10,11}."""
    points = np.array([[0.0], [1.0], [10.0], [11.0]])

    best_inertia = np.inf
    for labels in itertools.product([0, 1], repeat=4):
        labels = np.array(labels)
        if len(set(labels)) < 2:
            continue
        inertia = 0.0
        for c in (0, 1):
            sel = points[labels == c]
            inertia += ((sel - sel.mean(axis=0)) ** 2).sum()
        best_inertia = min(best_inertia, inertia)

    result = cluster_eval.kmeans(points, 2, seed=0)
    assert result.inertia == pytest.approx(best_inertia, abs=1e-12)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]
    assert sorted(result.centroids.ravel()) == pytest.approx([0.5, 10.5])


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([c + 0.1 * rng.normal(size=(40, 2)) for c in centers])
    result = cluster_eval.kmeans(points, 3, seed=1)
    truth = np.repeat(np.arange(3), 40)
    # same-blob points share a cluster, different blobs never do
    for c in range(3):
        assert len(set(result.labels[truth == c])) == 1
    assert len(set(result.labels[::40])) == 3


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(60, 4))
    a = cluster_eval.kmeans(points, 5, seed=7)
    b = cluster_eval.kmeans(points, 5, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_handles_duplicate_points():
    points = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0]]), 10, axis=0)
    result = cluster_eval.kmeans(points, 2, seed=3)
    assert result.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        cluster_eval.kmeans(np.zeros((3, 2)), 4)


def test_kmeans_labels_are_consistent_with_centroids():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(50, 3))
    result = cluster_eval.kmeans(points, 4, seed=5)
    d2 = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(result.labels, d2.argmin(axis=1))
    recomputed = float(d2[np.arange(50), result.labels].sum())
    assert result.inertia == pytest.approx(recomputed, rel=1e-9)


def reference_lloyd(points, centroids, max_iter):
    """Lloyd iterations with a per-cluster mean loop: the oracle for
    cluster_eval._lloyd, which must agree with it bit for bit."""
    def sq_dists(points, centroids):
        d2 = ((points**2).sum(axis=1)[:, None] - 2.0 * points @ centroids.T
              + (centroids**2).sum(axis=1)[None, :])
        return np.maximum(d2, 0.0)

    k = len(centroids)
    labels = np.full(len(points), -1)
    for _ in range(max_iter):
        d2 = sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)
        assigned_d2 = d2[np.arange(len(points)), new_labels]
        for c in range(k):
            sel = new_labels == c
            if sel.any():
                centroids[c] = points[sel].mean(axis=0)
            else:
                far = int(assigned_d2.argmax())
                centroids[c] = points[far]
                new_labels[far] = c
                assigned_d2[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = sq_dists(points, centroids)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(points)), labels].sum())
    return cluster_eval.KMeansResult(centroids=centroids, labels=labels, inertia=inertia)


def assert_lloyd_matches_reference(points, init, max_iter):
    got = cluster_eval._lloyd(points, init.copy(), max_iter)
    want = reference_lloyd(points, init.copy(), max_iter)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia


@pytest.fixture
def passes(monkeypatch):
    """Counts the assignment passes that _lloyd takes with few centroids
    moved: "partial", or "fallback" to the full matrix on a close call."""
    counts = collections.Counter()
    update = cluster_eval._Assignment.update

    def counted(self, centroids, moved):
        update(self, centroids, moved)
        if 0 < len(moved) <= cluster_eval._PARTIAL_SHARE * len(centroids):
            counts["fallback" if self.exact else "partial"] += 1

    monkeypatch.setattr(cluster_eval._Assignment, "update", counted)
    return counts


def planted_tokens(seed, n_images, d=8):
    feats, _ = planted_features(np.random.default_rng(seed), n_images=n_images, n_classes=5,
                                h=10, w=10, d=d, noise=0.3)
    return np.concatenate([f.reshape(d, -1).T for f in feats])


@pytest.mark.parametrize("k", [7, 20, 150])
def test_lloyd_bitwise_matches_reference(k):
    points = planted_tokens(k, n_images=40)
    init = cluster_eval._kmeans_pp_init(points, k, np.random.default_rng([0, 17, 0]))
    assert_lloyd_matches_reference(points, init, 100)


def test_lloyd_matches_reference_where_subset_products_round_differently(passes):
    """At k = 200 the blocked BLAS products of row and column subsets round
    many entries differently from the full matrix on some CPUs; partial
    passes must still reach the reference's labels, centroids and inertia."""
    points = planted_tokens(200, n_images=60)
    init = cluster_eval._kmeans_pp_init(points, 200, np.random.default_rng([0, 17, 0]))
    assert_lloyd_matches_reference(points, init, 100)
    assert passes["partial"] > 0


@pytest.fixture(scope="module")
def canonical_tokens(tmp_path_factory):
    """The raw tokens of the default dataset at seed 0: 20,000 x 32."""
    manifest, _ = synth.generate(synth.SynthSpec(seed=0), tmp_path_factory.mktemp("canonical"))
    features = pipeline.load_dataset(manifest).features
    return model.token_rows(features).astype(np.float64)


@pytest.mark.parametrize("pp_seed", range(4))
def test_lloyd_matches_reference_on_canonical_tokens(canonical_tokens, pp_seed, passes):
    """The paper's overclustering size, k = 150, from k-means++ seeds 0-3."""
    init = cluster_eval._kmeans_pp_init(canonical_tokens, 150,
                                        np.random.default_rng([0, 17, pp_seed]))
    assert_lloyd_matches_reference(canonical_tokens, init, 100)
    assert passes["partial"] > 10


def test_lloyd_reseeds_empty_clusters_like_reference(passes):
    """Duplicated points and far-off starting centroids leave clusters
    empty, including ones emptied by an earlier cluster's reseed; exact
    ties between duplicates send partial passes back to the full matrix."""
    rng = np.random.default_rng(1)
    for trial in range(300):
        n, k, n_distinct = rng.integers(8, 40), int(rng.integers(2, 8)), rng.integers(1, 6)
        d = 1 + trial % 3
        points = rng.normal(size=(n_distinct, d))[rng.integers(n_distinct, size=n)]
        if trial % 3 == 0:
            points = points + 1e-9 * rng.normal(size=points.shape)
        if trial % 2:
            init = 5.0 * rng.normal(size=(k, d))
        else:
            init = points[rng.integers(n, size=k)].copy()
        assert_lloyd_matches_reference(points, init, 20)
    assert passes["partial"] > 0 and passes["fallback"] > 0


@st.composite
def lloyd_inputs(draw):
    """Points drawn from a few distinct rows (so duplicated), of any floats
    or of small integers (so full of exact ties), a k of 1, n or in
    between, starting centroids on points or anywhere, and an iteration
    cap of 1 to 5."""
    coordinates = draw(st.sampled_from([st.floats(-1e3, 1e3), st.integers(-3, 3).map(float)]))
    d = draw(st.integers(1, 4))
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, 16)), d), elements=coordinates))
    n = draw(st.integers(1, 40))
    points = distinct[draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(distinct) - 1)))]
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    if draw(st.booleans()):
        init = points[draw(hnp.arrays(np.intp, k, elements=st.integers(0, n - 1)))]
    else:
        init = draw(hnp.arrays(np.float64, (k, d), elements=coordinates))
    return points, init, draw(st.integers(1, 5))


@given(lloyd_inputs())
@settings(max_examples=300, deadline=None)
def test_lloyd_matches_reference_on_random_inputs(case):
    points, init, max_iter = case
    assert_lloyd_matches_reference(points, init, max_iter)


def assert_subset_distances_within_tolerance(points, centroids, seed):
    """Row subsets (one row too) and column subsets (one column too) of the
    distance matrix, computed by _sq_dists in either orientation, stay
    within half the tolerance of the full matrix: the property partial
    passes rely on. Bit equality does not hold on every BLAS: gemv, small-
    matrix kernels and the edge tiles of blocked gemm round differently."""
    n, k = len(points), len(centroids)
    assignment = cluster_eval._Assignment(points, centroids)
    two_points, sq_norms = assignment.two_points, assignment.sq_norms
    c_sq = (centroids**2).sum(axis=1)
    full = cluster_eval._sq_dists(two_points, sq_norms, centroids, c_sq, np.empty((n, k)))
    half = assignment.tolerance(c_sq) / 2
    rng = np.random.default_rng(seed)
    for r in sorted({1, 2, 8, min(100, n), n - 1} - {0}):
        rows = np.sort(rng.choice(n, r, replace=False))
        sub = cluster_eval._sq_dists(two_points[rows], sq_norms[rows], centroids, c_sq,
                                     np.empty((r, k)))
        assert np.all(np.abs(sub - full[rows]) <= half[rows, None]), r
    for m in sorted({1, 2, min(20, k), k - 1} - {0}):
        cols = np.sort(rng.choice(k, m, replace=False))
        sub = cluster_eval._sq_dists(two_points, sq_norms, centroids[cols], c_sq[cols],
                                     np.empty((n, m)))
        assert np.all(np.abs(sub - full[:, cols]) <= half[:, None]), m
        sub = cluster_eval._sq_dists(centroids[cols], c_sq[cols], two_points, sq_norms,
                                     np.empty((m, n)))
        assert np.all(np.abs(sub.T - full[:, cols]) <= half[:, None]), m


def test_subset_distances_within_tolerance_on_canonical_tokens(canonical_tokens):
    init = cluster_eval._kmeans_pp_init(canonical_tokens, 150, np.random.default_rng([0, 17, 0]))
    assert_subset_distances_within_tolerance(canonical_tokens, init, 0)


@pytest.mark.parametrize("n,k,d,scale,offset", [
    (600, 7, 1, 1.0, 0.0),
    (1000, 150, 8, 1e3, 0.0),
    (300, 150, 40, 1.0, 1e4),   # far from the origin: heavy cancellation
    (2000, 200, 64, 1e-3, 0.0),
    (500, 193, 32, 1e-160, 0.0),  # products underflow
    (40, 30, 33, 1.0, 1.0),
])
def test_subset_distances_within_tolerance_on_float64_data(n, k, d, scale, offset):
    rng = np.random.default_rng([n, k, d])
    points = offset + scale * rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
    centroids = offset + scale * rng.normal(size=(k, d))
    assert_subset_distances_within_tolerance(points, centroids, k)


def reference_kmeans_pp_init(points, k, rng):
    """k-means++ seeding with every distance recomputed each round: the
    oracle for cluster_eval._kmeans_pp_init, which must agree with it bit
    for bit."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
            continue
        centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


class RecordingRng:
    """A generator that records every draw, and each probability vector
    handed to ``choice``: equal records mean equal d2 in every round."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, n):
        self.draws.append(("integers", n))
        return self.rng.integers(n)

    def choice(self, n, p):
        self.draws.append(("choice", n, p.copy()))
        return self.rng.choice(n, p=p)


def assert_seeding_matches_reference(points, k, seed):
    points = np.ascontiguousarray(points, dtype=np.float64)  # as kmeans passes them
    got_rng, want_rng = RecordingRng(seed), RecordingRng(seed)
    got = cluster_eval._kmeans_pp_init(points, k, got_rng)
    want = reference_kmeans_pp_init(points, k, want_rng)
    assert np.array_equal(got, want)
    assert len(got_rng.draws) == len(want_rng.draws) == k
    for a, b in zip(got_rng.draws, want_rng.draws):
        assert a[:2] == b[:2]
        if a[0] == "choice":
            assert np.array_equal(a[2], b[2])


@pytest.mark.parametrize("k", [1, 2, 3, 20, 150])
def test_seeding_matches_reference(k):
    points = planted_tokens(k, n_images=40)
    for seed in range(2):
        assert_seeding_matches_reference(points, k, [seed, 17, 0])


@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-170, 1.0, 1e150])
def test_seeding_matches_reference_at_extreme_scales(scale):
    """Tiny scales push the squared differences into subnormals, where only
    the margin's absolute term holds, and 1e-170 flushes most to zero."""
    points = planted_tokens(3, n_images=10) * scale
    assert_seeding_matches_reference(points, 20, 0)


def test_seeding_matches_reference_on_duplicate_points():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n_distinct, d = int(rng.integers(1, 8)), 1 + trial % 4
        points = rng.normal(size=(n_distinct, d))[rng.integers(n_distinct, size=40)]
        if trial % 3 == 0:
            points = np.round(points)  # exact ties between distances too
        assert_seeding_matches_reference(points, int(rng.integers(1, 12)), trial)


def test_seeding_margin_covers_rounding_at_midpoints():
    """A point m halfway between seeds a and b, where the computed |b - a|^2
    exceeds 4 |m - a|^2 and yet the computed |m - b|^2 is below |m - a|^2:
    only the rounding margin keeps m a candidate once b is drawn after a."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 20000, 32))
    m = (a + b) / 2
    near_a = np.sum((m - a) ** 2, axis=1)
    rounded_past = ((np.sum((b - a) ** 2, axis=1) > 4.0 * near_a)
                    & (np.sum((m - b) ** 2, axis=1) < near_a))
    found = np.flatnonzero(rounded_past)[:5]
    assert len(found) == 5
    for j in found:
        # a point near a keeps d2 of m visible in the third draw's probabilities
        points = np.stack([m[j], b[j], a[j], a[j] + 0.1 * rng.normal(size=32)])
        for seed in range(20):  # some of them draw a, then b
            assert_seeding_matches_reference(points, 3, seed)


def test_seeding_of_identical_points_draws_uniformly_like_reference():
    """All points equal: d2 sums to 0 after the first seed, and every later
    seed comes from the total <= 0 branch."""
    points = np.full((30, 3), 2.5)
    assert_seeding_matches_reference(points, 6, 0)


@pytest.mark.parametrize("pp_seed", range(3))
def test_seeding_matches_reference_on_canonical_tokens(canonical_tokens, pp_seed):
    assert_seeding_matches_reference(canonical_tokens, 150, [0, 17, pp_seed])


# ---------------------------------------------------------------- matching


def test_confusion_matrix_counting_oracle():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 4, size=200)
    gt = rng.integers(0, 3, size=200)
    conf = cluster_eval.confusion_matrix(pred, gt, 4, 3)
    for p in range(4):
        for g in range(3):
            assert conf[p, g] == int(np.sum((pred == p) & (gt == g)))


def test_confusion_matrix_ignore_label():
    pred = np.array([0, 1, 1, 0])
    gt = np.array([0, 1, 255, 255])
    conf = cluster_eval.confusion_matrix(pred, gt, 2, 2, ignore_label=255)
    assert conf.sum() == 2
    assert conf[0, 0] == 1 and conf[1, 1] == 1
    # maps of the same size but not the same shape do not pair up pixel by pixel
    with pytest.raises(ValueError, match=r"shape mismatch \(2, 3\) vs \(3, 2\)"):
        cluster_eval.confusion_matrix(np.zeros((2, 3), int), np.zeros((3, 2), int), 2, 2)


def test_greedy_precision_match_counting_oracle():
    # cluster 0: 3 px of class 1, 1 px of class 0 -> class 1
    # cluster 1: 2 px of class 0, 2 px of class 2 -> tie, lower id wins -> 0
    cm = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    gm = np.array([[0, 1, 1, 1], [0, 0, 2, 2]])
    merged, table = cluster_eval.greedy_precision_match([cm], [gm], 3, 2)
    assert list(table) == [1, 0]
    assert np.array_equal(merged[0], table[cm])


def test_greedy_precision_match_empty_cluster_warns():
    cm = np.zeros((2, 2), dtype=int)
    gm = np.ones((2, 2), dtype=int)
    with pytest.warns(UserWarning, match="no non-ignored"):
        _, table = cluster_eval.greedy_precision_match([cm], [gm], 2, 3)
    assert list(table[1:]) == [0, 0]


def brute_force_assignment(cost):
    n = len(cost)
    best_total, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_total - 1e-12 or (
                abs(total - best_total) <= 1e-12 and perm < tuple(best_perm)):
            best_total, best_perm = total, perm
    return best_total, np.array(best_perm)


def test_hungarian_matches_bruteforce_with_lexicographic_ties():
    rng = np.random.default_rng(6)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        # small integer costs force plenty of ties
        cost = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        total, perm = brute_force_assignment(cost)
        got = cluster_eval.hungarian(cost)
        assert np.array_equal(got, perm), (trial, cost)
        assert cost[np.arange(n), got].sum() == pytest.approx(total)


def test_hungarian_identity_on_diagonal_costs():
    cost = np.full((4, 4), 5.0)
    np.fill_diagonal(cost, 0.0)
    assert np.array_equal(cluster_eval.hungarian(cost), np.arange(4))


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        cluster_eval.hungarian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cluster_eval.hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- mIoU


def test_miou_hand_case():
    pred = np.array([[0, 0], [1, 1]])
    gt = np.array([[0, 1], [1, 1]])
    # class 0: tp=1 fp=1 fn=0 -> 1/2; class 1: tp=2 fp=0 fn=1 -> 2/3
    score, per_class = cluster_eval.miou([pred], [gt], 2)
    assert score == pytest.approx((0.5 + 2 / 3) / 2)
    assert per_class[0] == pytest.approx(0.5)
    assert per_class[1] == pytest.approx(2 / 3)


def test_miou_perfect_prediction():
    gt = np.random.default_rng(7).integers(0, 4, size=(10, 10))
    score, per_class = cluster_eval.miou([gt], [gt], 4)
    assert score == 1.0
    assert np.allclose(per_class, 1.0)


def test_miou_excludes_absent_classes():
    pred = np.zeros((4, 4), dtype=int)
    gt = np.zeros((4, 4), dtype=int)
    score, per_class = cluster_eval.miou([pred], [gt], 3)
    assert score == 1.0
    assert np.isnan(per_class[1]) and np.isnan(per_class[2])


def test_miou_with_ignore_label():
    pred = np.array([[0, 1], [1, 1]])
    gt = np.array([[0, 255], [1, 1]])
    score, _ = cluster_eval.miou([pred], [gt], 2, ignore_label=255)
    assert score == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_hungarian_matched_miou_equals_miou_of_relabeled_maps(seed):
    """Counting the maps once scores what relabeling every map by the
    optimal permutation and counting again scores, to the bit."""
    rng = np.random.default_rng(seed)
    n = 5
    preds = list(rng.integers(0, n, size=(3, 6, 7)))
    gts = [np.where(rng.uniform(size=p.shape) < 0.6, (p + 2) % (n - 1),
                    rng.integers(0, n - 1, size=p.shape)) for p in preds]  # no class n-1
    gts[0][0, :3] = 255
    conf = sum(cluster_eval.confusion_matrix(p, g, n, n, 255) for p, g in zip(preds, gts))
    perm = cluster_eval.hungarian(-conf.astype(np.float64))
    want, _ = cluster_eval.miou([perm[p] for p in preds], gts, n, ignore_label=255)
    assert cluster_eval.hungarian_matched_miou(preds, gts, n, ignore_label=255) == want


def test_hungarian_matched_miou_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 2, 3\) vs \(1, 3, 2\)"):
        cluster_eval.hungarian_matched_miou([np.zeros((2, 3), int)],
                                            [np.zeros((3, 2), int)], 2)


@pytest.mark.parametrize("score", [cluster_eval.miou, cluster_eval.hungarian_matched_miou])
def test_miou_rejects_a_ragged_list_of_maps(score):
    """Maps are scored as one stack: a list of maps of two shapes is refused
    even where each prediction matches its ground truth."""
    maps = [np.zeros((2, 3), int), np.zeros((3, 2), int)]
    with pytest.raises(ValueError, match="label maps must share one shape"):
        score(maps, maps, 2)


# ---------------------------------------------------------------- protocols


def planted_features(rng, n_images=6, n_classes=3, h=8, w=8, d=6, noise=0.05):
    """Feature grids whose tokens are noisy class prototypes."""
    protos = np.eye(n_classes, d)
    feats, gts = [], []
    for _ in range(n_images):
        gt = rng.integers(0, n_classes, size=(h, w))
        f = protos[gt].transpose(2, 0, 1) + noise * rng.normal(size=(d, h, w))
        feats.append(f)
        gts.append(gt)
    return feats, gts


def test_overcluster_eval_recovers_planted_classes():
    rng = np.random.default_rng(8)
    feats, gts = planted_features(rng)
    mean, std, scores = cluster_eval.overcluster_eval(feats, gts, k=9, n_classes=3,
                                                      n_seeds=3, seed=0)
    assert len(scores) == 3
    assert mean > 0.99
    assert std < 0.01


def test_overcluster_eval_chance_level_on_shuffled_labels():
    rng = np.random.default_rng(9)
    feats, gts = planted_features(rng)
    shuffled = [rng.integers(0, 3, size=g.shape) for g in gts]
    mean, _, _ = cluster_eval.overcluster_eval(feats, shuffled, k=9, n_classes=3,
                                               n_seeds=2, seed=0)
    assert mean < 0.5


def test_cluster_maps_shapes_and_range():
    rng = np.random.default_rng(10)
    feats, _ = planted_features(rng, n_images=3)
    maps, result = cluster_eval.cluster_maps_for(feats, k=4, seed=0)
    assert len(maps) == 3
    for m in maps:
        assert m.shape == (8, 8)
        assert m.max() < 4
    assert result.centroids.shape == (4, 6)


def test_probe_grads_match_fd():
    rng = np.random.default_rng(11)
    tokens = rng.normal(size=(20, 5))
    labels = rng.integers(0, 3, size=20)
    w = rng.normal(0, 0.1, size=(5, 3))
    b = rng.normal(0, 0.1, size=3)
    _, gw, gb = cluster_eval.probe_loss_and_grads(w, b, tokens, labels)
    eps = 1e-6
    for arr, g in ((w, gw), (b, gb)):
        fd = np.zeros_like(arr)
        flat, fdflat = arr.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _, _ = cluster_eval.probe_loss_and_grads(w, b, tokens, labels)
            flat[i] = orig - eps
            dn, _, _ = cluster_eval.probe_loss_and_grads(w, b, tokens, labels)
            flat[i] = orig
            fdflat[i] = (up - dn) / (2 * eps)
        assert np.allclose(g, fd, atol=1e-8)


def test_linear_probe_learns_planted_classes():
    rng = np.random.default_rng(12)
    feats, gts = planted_features(rng, n_images=8)
    score, params = cluster_eval.linear_probe(feats[:6], gts[:6], feats[6:], gts[6:],
                                              n_classes=3)
    assert score > 0.95
    assert params["w"].shape == (6, 3)


def test_linear_probe_chance_on_shuffled_labels():
    rng = np.random.default_rng(13)
    feats, gts = planted_features(rng, n_images=8)
    shuffled = [rng.integers(0, 3, size=g.shape) for g in gts]
    score, _ = cluster_eval.linear_probe(feats[:6], shuffled[:6], feats[6:],
                                         shuffled[6:], n_classes=3)
    assert score < 0.5


def test_linear_probe_is_the_minimum_of_its_objective():
    """Two probes of the same tokens return bit-identical params, and there
    the penalized objective over the standardized tokens (a constant
    dimension keeps divisor 1) has a gradient max-norm of at most PROBE_GTOL."""
    rng = np.random.default_rng(15)
    feats, gts = planted_features(rng, n_images=8)
    feats = [np.concatenate([f, np.full((1, 8, 8), 2.0)]) for f in feats]
    (score, params), (again, params_again) = [
        cluster_eval.linear_probe(feats[:6], gts[:6], feats[6:], gts[6:], n_classes=3)
        for _ in range(2)]
    assert score == again
    assert all(np.array_equal(params[k], params_again[k]) for k in ("w", "b"))

    x, y = model.token_rows(feats[:6]), np.ravel(gts[:6])
    mean, std = x.mean(axis=0), x.std(axis=0)
    assert std[-1] == 0
    std[-1] = 1.0
    w, b = params["w"] * std[:, None], params["b"] + mean @ params["w"]
    _, gw, gb = cluster_eval.probe_loss_and_grads(w, b, (x - mean) / std, y)
    grad = np.concatenate([gw.ravel(), gb]) + cluster_eval.PROBE_L2 * np.concatenate(
        [w.ravel(), b])
    assert np.abs(grad).max() <= cluster_eval.PROBE_GTOL


def test_linear_probe_that_misses_its_tolerance_raises(monkeypatch):
    rng = np.random.default_rng(16)
    feats, gts = planted_features(rng, n_images=4)
    monkeypatch.setattr(cluster_eval, "PROBE_GTOL", 0.0)
    with pytest.raises(FloatingPointError, match="linear probe did not converge"):
        cluster_eval.linear_probe(feats[:2], gts[:2], feats[2:], gts[2:], n_classes=3)


def test_probe_logits_equal_the_per_image_loop():
    """One resize of the stack and one einsum give, bit for bit, the logits
    of resizing and scoring each held-out image on its own."""
    rng = np.random.default_rng(14)
    feats = np.stack(planted_features(rng, n_images=5, h=7, w=9)[0]).astype(np.float32)
    params = {"w": rng.normal(size=(6, 3)), "b": rng.normal(size=3)}
    for out_hw in ((7, 9), (20, 15)):
        want = np.stack([
            np.einsum("dhw,dc->chw", cluster_eval.resize_bilinear(f.astype(np.float64), *out_hw),
                      params["w"]) + params["b"][:, None, None] for f in feats])
        got = cluster_eval.probe_logits(feats, params, *out_hw)
        assert got.shape == (5, 3, *out_hw)
        assert np.array_equal(got, want)
