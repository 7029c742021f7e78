"""K-means over spatial tokens and the segmentation evaluation protocols.

Two protocols are provided: overclustering (K-means with K well above the
class count, greedy precision merge, Hungarian matching, mIoU) and a
per-token linear probe. Evaluation runs on fixed-size downsampled masks
with nearest-neighbor upsampling of cluster maps and bilinear upsampling
of continuous features.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import crops, model, optim

EVAL_MASK_SIZE = 100
DEFAULT_SEEDS = 5


# --------------------------------------------------------------------------
# resizing helpers

def resize_nearest(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of an (H, W) label grid."""
    h, w = grid.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.intp), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.intp), w - 1)
    return grid[rows[:, None], cols[None, :]]


def resize_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W) or (C, H, W) feature grid."""
    return crops.align(grid, crops.FULL_BOX, out_h, out_w)


# --------------------------------------------------------------------------
# K-means

@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float


def _sq_dists(two_points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Squared distances |x|^2 - 2 x.c + |c|^2, clamped at 0, written to *out*.

    *two_points* is ``2 * points`` and *sq_norms* the squared row norms of
    the points, both fixed for a whole Lloyd run.
    """
    np.matmul(two_points, centroids.T, out=out)
    np.subtract(sq_norms[:, None], out, out=out)
    np.add(out, (centroids**2).sum(axis=1)[None, :], out=out)
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _update_centroids(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                      assigned_d2: np.ndarray) -> None:
    """Set each centroid to its cluster's mean; reseed empty clusters.

    Clusters are settled in id order: an empty cluster takes the point
    farthest from its centroid (that distance is then zeroed), and a point
    taken from a cluster not yet settled no longer counts for its mean.
    *labels* and *assigned_d2* are updated in place.
    """
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    mean_labels = labels.copy()
    empty = np.flatnonzero(counts == 0).tolist()  # ascending, so already a heap
    while empty:
        c = heapq.heappop(empty)
        far = int(assigned_d2.argmax())
        old = int(labels[far])
        if old > c:
            mean_labels[far] = k
            counts[old] -= 1
            if counts[old] == 0:
                heapq.heappush(empty, old)
        centroids[c] = points[far]
        labels[far] = c
        assigned_d2[far] = 0.0
    # contiguous runs of each cluster's points, in point order; taking the
    # mean of each run repeats the summation order of points[labels == c]
    members = points[np.argsort(mean_labels, kind="stable")]
    ends = np.cumsum(counts)
    for c in np.flatnonzero(counts):
        centroids[c] = members[ends[c] - counts[c]:ends[c]].mean(axis=0)


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int) -> KMeansResult:
    n = len(points)
    two_points = 2.0 * points
    sq_norms = (points**2).sum(axis=1)
    d2 = np.empty((n, len(centroids)))
    labels = np.full(n, -1)
    for _ in range(max_iter):
        _sq_dists(two_points, sq_norms, centroids, d2)
        new_labels = d2.argmin(axis=1)
        assigned_d2 = d2[np.arange(n), new_labels]
        _update_centroids(points, centroids, new_labels, assigned_d2)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    _sq_dists(two_points, sq_norms, centroids, d2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia)


def kmeans(points: np.ndarray, k: int, n_seeds: int = DEFAULT_SEEDS,
           max_iter: int = 100, seed: int = 0) -> KMeansResult:
    """k-means++ / Lloyd; the best of *n_seeds* runs by inertia."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    best: KMeansResult | None = None
    for s in range(n_seeds):
        rng = np.random.default_rng([seed, 17, s])
        result = _lloyd(points, _kmeans_pp_init(points, k, rng), max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


# --------------------------------------------------------------------------
# matching and metrics

def confusion_matrix(pred: np.ndarray, gt: np.ndarray, n_pred: int, n_gt: int,
                     ignore_label: int | None = None) -> np.ndarray:
    """counts[pred_class][gt_class] over non-ignored pixels."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if ignore_label is not None:
        keep = gt != ignore_label
        pred, gt = pred[keep], gt[keep]
    idx = pred.astype(np.int64) * n_gt + gt.astype(np.int64)
    return np.bincount(idx, minlength=n_pred * n_gt).reshape(n_pred, n_gt)


def greedy_precision_match(cluster_maps: list[np.ndarray], gt_maps: list[np.ndarray],
                           n_classes: int, k: int,
                           ignore_label: int | None = None,
                           ) -> tuple[list[np.ndarray], np.ndarray]:
    """Assign each cluster the class of its highest pixel precision.

    Precision of cluster c against class g is |c intersect g| / |c| over all
    non-ignored pixels of the split; ties break toward the lower class id.
    Returns the merged maps and the cluster -> class table.
    """
    counts = np.zeros((k, n_classes), dtype=np.int64)
    for cm, gm in zip(cluster_maps, gt_maps):
        counts += confusion_matrix(cm, gm, k, n_classes, ignore_label)
    assignment = counts.argmax(axis=1)
    empty = counts.sum(axis=1) == 0
    if empty.any():
        warnings.warn(f"{int(empty.sum())} clusters have no non-ignored pixels; "
                      "assigned class 0", stacklevel=2)
        assignment[empty] = 0
    merged = [assignment[cm] for cm in cluster_maps]
    return merged, assignment


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching on a square matrix.

    Among equally optimal assignments, returns the lexicographically
    smallest permutation (row-by-row smallest column choice).
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")

    def optimal_total(sub: np.ndarray) -> float:
        if sub.size == 0:
            return 0.0
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    avail = list(range(n))
    perm = np.empty(n, dtype=np.intp)
    remaining_total = optimal_total(cost)
    for i in range(n):
        for j in avail:
            rest_cols = [c for c in avail if c != j]
            rest = optimal_total(cost[np.ix_(range(i + 1, n), rest_cols)])
            if cost[i, j] + rest <= remaining_total + 1e-9:
                perm[i] = j
                avail.remove(j)
                remaining_total = rest
                break
        else:  # pragma: no cover - defensive; the optimum always admits a choice
            raise RuntimeError("no consistent assignment found")
    return perm


def miou(pred_maps: list[np.ndarray], gt_maps: list[np.ndarray], n_classes: int,
         ignore_label: int | None = None) -> tuple[float, np.ndarray]:
    """Mean IoU over classes present in ground truth, dataset-aggregated.

    Returns (mean, per-class IoU vector with NaN for classes excluded).
    """
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    for pm, gm in zip(pred_maps, gt_maps):
        if pm.shape != gm.shape:
            raise ValueError(f"shape mismatch {pm.shape} vs {gm.shape}")
        conf += confusion_matrix(pm, gm, n_classes, n_classes, ignore_label)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=1) - tp
    fn = conf.sum(axis=0) - tp
    union = tp + fp + fn
    iou = np.full(n_classes, np.nan)
    present = conf.sum(axis=0) > 0  # class appears in gt
    with np.errstate(invalid="ignore", divide="ignore"):
        iou[present] = tp[present] / union[present]
    return float(np.nanmean(iou[present])), iou


def hungarian_matched_miou(pred_maps: list[np.ndarray], gt_maps: list[np.ndarray],
                           n_classes: int, ignore_label: int | None = None) -> float:
    """Permutation-invariant mIoU: optimal relabeling, then mean IoU."""
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    for pm, gm in zip(pred_maps, gt_maps):
        conf += confusion_matrix(pm, gm, n_classes, n_classes, ignore_label)
    perm = hungarian(-conf.astype(np.float64))
    score, _ = miou([perm[m] for m in pred_maps], gt_maps, n_classes, ignore_label)
    return score


# --------------------------------------------------------------------------
# protocols

def token_rows(grids: list[np.ndarray]) -> np.ndarray:
    """The spatial tokens of (D, H, W) grids as rows, image by image."""
    return np.concatenate([g.reshape(g.shape[0], -1).T for g in grids], axis=0)


def split_maps(values: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Per-token *values*, image by image, as one (H, W) map per shape."""
    ends = np.cumsum([h * w for h, w in shapes])[:-1]
    return [v.reshape(s) for v, s in zip(np.split(values, ends), shapes)]


def cluster_maps_for(features: list[np.ndarray], k: int, seed: int,
                     max_iter: int = 100) -> tuple[list[np.ndarray], KMeansResult]:
    """Run one K-means over all spatial tokens; per-image cluster-id grids."""
    result = kmeans(token_rows(features), k, n_seeds=1, max_iter=max_iter, seed=seed)
    maps = split_maps(result.labels.astype(np.uint16), [f.shape[1:] for f in features])
    return maps, result


def overcluster_eval(features: list[np.ndarray], gt_maps: list[np.ndarray],
                     k: int, n_classes: int, n_seeds: int = DEFAULT_SEEDS,
                     ignore_label: int | None = None, seed: int = 0,
                     eval_size: int = EVAL_MASK_SIZE) -> tuple[float, float, list[float]]:
    """Overclustering protocol: K-means, greedy merge, Hungarian, mIoU.

    Returns (mean, std, per-seed values) over *n_seeds* K-means runs.
    """
    gt_small = [resize_nearest(g, eval_size, eval_size) for g in gt_maps]
    scores = []
    for s in range(n_seeds):
        maps, _ = cluster_maps_for(features, k, seed=seed * 1000 + s)
        maps_up = [resize_nearest(m, eval_size, eval_size) for m in maps]
        merged, _ = greedy_precision_match(maps_up, gt_small, n_classes, k, ignore_label)
        scores.append(hungarian_matched_miou(merged, gt_small, n_classes, ignore_label))
    return float(np.mean(scores)), float(np.std(scores)), scores


def probe_loss_and_grads(w: np.ndarray, b: np.ndarray, tokens: np.ndarray,
                         labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Softmax cross-entropy of a per-token affine classifier, with grads."""
    logits = tokens @ w + b
    s = logits - logits.max(axis=1, keepdims=True)
    log_p = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
    n = len(tokens)
    loss = float(-log_p[np.arange(n), labels].mean())
    g = np.exp(log_p)
    g[np.arange(n), labels] -= 1.0
    g /= n
    return loss, tokens.T @ g, g.sum(axis=0)


def linear_probe(train_features: list[np.ndarray], train_gt: list[np.ndarray],
                 eval_features: list[np.ndarray], eval_gt: list[np.ndarray],
                 n_classes: int, epochs: int = 25, lr: float = 1e-2,
                 ignore_label: int | None = None, seed: int = 0,
                 ) -> tuple[float, dict[str, np.ndarray]]:
    """Multinomial logistic regression on frozen tokens, evaluated by mIoU.

    Training pairs each token with the nearest-neighbor downsampled mask
    label; evaluation bilinearly upsamples features to mask size.
    """
    x = token_rows(train_features).astype(np.float64)
    y = np.concatenate([resize_nearest(g, *f.shape[1:]).ravel()
                        for f, g in zip(train_features, train_gt)]).astype(np.intp)
    if ignore_label is not None:
        keep = y != ignore_label
        x, y = x[keep], y[keep]

    rng = np.random.default_rng([seed, 23])
    params = {
        "w": rng.normal(0.0, 0.01, size=(x.shape[1], n_classes)),
        "b": np.zeros(n_classes),
    }
    state = optim.AdamState()
    for _ in range(epochs):
        loss, gw, gb = probe_loss_and_grads(params["w"], params["b"], x, y)
        optim.adam_step(params, {"w": gw, "b": gb}, state, lr)

    preds = []
    for f, g in zip(eval_features, eval_gt):
        up = resize_bilinear(f.astype(np.float64), g.shape[0], g.shape[1])
        logits = np.einsum("dhw,dc->chw", up, params["w"]) + params["b"][:, None, None]
        preds.append(logits.argmax(axis=0))
    score, _ = miou(preds, eval_gt, n_classes, ignore_label)
    return score, params
