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

from . import crops, model

EVAL_MASK_SIZE = 100
DEFAULT_SEEDS = 5
PROBE_L2 = 1e-3  # ridge weight on every probe weight and bias
PROBE_GTOL = 1e-6  # max |gradient| of the probe objective at its minimum


# --------------------------------------------------------------------------
# resizing helpers

def resize_nearest(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of an (..., H, W) stack of label grids."""
    grid = np.asarray(grid)
    h, w = grid.shape[-2:]
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.intp), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.intp), w - 1)
    return grid[..., rows[:, None], cols[None, :]]


def resize_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W) or (..., C, H, W) feature grid."""
    return crops.align(grid, crops.FULL_BOX, out_h, out_w)


# --------------------------------------------------------------------------
# K-means

@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float


def _sq_dists(two_a: np.ndarray, a_sq_norms: np.ndarray, b: np.ndarray,
              b_sq_norms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances |a|^2 - 2 a.b + |b|^2 between the rows of a and b,
    clamped at 0, written to *out*.

    *two_a* @ *b*.T must be 2 a.b (pass ``2 * a``, or a and ``2 * b``);
    the squared row norms of both sides are computed once per Lloyd run.
    """
    np.matmul(two_a, b.T, out=out)
    np.subtract(a_sq_norms[:, None], out, out=out)
    np.add(out, b_sq_norms[None, :], out=out)
    return np.maximum(out, 0.0, out=out)


def _rounding_tolerance(dim: int) -> tuple[float, float]:
    """The relative and absolute margins (rel, abs) by which a comparison
    of two computed squared distances of *dim*-dimensional rows must be won
    to hold for the real values too.

    Any evaluation of a dot product of D terms, in any order, is within
    gamma_D sum|2 x_j c_j| <= (D u / 2) (|x| + |c|)^2 of the real value, and
    the subtraction and the addition of |x|^2 - 2 x.c + |c|^2 add
    u (|x| + |c|)^2 each. So two computed values of one distance differ by
    at most (D + 4) u (|x| + |c|)^2, plus the underflow error of each
    operation, and a comparison of two distances must allow twice that.
    Both terms are doubled again for slack: rel = 4 (D + 4) u and
    abs = 8 (D + 2) times the least subnormal.
    """
    eps = np.finfo(np.float64).eps  # 2u
    return 2.0 * (dim + 4) * eps, 8.0 * (dim + 2) * np.finfo(np.float64).smallest_subnormal


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds (Arthur & Vassilvitskii 2007) of C-ordered *points*,
    computing only the distances that the triangle inequality does not rule
    out (Raff 2021, "Exact Acceleration of K-Means++ and K-Means||").

    Each round draws the next seed c_i with probability proportional to d2,
    every point's least squared distance to the seeds so far, and lowers d2
    to |x - c_i|^2 where that is smaller. A point x whose nearest seed so far
    is c has |x - c_i| >= |c_i - c| - |x - c| >= |c_i - c| / 2 >= |x - c|
    once |c_i - c|^2 >= 4 |x - c|^2, so it keeps d2 and gets no distance;
    every other point gets ``np.sum((x - c_i) ** 2)``, as plain seeding
    computes it. d2, each draw and each seed are therefore bit-identical to
    plain seeding, which computes all n distances every round.

    The test runs on computed values: a sum of D squared differences is
    within rho = gamma_(D+2) (relative) and D times the least subnormal
    (underflow) of the real one, so |c_i - c|^2 > 4 d2 (1 + rho)/(1 - rho)
    plus a few underflow errors proves the computed |x - c_i|^2 is at least
    d2. ``_rounding_tolerance`` covers that: its rel = 4 (D + 4) u exceeds
    twice rho with room for rounding the test itself, and its abs exceeds
    the five underflow terms.
    """
    n = len(points)
    rel_tol, abs_tol = _rounding_tolerance(points.shape[1])
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    nearest = np.zeros(n, dtype=np.intp)  # the seed that d2 measures to
    # a new seed farther than this (squared) from a point's nearest seed
    # cannot lower the point's d2
    reach = 4.0 * (1.0 + rel_tol) * d2 + abs_tol
    # one buffer for every round's candidates: a fresh gather of a different
    # size each round raised the peak RSS of a run_ladder process by 2.8 MB
    work = np.empty_like(points, order="C")
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
            continue
        seed = centroids[i] = points[rng.choice(n, p=d2 / total)]
        separation = np.sum((centroids[:i] - seed) ** 2, axis=1)
        near = np.flatnonzero(separation[nearest] <= reach)
        diff = np.take(points, near, axis=0, mode="clip", out=work[:len(near)])
        np.subtract(diff, seed, out=diff)
        new = np.sum(np.square(diff, out=diff), axis=1)
        closer = new < d2[near]
        near, new = near[closer], new[closer]
        d2[near] = new
        nearest[near] = i
        reach[near] = 4.0 * (1.0 + rel_tol) * new + abs_tol
    return centroids


def _update_centroids(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                      assigned_d2: np.ndarray,
                      prev_members: np.ndarray | None = None) -> np.ndarray:
    """Set each centroid to its cluster's mean; reseed empty clusters.

    Clusters are settled in id order: an empty cluster takes the point
    farthest from its centroid (that distance is then zeroed), and a point
    taken from a cluster not yet settled no longer counts for its mean.
    *labels* and *assigned_d2* are updated in place. Returns each point's
    mean membership (k for a point that counts for no mean). Given the
    membership an earlier call returned, only the means of clusters whose
    members changed since are recomputed: the mean of the same points in
    the same order is the same to the bit.
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
    stale = np.zeros(k + 1, dtype=bool)
    if prev_members is None:
        stale[:k] = True
    else:
        changed = mean_labels != prev_members
        stale[mean_labels[changed]] = True
        stale[prev_members[changed]] = True
    stale[:k] &= counts > 0
    stale[k] = False
    # each stale cluster's points as a contiguous run, in point order, so
    # that the mean of a run repeats the summation order of
    # points[labels == c] (a stable sort of keys that fit 16 bits is a
    # radix sort)
    rows = np.flatnonzero(stale[mean_labels])
    keys = mean_labels[rows].astype(np.min_scalar_type(k))
    rows = rows[np.argsort(keys, kind="stable")]
    ids = np.flatnonzero(stale[:k])
    ends = np.cumsum(counts[ids])
    for c, end, size in zip(ids.tolist(), ends.tolist(), counts[ids].tolist()):
        centroids[c] = points[rows[end - size:end]].mean(axis=0)
    return mean_labels


# A partial pass takes less time than the full (n, k) matrix while at most
# about half of the centroids moved (measured on 20,000 tokens of 32
# dimensions: at k = 150 a partial pass costs 0.8 of a full one at 40-50%
# moved and 1.2 at 50-60%; at k = 20, 1.0 at 30-40%). The share may not
# exceed one half: a partial pass keeps two (moved, n) blocks in the
# (n, k) buffer.
_PARTIAL_SHARE = 0.5


class _Assignment:
    """Each point's nearest centroid and squared distance, kept up to date
    across Lloyd iterations by recomputing only what moved centroids change.

    A full pass computes the (n, k) matrix with one ``_sq_dists`` call and
    takes ``argmin`` of each row, as plain Lloyd does; its distances are
    *exact*, the very values plain Lloyd sees. A centroid that did not move
    leaves every distance to it unchanged, so a partial pass compares each
    point only with the centroids that moved. A point whose own centroid
    moved also needs its distances to the centroids that did not; *second*
    bounds them from below (the least distance last seen to any centroid
    but the point's own), and only when the nearest moved centroid does
    not beat it does the point get a full row.

    Partial passes run BLAS products of other shapes, whose rounding may
    differ from the full matrix's (another kernel, or gemv), so they
    decide only what a rounding bound settles: each distance from any
    ``_sq_dists`` call is within ``tol / 2`` of the full matrix's value,
    and a comparison counts only when it is won by more than ``tol``.
    Anything closer, such as an exact tie, falls back to a full pass, as
    does reseeding an empty cluster, which needs exact distances.
    """

    def __init__(self, points: np.ndarray, centroids: np.ndarray):
        n, dim = points.shape
        self.two_points = 2.0 * points
        self.sq_norms = (points**2).sum(axis=1)
        self.norms = np.sqrt(self.sq_norms)
        self.rel_tol, self.abs_tol = _rounding_tolerance(dim)
        self.d2 = np.empty((n, len(centroids)))  # the one (n, k) buffer
        # a block of full rows and the block's points fit in it together
        self.block = self.d2.size // (len(centroids) + dim)
        self.full(centroids)

    def full(self, centroids: np.ndarray) -> None:
        """The exact assignment: the full matrix and its row argmins."""
        d2 = self.d2
        _sq_dists(self.two_points, self.sq_norms, centroids,
                  (centroids**2).sum(axis=1), d2)
        self.labels = d2.argmin(axis=1)
        self.dist = d2[np.arange(len(d2)), self.labels]
        self.second = np.full(len(d2), -np.inf)  # not known until a partial pass
        self.exact = True

    def tolerance(self, c_sq_norms: np.ndarray) -> np.ndarray:
        """Per point, the margin by which a comparison of two of its
        distances must be won: twice the most (with slack) by which two
        ``_sq_dists`` values of one distance can differ, for centroids of
        these squared norms."""
        return self.rel_tol * (self.norms + np.sqrt(c_sq_norms.max()))**2 + self.abs_tol

    def update(self, centroids: np.ndarray, moved: np.ndarray) -> None:
        """Bring the assignment up to date after the *moved* centroids changed."""
        n, k = self.d2.shape
        dim = self.two_points.shape[1]
        m = len(moved)
        if m == 0:
            return
        if m > _PARTIAL_SHARE * k or not self.block:
            return self.full(centroids)
        labels, dist, second = self.labels, self.dist, self.second
        flat = self.d2.reshape(-1)
        c_sq = (centroids**2).sum(axis=1)
        tol = self.tolerance(c_sq)
        own = np.zeros(k, dtype=bool)
        own[moved] = True
        own = own[labels]  # points whose own centroid moved

        # every point against the moved centroids, one long row per centroid
        part = flat[:m * n].reshape(m, n)
        _sq_dists(centroids[moved], c_sq[moved], self.two_points, self.sq_norms, part)
        nearest = part.min(axis=0)
        gap = nearest - dist
        if np.any((np.abs(gap) <= tol) & ~own):
            return self.full(centroids)
        stay = (gap > 0) & ~own
        np.minimum(second, nearest, out=second, where=stay)

        # the nearest and the second-nearest moved centroid of the points
        # that a moved centroid took, and of those whose own centroid moved
        # but whose nearest moved centroid still beats every other one
        took = (gap < 0) & ~own
        rows = np.flatnonzero(took | (own & (nearest < second - tol)))
        cols = np.take(part, rows, axis=1, mode="clip",
                       out=flat[m * n:m * (n + len(rows))].reshape(m, -1))
        v = nearest[rows]
        near = cols <= v + tol[rows]  # the nearest moved centroid and its rivals
        done = np.count_nonzero(near, axis=0) == 1
        took = took[rows]
        if not done[took].all():
            return self.full(centroids)
        j = np.empty(len(rows), dtype=np.intp)
        which, at = np.nonzero(near)
        j[at] = which
        cols[near] = np.inf
        runner_up = cols.min(axis=0)
        new_second = np.minimum(second[rows], runner_up)
        new_second[took] = np.minimum(new_second[took], dist[rows[took]])
        settled = rows[done]
        labels[settled] = moved[j[done]]
        dist[settled] = v[done]
        second[settled] = new_second[done]
        own[settled] = False

        # full rows for the other points whose own centroid moved, a block
        # at a time, with the block's points gathered into the buffer too
        todo = np.flatnonzero(own)
        for start in range(0, len(todo), self.block):
            rows = todo[start:start + self.block]
            r = len(rows)
            sub = flat[:r * k].reshape(r, k)
            two_points = np.take(self.two_points, rows, axis=0, mode="clip",
                                 out=flat[r * k:r * (k + dim)].reshape(r, dim))
            _sq_dists(two_points, self.sq_norms[rows], centroids, c_sq, sub)
            j = sub.argmin(axis=1)
            at = np.arange(r)
            v = sub[at, j]
            sub[at, j] = np.inf
            runner_up = sub.min(axis=1)
            if np.any(runner_up - v <= tol[rows]):
                return self.full(centroids)
            labels[rows] = j
            dist[rows] = v
            second[rows] = runner_up
        self.exact = False


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int = 100) -> KMeansResult:
    k = len(centroids)
    nearest = _Assignment(points, centroids)
    labels = np.full(len(points), -1)
    members = None
    moved = np.arange(k)
    for _ in range(max_iter):
        nearest.update(centroids, moved)
        if not nearest.exact and np.bincount(nearest.labels, minlength=k).min() == 0:
            nearest.full(centroids)  # reseeding picks points by exact distance
        new_labels, assigned_d2 = nearest.labels.copy(), nearest.dist.copy()
        before = centroids.copy()
        members = _update_centroids(points, centroids, new_labels, assigned_d2, members)
        moved = np.flatnonzero((centroids.view(np.int64) != before.view(np.int64)).any(axis=1))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    if len(moved) or not nearest.exact:
        nearest.full(centroids)
    return KMeansResult(centroids=centroids, labels=nearest.labels,
                        inertia=float(nearest.dist.sum()))


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """k-means++ seeding, then Lloyd iterations."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if len(points) < k:
        raise ValueError(f"need at least k={k} points, got {len(points)}")
    rng = np.random.default_rng([seed, 17, 0])
    return _lloyd(points, _kmeans_pp_init(points, k, rng))


# --------------------------------------------------------------------------
# matching and metrics

def confusion_matrix(pred, gt, n_pred: int, n_gt: int,
                     ignore_label: int | None = None) -> np.ndarray:
    """counts[pred_class][gt_class] over the non-ignored pixels of two label
    maps, or two stacks of maps of one shape ((N, H, W) arrays or lists of
    same-shape maps), counted at once."""
    try:
        pred, gt = np.asarray(pred), np.asarray(gt)
    except ValueError:
        raise ValueError("label maps must share one shape") from None
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    pred, gt = pred.ravel(), gt.ravel()
    if ignore_label is not None:
        keep = gt != ignore_label
        pred, gt = pred[keep], gt[keep]
    idx = pred.astype(np.int64) * n_gt + gt.astype(np.int64)
    return np.bincount(idx, minlength=n_pred * n_gt).reshape(n_pred, n_gt)


def greedy_precision_match(cluster_maps: np.ndarray, gt_maps: np.ndarray,
                           n_classes: int, k: int,
                           ignore_label: int | None = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Assign each cluster the class of its highest pixel precision.

    Precision of cluster c against class g is |c intersect g| / |c| over all
    non-ignored pixels of the split; ties break toward the lower class id.
    Returns the merged maps and the cluster -> class table.
    """
    counts = confusion_matrix(cluster_maps, gt_maps, k, n_classes, ignore_label)
    assignment = counts.argmax(axis=1)
    empty = counts.sum(axis=1) == 0
    if empty.any():
        warnings.warn(f"{int(empty.sum())} clusters have no non-ignored pixels; "
                      "assigned class 0", stacklevel=2)
        assignment[empty] = 0
    return assignment[np.asarray(cluster_maps)], assignment


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
    # imported here: scipy.optimize costs a process about 49 MB and 0.45 s
    from scipy.optimize import linear_sum_assignment

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


def _mean_iou(conf: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`miou` of square confusion counts."""
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=1) - tp
    fn = conf.sum(axis=0) - tp
    union = tp + fp + fn
    iou = np.full(len(conf), np.nan)
    present = conf.sum(axis=0) > 0  # class appears in gt
    with np.errstate(invalid="ignore", divide="ignore"):
        iou[present] = tp[present] / union[present]
    return float(np.nanmean(iou[present])), iou


def miou(pred_maps, gt_maps, n_classes: int,
         ignore_label: int | None = None) -> tuple[float, np.ndarray]:
    """Mean IoU over classes present in ground truth, dataset-aggregated.

    Returns (mean, per-class IoU vector with NaN for classes excluded).
    """
    return _mean_iou(confusion_matrix(pred_maps, gt_maps, n_classes, n_classes, ignore_label))


def hungarian_matched_miou(pred_maps, gt_maps, n_classes: int,
                           ignore_label: int | None = None) -> float:
    """Permutation-invariant mIoU: optimal relabeling, then mean IoU."""
    conf = confusion_matrix(pred_maps, gt_maps, n_classes, n_classes, ignore_label)
    perm = hungarian(-conf.astype(np.float64))
    return _mean_iou(conf[np.argsort(perm)])[0]  # relabeling moves count row p to perm[p]


# --------------------------------------------------------------------------
# protocols

def cluster_maps_for(features: np.ndarray, k: int,
                     seed: int) -> tuple[np.ndarray, KMeansResult]:
    """Run one K-means over all spatial tokens; (N, H, W) cluster-id grids."""
    features = np.asarray(features)
    result = kmeans(model.token_rows(features), k, seed=seed)
    maps = result.labels.astype(np.uint16).reshape(len(features), *features.shape[2:])
    return maps, result


def overcluster_eval(features: np.ndarray, gt_maps: np.ndarray,
                     k: int, n_classes: int, n_seeds: int = DEFAULT_SEEDS,
                     ignore_label: int | None = None,
                     seed: int = 0) -> tuple[float, float, list[float]]:
    """Overclustering protocol: K-means, greedy merge, Hungarian, mIoU.

    Returns (mean, std, per-seed values) over *n_seeds* K-means runs.
    """
    gt_small = resize_nearest(gt_maps, EVAL_MASK_SIZE, EVAL_MASK_SIZE)
    scores = []
    for s in range(n_seeds):
        maps, _ = cluster_maps_for(features, k, seed=seed * 1000 + s)
        maps_up = resize_nearest(maps, EVAL_MASK_SIZE, EVAL_MASK_SIZE)
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


def linear_probe(train_features: np.ndarray, train_gt: np.ndarray,
                 eval_features: np.ndarray, eval_gt: np.ndarray,
                 n_classes: int) -> tuple[float, dict[str, np.ndarray]]:
    """Multinomial logistic regression on frozen tokens, evaluated by mIoU.

    Training pairs each token with the nearest-neighbor downsampled mask
    label; evaluation bilinearly upsamples features to mask size. The
    training tokens are standardized per dimension (a constant dimension
    keeps divisor 1), and L-BFGS runs from zero on the mean cross-entropy
    plus ``PROBE_L2 / 2`` times the squared norm of every weight and bias.
    That objective is strictly convex, so the probe is its one minimum,
    reached once the gradient's max-norm is at most ``PROBE_GTOL``; a solve
    that stops short raises ``FloatingPointError``. The returned params act
    on unstandardized features.
    """
    x = model.token_rows(train_features).astype(np.float64)
    y = resize_nearest(train_gt, *np.shape(train_features)[-2:]).ravel().astype(np.intp)
    mean, std = x.mean(axis=0), x.std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std
    n_w = z.shape[1] * n_classes

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, gw, gb = probe_loss_and_grads(theta[:n_w].reshape(-1, n_classes),
                                            theta[n_w:], z, y)
        return (loss + 0.5 * PROBE_L2 * theta @ theta,
                np.concatenate([gw.ravel(), gb]) + PROBE_L2 * theta)

    from scipy.optimize import minimize  # imported here, as in hungarian

    # ftol=0: only the gradient tolerance ends the solve
    result = minimize(objective, np.zeros(n_w + n_classes), jac=True, method="L-BFGS-B",
                      options={"gtol": PROBE_GTOL, "ftol": 0.0})
    g_max = float(np.abs(result.jac).max())
    if not g_max <= PROBE_GTOL:
        raise FloatingPointError(f"linear probe did not converge: gradient max-norm "
                                 f"{g_max:.2e} > {PROBE_GTOL:g} ({result.message})")
    w = result.x[:n_w].reshape(-1, n_classes) / std[:, None]
    params = {"w": w, "b": result.x[n_w:] - mean @ w}

    eval_gt = np.asarray(eval_gt)
    logits = probe_logits(eval_features, params, *eval_gt.shape[-2:])
    score, _ = miou(logits.argmax(axis=1), eval_gt, n_classes)
    return score, params


def probe_logits(features: np.ndarray, params: dict[str, np.ndarray],
                 out_h: int, out_w: int) -> np.ndarray:
    """(N, classes, out_h, out_w) probe logits of (N, D, H, W) features,
    bilinearly upsampled in one resize of the stack."""
    up = resize_bilinear(np.asarray(features, dtype=np.float64), out_h, out_w)
    return np.einsum("ndhw,dc->nchw", up, params["w"]) + params["b"][:, None, None]
