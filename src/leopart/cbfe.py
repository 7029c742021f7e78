"""Cluster-based foreground extraction and binary mask metrics.

Each cluster id is labeled foreground or background by its pixel precision
against the attention-derived hint mask, thresholded at a single precision
value. Jaccard and boundary-F1 score the resulting masks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from . import tensor_io

DEFAULT_K = 200
THRESHOLD_SINGLE_DATASET = 0.35
BOUNDARY_TOL_FRACTION = 0.0075  # of the image diagonal


@dataclass
class ForegroundMap:
    """Per-cluster fg/bg decision with the precisions that produced it."""

    theta: np.ndarray      # (K,) bool, True = foreground
    precision: np.ndarray  # (K,) in [0, 1]
    threshold: float

    def __post_init__(self) -> None:
        expected = self.precision >= self.threshold
        if not np.array_equal(self.theta, expected):
            raise ValueError("theta inconsistent with precision >= threshold")


def cluster_precision(cluster_maps: np.ndarray, hint_masks: np.ndarray,
                      k: int) -> np.ndarray:
    """Fraction of each cluster's pixels that fall inside the hint masks.

    Aggregated over the whole split of (N, H, W) maps and masks, which must
    share resolution (upsample the cluster maps first if needed). Clusters
    absent from the data get precision 0 with a warning.
    """
    cm = np.asarray(cluster_maps, dtype=np.int64)
    hm = np.asarray(hint_masks).astype(bool)
    if cm.shape != hm.shape:
        raise ValueError(f"resolution mismatch {cm.shape} vs {hm.shape}")
    total = np.bincount(cm.ravel(), minlength=k)[:k]
    inside = np.bincount(cm[hm], minlength=k)[:k]
    missing = total == 0
    if missing.any():
        warnings.warn(f"{int(missing.sum())} clusters never appear; precision set to 0",
                      stacklevel=2)
    with np.errstate(invalid="ignore"):
        precision = np.where(total > 0, inside / np.maximum(total, 1), 0.0)
    return precision


def build_theta(precisions: np.ndarray, c: float) -> ForegroundMap:
    """Foreground iff precision >= c."""
    if not (0.0 <= c <= 1.0):
        raise ValueError("threshold must be in [0, 1]")
    precisions = np.asarray(precisions, dtype=np.float64)
    return ForegroundMap(theta=precisions >= c, precision=precisions, threshold=c)


def extract_foreground(cluster_map: np.ndarray, fg_map: ForegroundMap) -> np.ndarray:
    """Pixelwise fg/bg lookup; unseen cluster ids fall to background."""
    k = len(fg_map.theta)
    unseen = cluster_map >= k
    if unseen.any():
        warnings.warn(f"{int(unseen.sum())} pixels carry unseen cluster ids; "
                      "treated as background", stacklevel=2)
    safe = np.where(unseen, 0, cluster_map)
    out = fg_map.theta[safe.astype(np.intp)]
    out[unseen] = False
    return out.astype(np.uint8)


def jaccard(pred: np.ndarray, gt: np.ndarray) -> float:
    """|pred & gt| / |pred | gt|; both-empty is defined as 1.0."""
    if pred.shape != gt.shape:
        raise ValueError(f"resolution mismatch {pred.shape} vs {gt.shape}")
    pred = pred.astype(bool)
    gt = gt.astype(bool)
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with a 4-neighbor of the opposite value (image border excluded)."""
    mask = mask.astype(bool)
    boundary = np.zeros_like(mask)
    boundary[:-1] |= mask[:-1] & ~mask[1:]
    boundary[1:] |= mask[1:] & ~mask[:-1]
    boundary[:, :-1] |= mask[:, :-1] & ~mask[:, 1:]
    boundary[:, 1:] |= mask[:, 1:] & ~mask[:, :-1]
    return boundary


def boundary_f1(pred: np.ndarray, gt: np.ndarray, tol_px: float | None = None) -> float:
    """Tolerance-based boundary precision/recall F-score.

    A boundary pixel counts as matched if a boundary pixel of the other mask
    lies within *tol_px* (Euclidean). Default tolerance: 0.75% of the image
    diagonal.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"resolution mismatch {pred.shape} vs {gt.shape}")
    if tol_px is None:
        tol_px = BOUNDARY_TOL_FRACTION * float(np.hypot(*pred.shape))
    pb = boundary_pixels(pred)
    gb = boundary_pixels(gt)
    if not pb.any() and not gb.any():
        return 1.0
    if not pb.any() or not gb.any():
        return 0.0
    dist_to_gt = distance_transform_edt(~gb)
    dist_to_pred = distance_transform_edt(~pb)
    precision = float((dist_to_gt[pb] <= tol_px).mean())
    recall = float((dist_to_pred[gb] <= tol_px).mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def write_foreground_map(fg_map: ForegroundMap, path: str | Path) -> None:
    lines = [f"{k} {fg_map.precision[k]:.6f} {'fg' if fg_map.theta[k] else 'bg'}"
             for k in range(len(fg_map.theta))]
    tensor_io.write_text(path, "\n".join(lines) + "\n")


def read_foreground_map(path: str | Path) -> np.ndarray:
    """The (K,) fg/bg flags of a map written by :func:`write_foreground_map`.

    The flags come from the fg/bg column as written, not from the rounded
    precisions. Raises ``ValueError`` naming the file and line of a
    malformed entry.
    """
    theta = []
    for lineno, line in enumerate(tensor_io.read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        try:
            ok = (len(fields) == 3 and int(fields[0]) == len(theta)
                  and 0.0 <= float(fields[1]) <= 1.0 and fields[2] in ("fg", "bg"))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}:{lineno}: expected '{len(theta)} <precision> fg|bg', "
                             f"got {line.strip()!r}")
        theta.append(fields[2] == "fg")
    return np.array(theta, dtype=bool)
