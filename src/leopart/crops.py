"""Multi-crop sampling, pairwise intersection boxes and region alignment.

Crops live in normalized [0,1] coordinates of the source image. Alignment
resamples a feature grid over a box with bilinear interpolation at a fixed
output resolution; its adjoint (``align_backward``) scatter-adds gradients
through the same taps. Both apply the same pair of 1-D tap matrices, one
per axis, so the adjoint identity holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RETRY_BUDGET = 1000

FULL_BOX = (0.0, 0.0, 1.0, 1.0)


class CropSamplingError(RuntimeError):
    """Raised when rejection sampling cannot satisfy the intersection constraint."""


@dataclass
class CropSpec:
    n_global: int = 2
    n_local: int = 4
    global_scale: tuple[float, float] = (0.4, 1.0)
    local_scale: tuple[float, float] = (0.05, 0.4)
    min_intersection: float = 0.01
    aspect: tuple[float, float] = (3 / 4, 4 / 3)

    def __post_init__(self) -> None:
        for lo, hi in (self.global_scale, self.local_scale):
            if not (0.0 < lo <= hi <= 1.0):
                raise ValueError(f"invalid scale range ({lo}, {hi})")
        if not (0.0 < self.min_intersection < 1.0):
            raise ValueError("min_intersection must be in (0, 1)")
        if not (0.0 < self.aspect[0] <= self.aspect[1]):
            raise ValueError("invalid aspect range")
        if self.n_global < 1:
            raise ValueError("need at least one global crop")


def sample_crops(spec: CropSpec, rng_seed: int | np.random.Generator) -> np.ndarray:
    """(V, 4) boxes ``(x0, y0, x1, y1)`` of n_global global crops, then n_local local ones.

    Every pair involving at least one global crop must intersect by at least
    ``spec.min_intersection`` of the unit image area; local/local pairs are
    unconstrained. Each crop gets a rejection budget of ``RETRY_BUDGET``.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    log_aspect = (np.log(spec.aspect[0]), np.log(spec.aspect[1]))
    boxes: list[tuple[float, float, float, float]] = []
    for view in range(spec.n_global + spec.n_local):
        is_global = view < spec.n_global
        # a global crop must meet every earlier crop, a local one every global crop
        others = boxes if is_global else boxes[:spec.n_global]
        for _ in range(RETRY_BUDGET):
            area = rng.uniform(*(spec.global_scale if is_global else spec.local_scale))
            ratio = np.exp(rng.uniform(*log_aspect))
            w = math.sqrt(area * ratio)
            h = math.sqrt(area / ratio)
            if w > 1.0 or h > 1.0:
                continue
            x0 = rng.uniform(0.0, 1.0 - w)
            y0 = rng.uniform(0.0, 1.0 - h)
            x1, y1 = x0 + w, y0 + h
            if all(max(min(x1, b[2]) - max(x0, b[0]), 0.0)
                   * max(min(y1, b[3]) - max(y0, b[1]), 0.0) >= spec.min_intersection
                   for b in others):
                boxes.append((x0, y0, x1, y1))
                break
        else:
            kind = "global" if is_global else "local"
            raise CropSamplingError(
                f"could not place a {kind} crop within {RETRY_BUDGET} tries; "
                "loosen the scale ranges or lower min_intersection"
            )
    return np.array(boxes)


def pair_boxes(coords: np.ndarray) -> np.ndarray:
    """(..., V, V, 4) pairwise intersections of the (..., V, 4) boxes *coords*.

    Entry ``[..., i, j]`` is the intersection of boxes i and j in box-i-local
    normalized coordinates, so the diagonal is ``FULL_BOX``; it is NaN where
    the two boxes do not intersect.
    """
    own = coords[..., :, None, :]
    other = coords[..., None, :, :]
    lo = np.maximum(own[..., :2], other[..., :2])
    hi = np.minimum(own[..., 2:], other[..., 2:])
    origin, size = own[..., :2], own[..., 2:] - own[..., :2]
    local = np.concatenate([(lo - origin) / size, (hi - origin) / size], axis=-1)
    local[np.any(lo >= hi, axis=-1)] = np.nan
    return local


def taps(lo: np.ndarray, hi: np.ndarray, src: int, out: int) -> np.ndarray:
    """(N, out, src) 1-D bilinear sampling matrices for N intervals [lo, hi].

    Output cell r samples the source axis at the half-pixel-centered point
    mapping the regular out grid into the interval; samples clamp to the
    border. Every row sums to 1. The 2-D sampling of a box is the outer
    product of its y and x taps.
    """
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    t = np.clip((lo + (np.arange(out) + 0.5) / out * (hi - lo)) * src - 0.5, 0.0, src - 1.0)
    i0 = np.floor(t).astype(np.intp)
    i1 = np.minimum(i0 + 1, src - 1)
    w = (t - i0)[..., None]
    cols = np.arange(src)
    return (1.0 - w) * (cols == i0[..., None]) + w * (cols == i1[..., None])


def _box_taps(box, src_h: int, src_w: int, out_h: int, out_w: int,
              dtype) -> tuple[np.ndarray, np.ndarray]:
    coords = np.asarray(box, dtype=np.float64)
    if coords.shape[-1:] != (4,):
        raise ValueError(f"boxes must be (..., 4) arrays of (x0, y0, x1, y1), got {coords.shape}")
    ry = taps(coords[..., 1], coords[..., 3], src_h, out_h).astype(dtype, copy=False)
    rx = taps(coords[..., 0], coords[..., 2], src_w, out_w).astype(dtype, copy=False)
    return ry[..., None, :, :], rx[..., None, :, :]


def _as_channels(grid: np.ndarray) -> tuple[np.ndarray, bool]:
    if grid.ndim == 2:
        return grid[None], True
    if grid.ndim >= 3:
        return grid, False
    raise ValueError(f"feature grid must be (H, W) or (..., C, H, W), got shape {grid.shape}")


def align(src: np.ndarray, box, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear region-of-interest resampling of *src* over *box*.

    *src* is (H, W) or (..., C, H, W); channels are handled independently.
    *box* is one box, or an (..., 4) array of boxes whose leading dims
    broadcast against those of *src*, so one call aligns a whole stack of
    grids, each over its own box. The sampling is separable:
    ``out = R_y · X · R_xᵀ`` per channel.
    """
    chans, squeeze = _as_channels(src)
    h, w = chans.shape[-2:]
    ry, rx = _box_taps(box, h, w, out_h, out_w, src.dtype)
    out = ry @ chans @ np.swapaxes(rx, -1, -2)
    return out[..., 0, :, :] if squeeze else out


def align_backward(grad_out: np.ndarray, box, src_h: int, src_w: int) -> np.ndarray:
    """Exact adjoint of :func:`align` for the same boxes and source dims."""
    chans, squeeze = _as_channels(grad_out)
    oh, ow = chans.shape[-2:]
    ry, rx = _box_taps(box, src_h, src_w, oh, ow, grad_out.dtype)
    grad = np.swapaxes(ry, -1, -2) @ chans @ rx
    return grad[..., 0, :, :] if squeeze else grad
