"""Multi-crop sampling, pairwise intersection boxes and region alignment.

Crops live in normalized [0,1] coordinates of the source image. Alignment
resamples a feature grid over a box with bilinear interpolation at a fixed
output resolution; its adjoint (``resample_adjoint``) scatter-adds gradients
through the same taps. Both apply the same pair of 1-D tap matrices, one
per axis (``box_taps``, built once per box set), so the adjoint identity
holds exactly.
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
            raise ValueError(f"n_global must be at least 1, got {self.n_global}")
        if self.n_local < 0:
            raise ValueError(f"n_local must be at least 0, got {self.n_local}")
        if self.n_global + self.n_local < 2:
            raise ValueError(f"n_global + n_local must be at least 2 for a crop pair, "
                             f"got {self.n_global} + {self.n_local}")


def sample_crops(spec: CropSpec, rng_seed: int | np.random.Generator) -> np.ndarray:
    """(V, 4) boxes ``(x0, y0, x1, y1)`` of n_global global crops, then n_local local ones.

    Every pair involving at least one global crop must intersect by at least
    ``spec.min_intersection`` of the unit image area; local/local pairs are
    unconstrained. Each crop gets a rejection budget of ``RETRY_BUDGET``.

    An attempt draws its area, its log aspect ratio and, unless the crop
    would not fit, its x and y offsets, each as ``lo + (hi - lo) * u`` from
    the generator's next double ``u`` (what ``rng.uniform(lo, hi)`` returns).
    The doubles are drawn in blocks of 4·V, one first attempt per view, and
    mapped with one array expression per quantity, so the boxes equal those
    of scalar ``rng.uniform`` calls; the generator's state afterwards is
    unspecified.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    n_views = spec.n_global + spec.n_local
    log_aspect = (np.log(spec.aspect[0]), np.log(spec.aspect[1]))
    # each double u gives a global area, a local area and a log aspect ratio
    bounds = (spec.global_scale, spec.local_scale, log_aspect)
    lows = np.array([lo for lo, _ in bounds])[:, None]
    spans = np.array([hi - lo for lo, hi in bounds])[:, None]
    u: list[float] = []
    areas: tuple[list[float], list[float]] = ([], [])  # global, local
    ratios: list[float] = []

    def draw_block() -> None:
        block = rng.random(4 * n_views)
        drawn = lows + spans * block
        np.exp(drawn[2], out=drawn[2])
        global_area, local_area, ratio = drawn.tolist()
        u.extend(block.tolist())
        areas[0].extend(global_area)
        areas[1].extend(local_area)
        ratios.extend(ratio)

    boxes: list[tuple[float, float, float, float]] = []
    pos = 0  # the next unused double
    for view in range(n_views):
        is_global = view < spec.n_global
        area_of = areas[0] if is_global else areas[1]
        # a global crop must meet every earlier crop, a local one every global crop
        others = boxes if is_global else boxes[:spec.n_global]
        for _ in range(RETRY_BUDGET):
            if pos + 4 > len(u):
                draw_block()
            w = math.sqrt(area_of[pos] * ratios[pos + 1])
            h = math.sqrt(area_of[pos] / ratios[pos + 1])
            if w > 1.0 or h > 1.0:
                pos += 2
                continue
            x0 = 0.0 + (1.0 - w) * u[pos + 2]
            y0 = 0.0 + (1.0 - h) * u[pos + 3]
            pos += 4
            x1, y1 = x0 + w, y0 + h
            for b in others:
                if (max(min(x1, b[2]) - max(x0, b[0]), 0.0)
                        * max(min(y1, b[3]) - max(y0, b[1]), 0.0) < spec.min_intersection):
                    break
            else:
                boxes.append((x0, y0, x1, y1))
                break
        else:
            kind = "global" if is_global else "local"
            raise CropSamplingError(
                f"could not place a {kind} crop within {RETRY_BUDGET} tries; "
                "loosen the scale ranges or lower min_intersection"
            )
    return np.array(boxes)


def pair_boxes(coords: np.ndarray, n_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """The intersections of the first *n_targets* of the (..., V, 4) boxes
    *coords* with every box, as two (..., n_targets, V, 4) arrays.

    Entry ``[..., j, i]`` is the intersection of target j with box i, in
    box-i-local normalized coordinates in the first array and in
    target-j-local ones in the second, so ``[..., j, j]`` is ``FULL_BOX``.
    Raises ``ValueError`` if a target does not intersect some box.
    """
    target, view = coords[..., :n_targets, None, :], coords[..., None, :, :]
    lo = np.maximum(target[..., :2], view[..., :2])
    hi = np.minimum(target[..., 2:], view[..., 2:])
    apart = np.any(lo >= hi, axis=-1)
    if apart.any():
        raise ValueError("crops do not intersect at (..., target, view) "
                         f"{np.argwhere(apart).tolist()}")
    corners = np.concatenate([lo, hi], axis=-1)
    return tuple((corners - np.tile(own[..., :2], 2)) / np.tile(own[..., 2:] - own[..., :2], 2)
                 for own in (view, target))


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
    w = t - i0
    # one scatter-add: (1 - w) at i0 first, then w at i1, so a clamped border
    # tap (i0 == i1) holds (1 - w) + w like the sum of two one-hot rows
    rows = np.arange(t.size).reshape(t.shape) * src
    weights = np.bincount(np.concatenate([(rows + i0).ravel(), (rows + i1).ravel()]),
                          np.concatenate([(1.0 - w).ravel(), w.ravel()]), t.size * src)
    return weights.reshape(*t.shape, src)


def box_taps(boxes, src_hw: tuple[int, int],
             out_hw: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The float64 tap pair ``(R_y, R_x)`` of one box or an (..., 4) array of
    boxes ``(x0, y0, x1, y1)``: (..., out_h, src_h) and (..., out_w, src_w).

    Build it once per box set and pass it to :func:`resample` and
    :func:`resample_adjoint`, which cast it to their operand's dtype.
    """
    coords = np.asarray(boxes, dtype=np.float64)
    if coords.shape[-1:] != (4,):
        raise ValueError(f"boxes must be (..., 4) arrays of (x0, y0, x1, y1), got {coords.shape}")
    if not np.isfinite(coords).all():
        raise ValueError("boxes must be finite")
    (src_h, src_w), (out_h, out_w) = src_hw, out_hw
    return (taps(coords[..., 1], coords[..., 3], src_h, out_h),
            taps(coords[..., 0], coords[..., 2], src_w, out_w))


def resample(src: np.ndarray, tap_pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Bilinear region-of-interest resampling of *src* through a tap pair.

    *src* is (H, W) or (..., C, H, W); channels are handled independently.
    The leading dims of the taps (one per box, from :func:`box_taps`)
    broadcast against those of *src*, so one call aligns a whole stack of
    grids, each over its own box. The sampling is separable:
    ``out = R_y · X · R_xᵀ`` per channel. The channels are folded into the
    columns, (..., H, C·W), so each box costs one product with R_y and one
    with R_xᵀ; every output element is the same H-term, then W-term dot
    product as in the per-channel form.
    """
    if src.ndim < 2:
        raise ValueError(f"feature grid must be (H, W) or (..., C, H, W), got shape {src.shape}")
    ry, rx = (r.astype(src.dtype, copy=False) for r in tap_pair)
    chans = src[None] if src.ndim == 2 else src
    *lead, c, h, w = chans.shape
    rows = ry @ np.swapaxes(chans, -3, -2).reshape(*lead, h, c * w)  # (..., oh, C·W)
    oh, ow = ry.shape[-2], rx.shape[-2]
    out = rows.reshape(*rows.shape[:-2], oh * c, w) @ np.swapaxes(rx, -1, -2)
    out = np.ascontiguousarray(np.swapaxes(out.reshape(*out.shape[:-2], oh, c, ow), -3, -2))
    return out[..., 0, :, :] if src.ndim == 2 else out


def resample_adjoint(grad_out: np.ndarray,
                     tap_pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Exact adjoint of :func:`resample` for the same tap pair:
    ``R_yᵀ · G · R_x`` per channel."""
    ry, rx = tap_pair
    return resample(grad_out, (np.swapaxes(ry, -1, -2), np.swapaxes(rx, -1, -2)))


def align(src: np.ndarray, box, out_h: int, out_w: int) -> np.ndarray:
    """:func:`resample` of *src* over *box*, one box or an (..., 4) array."""
    return resample(src, box_taps(box, src.shape[-2:], (out_h, out_w)))


def align_backward(grad_out: np.ndarray, box, src_h: int, src_w: int) -> np.ndarray:
    """Exact adjoint of :func:`align` for the same boxes and source dims."""
    return resample_adjoint(grad_out, box_taps(box, (src_h, src_w), grad_out.shape[-2:]))
