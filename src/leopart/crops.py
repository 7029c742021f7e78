"""Multi-crop sampling, pairwise intersection boxes and region alignment.

Crops live in normalized [0,1] coordinates of the source image. Alignment
resamples a feature grid over a box with bilinear interpolation at a fixed
output resolution; its adjoint (``align_backward``) scatter-adds gradients
through the same taps. Both apply the same pair of 1-D tap matrices, one
per axis, so the adjoint identity holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RETRY_BUDGET = 1000

FULL_BOX = (0.0, 0.0, 1.0, 1.0)


class CropSamplingError(RuntimeError):
    """Raised when rejection sampling cannot satisfy the intersection constraint."""


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
        if self.kind not in ("global", "local"):
            raise ValueError(f"unknown crop kind {self.kind!r}")

    @property
    def coords(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x1, self.y1)

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def intersection_area(a: CropBox, b: CropBox) -> float:
    w = min(a.x1, b.x1) - max(a.x0, b.x0)
    h = min(a.y1, b.y1) - max(a.y0, b.y0)
    return max(w, 0.0) * max(h, 0.0)


def intersection_in_local(a: CropBox, b: CropBox) -> tuple[float, float, float, float] | None:
    """Intersection of *a* and *b* expressed in a-local normalized coordinates."""
    x0 = max(a.x0, b.x0)
    y0 = max(a.y0, b.y0)
    x1 = min(a.x1, b.x1)
    y1 = min(a.y1, b.y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return (
        (x0 - a.x0) / (a.x1 - a.x0),
        (y0 - a.y0) / (a.y1 - a.y0),
        (x1 - a.x0) / (a.x1 - a.x0),
        (y1 - a.y0) / (a.y1 - a.y0),
    )


@dataclass
class BoxMatrix:
    """V x V grid; entry (i, j) is the i/j intersection in crop-i-local coords."""

    boxes: list[list[tuple[float, float, float, float] | None]]

    def __post_init__(self) -> None:
        n = len(self.boxes)
        for i in range(n):
            if len(self.boxes[i]) != n:
                raise ValueError("BoxMatrix must be square")
            if self.boxes[i][i] != FULL_BOX:
                raise ValueError("BoxMatrix diagonal must be the full box")
            for j in range(n):
                if (self.boxes[i][j] is None) != (self.boxes[j][i] is None):
                    raise ValueError(f"BoxMatrix presence not symmetric at ({i},{j})")

    def __getitem__(self, ij: tuple[int, int]):
        return self.boxes[ij[0]][ij[1]]


def box_matrix(crops: list[CropBox]) -> BoxMatrix:
    n = len(crops)
    entries = [
        [FULL_BOX if i == j else intersection_in_local(crops[i], crops[j]) for j in range(n)]
        for i in range(n)
    ]
    return BoxMatrix(entries)


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


def _sample_box(rng: np.random.Generator, scale: tuple[float, float],
                aspect: tuple[float, float], kind: str) -> CropBox | None:
    area = rng.uniform(*scale)
    ratio = np.exp(rng.uniform(np.log(aspect[0]), np.log(aspect[1])))
    w = float(np.sqrt(area * ratio))
    h = float(np.sqrt(area / ratio))
    if w > 1.0 or h > 1.0:
        return None
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return CropBox(x0, y0, x0 + w, y0 + h, kind)


def sample_crops(spec: CropSpec, rng_seed: int | np.random.Generator) -> tuple[list[CropBox], BoxMatrix]:
    """Sample n_global + n_local crops under the pairwise intersection constraint.

    Every pair involving at least one global crop must intersect by at least
    ``spec.min_intersection`` of the unit image area; local/local pairs are
    unconstrained. Each crop gets a rejection budget of ``RETRY_BUDGET``.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    kinds = ["global"] * spec.n_global + ["local"] * spec.n_local
    scales = [spec.global_scale] * spec.n_global + [spec.local_scale] * spec.n_local
    crops: list[CropBox] = []
    for kind, scale in zip(kinds, scales):
        for _ in range(RETRY_BUDGET):
            cand = _sample_box(rng, scale, spec.aspect, kind)
            if cand is None:
                continue
            ok = all(
                intersection_area(cand, prev) >= spec.min_intersection
                for prev in crops
                if kind == "global" or prev.kind == "global"
            )
            if ok:
                crops.append(cand)
                break
        else:
            raise CropSamplingError(
                f"could not place a {kind} crop within {RETRY_BUDGET} tries; "
                "loosen the scale ranges or lower min_intersection"
            )
    return crops, box_matrix(crops)


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
    coords = np.asarray(box.coords if isinstance(box, CropBox) else box, dtype=np.float64)
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
