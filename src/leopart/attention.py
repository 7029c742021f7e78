"""Attention-map processing into binary foreground hints.

The chain is: average the per-head maps, smooth with a small normalized
Gaussian kernel, then keep the top cells until a fixed fraction of the
total mass is covered. Every step maps the trailing (H, W) axes and keeps
any leading axes, so one call processes a whole stack of maps.
"""

from __future__ import annotations

import numpy as np

from . import crops

DEFAULT_KERNEL = 7
DEFAULT_SIGMA = 1.5
DEFAULT_RHO = 0.6


def merge_heads(stack: np.ndarray) -> np.ndarray:
    """Element-wise mean over the head axis of an (..., heads, H, W) stack;
    an (H, W) map counts as one head."""
    stack = np.asarray(stack)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.ndim < 3 or stack.shape[-3] < 1:
        raise ValueError(f"attention stack must be (heads, H, W), got {stack.shape}")
    if np.any(stack < 0):
        raise ValueError("attention entries must be non-negative")
    return stack.mean(axis=-3)


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Truncated 2-D Gaussian, normalized to sum to 1."""
    if size % 2 != 1:
        raise ValueError("kernel size must be odd")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ax = np.arange(size) - size // 2
    k1 = np.exp(-(ax**2) / (2.0 * sigma**2))
    kernel = np.outer(k1, k1)
    return kernel / kernel.sum()


def gaussian_smooth(grid: np.ndarray, kernel: int = DEFAULT_KERNEL,
                    sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """2-D convolution with a normalized Gaussian; edges use reflect padding.

    Reflection is edge-inclusive (``symmetric`` in numpy terms) so it is
    well-defined even when the pad exceeds the grid size.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim < 2 or min(grid.shape[-2:]) == 0:
        raise ValueError(f"need a non-empty (..., H, W) grid, got shape {grid.shape}")
    k = gaussian_kernel(kernel, sigma)
    pad = kernel // 2
    padded = grid
    leading = [(0, 0)] * (grid.ndim - 2)
    # np.pad "symmetric" cannot reflect past one full copy per call; repeat
    # until the requested pad is covered (tiny grids only).
    remaining = pad
    while remaining > 0:
        step = min(remaining, *padded.shape[-2:])
        padded = np.pad(padded, leading + [(step, step)] * 2, mode="symmetric")
        remaining -= step
    h, w = grid.shape[-2:]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(-2, -1))
    return np.einsum("...ijkl,kl->...ij", windows[..., :h, :w, :, :], k)


def threshold_mass(grid: np.ndarray, rho: float = DEFAULT_RHO) -> np.ndarray:
    """Binary mask keeping the largest cells until rho of the mass is covered.

    Cells are ranked by value descending with row-major order breaking ties,
    and included until the cumulative sum first reaches ``rho * total``.
    Each (H, W) map of a stack is thresholded on its own.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid < 0):
        raise ValueError("map entries must be non-negative")
    flat = grid.reshape(*grid.shape[:-2], -1)
    total = flat.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("cannot threshold an all-zero map")
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must be in (0, 1]")
    order = np.argsort(-flat, axis=-1, kind="stable")  # stable keeps row-major tie order
    cum = np.cumsum(np.take_along_axis(flat, order, axis=-1), axis=-1)
    # the first prefix whose sum reaches the target, as searchsorted would find it
    n_keep = (cum < rho * total - 1e-12 * total).sum(axis=-1, keepdims=True) + 1
    keep = (np.arange(flat.shape[-1]) < n_keep).astype(np.uint8)
    mask = np.zeros(flat.shape, dtype=np.uint8)
    np.put_along_axis(mask, order, keep, axis=-1)
    return mask.reshape(grid.shape)


def foreground_mask(stack: np.ndarray) -> np.ndarray:
    """Full average -> smooth -> threshold chain on an (..., heads, H, W) stack."""
    return threshold_mass(gaussian_smooth(merge_heads(stack)))


def resample_mask(mask: np.ndarray, tap_pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Resample a binary mask through a :func:`crops.box_taps` pair,
    re-binarizing at 0.5."""
    sampled = crops.resample(mask.astype(np.float64), tap_pair)
    return (sampled >= 0.5).astype(np.uint8)
