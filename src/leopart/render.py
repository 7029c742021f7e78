"""Rendering label maps to PPM images with a fixed 64-color palette.

The palette is deterministic (documented below) so renders are comparable
across runs: color 0 is black (background); colors 1..63 walk a fixed-seed
shuffle of a 4x4x4 RGB lattice. Labels above 63 wrap around.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from . import tensor_io

PALETTE_SIZE = 64


def _build_palette() -> np.ndarray:
    levels = np.array([40, 110, 180, 250], dtype=np.int64)
    colors = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    # keep black first for background, shuffle the rest reproducibly
    rest = colors[1:][np.random.default_rng(41).permutation(len(colors) - 1)]
    palette = np.concatenate([[(0, 0, 0)], rest]).astype(np.uint8)
    return palette


PALETTE = _build_palette()


def colorize(label_map: np.ndarray) -> np.ndarray:
    """(H, W) integer labels -> (H, W, 3) uint8 colors from the palette."""
    labels = np.asarray(label_map)
    if labels.ndim != 2:
        raise ValueError(f"expected a 2-d label map, got shape {labels.shape}")
    if np.any(labels < 0):
        raise ValueError("labels must be non-negative")
    return PALETTE[labels.astype(np.intp) % PALETTE_SIZE]


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write an (H, W, 3) uint8 array as a binary PPM (P6) file, atomically."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {image.shape}")
    header = b"P6\n%d %d\n255\n" % (image.shape[1], image.shape[0])
    tensor_io.write_bytes(path, header + image.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Read back a binary PPM written by :func:`write_ppm`; any other header
    or payload length raises ``ValueError`` naming *path*."""
    data = Path(path).read_bytes()
    header = re.match(rb"P6\n(\d+) (\d+)\n255\n", data)
    if header is None:
        raise ValueError(f"{path}: not a binary PPM file of the form write_ppm writes")
    w, h, pixels = int(header[1]), int(header[2]), data[header.end():]
    if len(pixels) != h * w * 3:
        raise ValueError(f"{path}: PPM payload is {len(pixels)} bytes, "
                         f"a {w} x {h} image needs {h * w * 3}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).copy()


def render_label_map(label_map: np.ndarray, path: str | Path,
                     scale: int = 1) -> None:
    """Colorize a label map and write it as PPM, optionally upscaled."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    image = colorize(label_map)
    if scale > 1:
        image = np.repeat(np.repeat(image, scale, axis=0), scale, axis=1)
    write_ppm(image, path)
