"""Palette, colorize and PPM round-trip checks."""

import re

import numpy as np
import pytest

from leopart import render


def test_palette_shape_and_background():
    assert render.PALETTE.shape == (64, 3)
    assert np.array_equal(render.PALETTE[0], [0, 0, 0])
    # all 64 colors distinct
    assert len({tuple(c) for c in render.PALETTE}) == 64


def test_palette_is_stable_across_builds():
    assert np.array_equal(render.PALETTE, render._build_palette())


def test_colorize_lookup_and_wraparound():
    labels = np.array([[0, 1], [63, 64]])
    image = render.colorize(labels)
    assert np.array_equal(image[0, 0], render.PALETTE[0])
    assert np.array_equal(image[0, 1], render.PALETTE[1])
    assert np.array_equal(image[1, 1], render.PALETTE[0])  # 64 wraps to 0


def test_colorize_rejects_bad_input():
    with pytest.raises(ValueError):
        render.colorize(np.zeros((2, 2, 2), dtype=int))
    with pytest.raises(ValueError):
        render.colorize(np.array([[-1, 0]]))


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    render.write_ppm(image, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n7 5\n255\n")
    assert np.array_equal(render.read_ppm(path), image)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d[:-7], "PPM payload is 53 bytes, a 5 x 4 image needs 60"),
    (lambda d: d + b"\0" * 4, "PPM payload is 64 bytes, a 5 x 4 image needs 60"),
    (lambda d: d.replace(b"5 4", b"5"), "not a binary PPM file"),
    (lambda d: d.replace(b"5 4", b"5 -4"), "not a binary PPM file"),
    (lambda d: d.replace(b"255", b"65535"), "not a binary PPM file"),
    (lambda d: d[:5], "not a binary PPM file"),
], ids=["short", "trailing", "one_dim", "negative_dim", "max_value", "no_header"])
def test_read_ppm_names_the_file_of_a_malformed_ppm(tmp_path, edit, message):
    path = tmp_path / "img.ppm"
    render.write_ppm(np.zeros((4, 5, 3), dtype=np.uint8), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        render.read_ppm(path)


def test_write_ppm_replaces_an_existing_file(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"x" * 1000)
    image = np.full((2, 3, 3), 7, dtype=np.uint8)
    render.write_ppm(image, path)
    assert np.array_equal(render.read_ppm(path), image)
    assert [p.name for p in tmp_path.iterdir()] == ["img.ppm"]


def test_render_all_background_is_single_color(tmp_path):
    path = tmp_path / "bg.ppm"
    render.render_label_map(np.zeros((4, 4), dtype=int), path)
    image = render.read_ppm(path)
    assert np.all(image == 0)


def test_render_scale(tmp_path):
    labels = np.array([[1, 2]])
    path = tmp_path / "scaled.ppm"
    render.render_label_map(labels, path, scale=3)
    image = render.read_ppm(path)
    assert image.shape == (3, 6, 3)
    assert np.all(image[:, :3] == render.PALETTE[1])
    assert np.all(image[:, 3:] == render.PALETTE[2])
    with pytest.raises(ValueError):
        render.render_label_map(labels, path, scale=0)
