"""Planted parts-and-objects synthetic datasets.

Images are token grids. Each object is a rectangle subdivided into its
part strips; background is banded with background parts. Tokens are the
part prototypes plus Gaussian noise (renormalized); the attention map is
the foreground indicator with a fraction of cells flipped. Ground truth
is written at both object and part granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor_io

PLACEMENT_RETRIES = 100
SEPARATION_RETRIES = 1000


@dataclass
class SynthSpec:
    n_images: int = 200
    grid: tuple[int, int] = (10, 10)
    raw_dim: int = 32
    n_objects: int = 3
    parts_per_object: int = 3
    n_bg_parts: int = 4
    min_angle_deg: float = 60.0
    noise_sigma: float = 0.1
    objects_per_image: tuple[int, int] = (1, 3)
    attention_flip: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.parts_per_object < 1:
            raise ValueError("parts_per_object must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 <= self.attention_flip < 1.0):
            raise ValueError("attention_flip must be in [0, 1)")
        if self.grid[1] < self.parts_per_object + 1:
            raise ValueError("grid too narrow for the part strips")

    @property
    def n_fg_parts(self) -> int:
        return self.n_objects * self.parts_per_object

    @property
    def n_parts(self) -> int:
        return self.n_fg_parts + self.n_bg_parts


@dataclass
class SynthKey:
    """The oracle key: planted prototypes and label maps."""

    prototypes: np.ndarray                 # (n_parts, raw_dim) unit rows
    part_to_object: np.ndarray             # (n_parts,), -1 for background parts
    part_maps: list[np.ndarray] = field(default_factory=list)
    object_maps: list[np.ndarray] = field(default_factory=list)


def _sample_prototypes(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    max_cos = np.cos(np.deg2rad(spec.min_angle_deg))
    for _ in range(SEPARATION_RETRIES):
        protos = rng.normal(size=(spec.n_parts, spec.raw_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        gram = protos @ protos.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= max_cos:
            return protos
    raise RuntimeError(
        f"could not sample {spec.n_parts} prototypes with pairwise angle "
        f">= {spec.min_angle_deg} deg in dimension {spec.raw_dim}"
    )


def _place_objects(spec: SynthSpec, rng: np.random.Generator,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Part-id and object-class grids for one image (-1 = background so far)."""
    h, w = spec.grid
    part_map = np.full((h, w), -1, dtype=np.int64)
    obj_map = np.full((h, w), -1, dtype=np.int64)
    lo, hi = spec.objects_per_image
    n_obj = int(rng.integers(lo, hi + 1))
    classes = rng.permutation(spec.n_objects)[:n_obj]
    for cls in classes:
        for _ in range(PLACEMENT_RETRIES):
            ow = int(rng.integers(spec.parts_per_object, max(w // 2, spec.parts_per_object) + 1))
            oh = int(rng.integers(2, max(h // 2, 2) + 1))
            x0 = int(rng.integers(0, w - ow + 1))
            y0 = int(rng.integers(0, h - oh + 1))
            region = part_map[y0:y0 + oh, x0:x0 + ow]
            if np.any(region >= 0):
                continue
            # subdivide into vertical part strips
            edges = np.linspace(0, ow, spec.parts_per_object + 1).astype(int)
            for p in range(spec.parts_per_object):
                part_id = int(cls) * spec.parts_per_object + p
                region[:, edges[p]:edges[p + 1]] = part_id
            obj_map[y0:y0 + oh, x0:x0 + ow] = int(cls)
            break
    return part_map, obj_map


def _fill_background(part_map: np.ndarray, spec: SynthSpec,
                     rng: np.random.Generator) -> None:
    """Horizontal bands of background parts over the remaining pixels."""
    h, _ = part_map.shape
    band_order = rng.permutation(spec.n_bg_parts)
    edges = np.linspace(0, h, spec.n_bg_parts + 1).astype(int)
    for b in range(spec.n_bg_parts):
        bg_id = spec.n_fg_parts + int(band_order[b])
        rows = slice(edges[b], edges[b + 1])
        band = part_map[rows]
        band[band < 0] = bg_id


def generate(spec: SynthSpec, out_dir: str | Path) -> tuple[tensor_io.DatasetManifest, SynthKey]:
    """Generate the dataset under *out_dir* and return its manifest and key.

    Per image the generator writes the feature tensor (f32), a one-head
    attention map (f32) and a (2, H, W) u16 mask tensor: channel 0 holds
    object classes (0 = background), channel 1 planted part ids.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([spec.seed, 31])
    prototypes = _sample_prototypes(spec, rng)
    part_to_object = np.concatenate([
        np.repeat(np.arange(spec.n_objects), spec.parts_per_object),
        np.full(spec.n_bg_parts, -1),
    ])
    key = SynthKey(prototypes=prototypes, part_to_object=part_to_object)
    records = []
    h, w = spec.grid
    mismatches = 0
    total_tokens = 0
    key_lines = []
    for idx in range(spec.n_images):
        img_rng = np.random.default_rng([spec.seed, 37, idx])
        part_map, obj_map = _place_objects(spec, img_rng)
        _fill_background(part_map, spec, img_rng)

        tokens = prototypes[part_map.ravel()]
        tokens = tokens + spec.noise_sigma * img_rng.normal(size=tokens.shape)
        tokens /= np.linalg.norm(tokens, axis=1, keepdims=True)
        nearest = np.argmax(tokens @ prototypes.T, axis=1)
        mismatches += int((nearest != part_map.ravel()).sum())
        total_tokens += tokens.shape[0]
        features = tokens.T.reshape(spec.raw_dim, h, w).astype(np.float32)

        fg = (obj_map >= 0).astype(np.float64)
        n_flips = int(round(spec.attention_flip * h * w))
        flip_idx = img_rng.choice(h * w, size=n_flips, replace=False)
        attn = fg.ravel().copy()
        attn[flip_idx] = 1.0 - attn[flip_idx]
        attn = attn.reshape(h, w)
        # keep the thresholding well-posed even for all-background images
        attn = attn * 0.98 + 0.01

        mask = np.stack([
            (obj_map + 1).astype(np.uint16),   # 0 = background, 1..n_objects
            part_map.astype(np.uint16),
        ])
        name = f"img{idx:05d}"
        tensor_io.write_tensor(features, out_dir / f"{name}_feat.lpt")
        tensor_io.write_tensor(attn[None].astype(np.float32), out_dir / f"{name}_attn.lpt")
        tensor_io.write_tensor(mask, out_dir / f"{name}_mask.lpt")
        records.append(tensor_io.ManifestRecord(
            id=name,
            feature_path=Path(f"{name}_feat.lpt"),
            attention_path=Path(f"{name}_attn.lpt"),
            mask_path=Path(f"{name}_mask.lpt"),
        ))
        key.part_maps.append(part_map)
        key.object_maps.append(obj_map + 1)
        key_lines.append(f"{name} objects={sorted(set(obj_map[obj_map >= 0].tolist()))}")

    if spec.noise_sigma <= 0.1 and spec.min_angle_deg >= 60.0:
        rate = 1.0 - mismatches / max(total_tokens, 1)
        if rate < 0.99:
            raise RuntimeError(
                f"planted-part recovery rate {rate:.4f} below 0.99; "
                "the generated dataset is not a usable oracle"
            )

    tensor_io.write_tensor(prototypes.astype(np.float32), out_dir / "prototypes.lpt")
    tensor_io.write_text(out_dir / "key.txt", "\n".join(
        [f"parts={spec.n_parts} fg={spec.n_fg_parts}"] + key_lines) + "\n")
    manifest = tensor_io.DatasetManifest(
        records=records, token_grid=spec.grid, feature_dim=spec.raw_dim,
        root=out_dir,
    )
    tensor_io.write_manifest(manifest, out_dir / "manifest.txt")
    return manifest, key
