"""Planted dataset generator: determinism and oracle recoverability."""

import numpy as np
import pytest

from leopart import synth, tensor_io


def small_spec(**overrides):
    base = dict(n_images=8, grid=(10, 10), raw_dim=16, seed=5)
    base.update(overrides)
    return synth.SynthSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        synth.SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        synth.SynthSpec(attention_flip=1.0)
    with pytest.raises(ValueError):
        synth.SynthSpec(grid=(10, 3), parts_per_object=3)


def test_generate_writes_consistent_artifacts(tmp_path):
    spec = small_spec()
    manifest, key = synth.generate(spec, tmp_path)
    assert len(manifest) == spec.n_images
    assert key.prototypes.shape == (spec.n_parts, spec.raw_dim)
    assert np.allclose(np.linalg.norm(key.prototypes, axis=1), 1.0, atol=1e-12)
    assert len(key.part_maps) == spec.n_images

    rec = manifest.records[0]
    feats, attn, mask = (tensor_io.read_tensor(manifest.root / path) for path in
                         (rec.feature_path, rec.attention_path, rec.mask_path))
    assert feats.shape == (16, 10, 10)
    assert feats.dtype == np.float32
    assert attn.shape == (1, 10, 10)
    assert mask.shape == (2, 10, 10)
    assert mask.dtype == np.uint16


def test_prototype_separation():
    spec = small_spec()
    rng = np.random.default_rng(0)
    protos = synth._sample_prototypes(spec, rng)
    gram = protos @ protos.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() <= np.cos(np.deg2rad(spec.min_angle_deg)) + 1e-12


def test_unsatisfiable_separation_is_a_synth_error(tmp_path):
    with pytest.raises(synth.SynthError, match="could not sample 13 prototypes"):
        synth.generate(small_spec(raw_dim=8), tmp_path)
    assert issubclass(synth.SynthError, ValueError)


def test_low_recovery_rate_is_a_synth_error(tmp_path, monkeypatch):
    """Parts sharing one prototype cannot be told apart."""
    sample = synth._sample_prototypes

    def shared(spec, rng):
        protos = sample(spec, rng)
        protos[1:] = protos[0]
        return protos

    monkeypatch.setattr(synth, "_sample_prototypes", shared)
    with pytest.raises(synth.SynthError, match="recovery rate"):
        synth.generate(small_spec(), tmp_path)


def test_object_and_part_maps_agree(tmp_path):
    spec = small_spec()
    _, key = synth.generate(spec, tmp_path)
    for part_map, obj_map in zip(key.part_maps, key.object_maps):
        # object class of each fg part id matches the object map
        fg = part_map < spec.n_fg_parts
        assert np.array_equal(obj_map[fg], part_map[fg] // spec.parts_per_object + 1)
        assert np.all(obj_map[~fg] == 0)
        # parts cover every cell
        assert part_map.min() >= 0 and part_map.max() < spec.n_parts


def test_nearest_prototype_recovers_part_labels(tmp_path):
    spec = small_spec(noise_sigma=0.05)
    manifest, key = synth.generate(spec, tmp_path)
    wrong = 0
    total = 0
    for feats, part_map in zip(tensor_io.Dataset(manifest).features, key.part_maps):
        tokens = feats.astype(np.float64).reshape(spec.raw_dim, -1).T
        nearest = np.argmax(tokens @ key.prototypes.T, axis=1)
        wrong += int((nearest != part_map.ravel()).sum())
        total += len(nearest)
    assert wrong / total <= 0.01


def test_noiseless_generation_is_exactly_recoverable(tmp_path):
    spec = small_spec(noise_sigma=0.0)
    manifest, key = synth.generate(spec, tmp_path)
    feats = tensor_io.Dataset(manifest).features[0]
    tokens = feats.astype(np.float64).reshape(spec.raw_dim, -1).T
    nearest = np.argmax(tokens @ key.prototypes.T, axis=1)
    assert np.array_equal(nearest, key.part_maps[0].ravel())


def test_attention_flip_count(tmp_path):
    spec = small_spec(attention_flip=0.1)
    manifest, key = synth.generate(spec, tmp_path)
    for stack, obj_map in zip(tensor_io.Dataset(manifest).attn_stacks, key.object_maps):
        attn = stack[0].astype(np.float64)
        raw = (attn - 0.01) / 0.98  # undo the affine squeeze
        fg = (obj_map > 0).astype(np.float64)
        n_flipped = int(np.sum(np.round(raw) != fg))
        assert n_flipped == round(0.1 * obj_map.size)


def test_generation_is_byte_deterministic(tmp_path):
    spec = small_spec()
    a, b = tmp_path / "a", tmp_path / "b"
    synth.generate(spec, a)
    synth.generate(spec, b)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seeds_differ(tmp_path):
    _, key_a = synth.generate(small_spec(seed=1), tmp_path / "a")
    _, key_b = synth.generate(small_spec(seed=2), tmp_path / "b")
    assert not np.array_equal(key_a.prototypes, key_b.prototypes)


def test_manifest_roundtrip_of_generated_set(tmp_path):
    spec = small_spec()
    synth.generate(spec, tmp_path)
    manifest = tensor_io.load_manifest(tmp_path / "manifest.txt")
    assert len(manifest) == spec.n_images
    assert manifest.token_grid == spec.grid
    assert manifest.feature_dim == spec.raw_dim
    feats = tensor_io.Dataset(manifest).features
    assert feats.shape == (spec.n_images, spec.raw_dim, *spec.grid)
