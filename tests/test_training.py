"""Training loop behavior: determinism, resume exactness, loss descent."""

import numpy as np
import pytest

from leopart import attention, crops, model, pipeline, synth, tensor_io, training


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyset")
    spec = synth.SynthSpec(n_images=12, grid=(10, 10), raw_dim=16, seed=3)
    manifest, key = synth.generate(spec, out)
    return manifest, key


def tiny_config(**overrides):
    base = dict(
        epochs=4, batch_size=4, n_prototypes=8, queue_capacity=64,
        hidden_dim=32, out_dim=16, global_grid=5, local_grid=3,
        n_local=2, align_size=5, lr_head=1e-3, lr_encoder=1e-4, seed=11,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


def test_config_hash_changes_with_fields():
    a, b = tiny_config(), tiny_config(seed=12)
    assert a.hash() != b.hash()
    assert a.hash() == tiny_config().hash()


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        training.TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        training.TrainConfig(fg_masking="sideways")


def test_crop_batch_stacks_each_images_crops():
    """Every view is the image aligned over its sampled box; every mask is the
    foreground of the attention aligned over its global box, or all ones for
    a batch without attention."""
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    raws = rng.normal(size=(3, 16, 10, 10)).astype(np.float32)
    attns = rng.uniform(size=(3, 2, 10, 10)).astype(np.float32)
    seeds = [[cfg.seed, 13, 0, i] for i in range(3)]
    for attn_stacks in (attns, None):
        batch = training.crop_batch(raws, attn_stacks, seeds, cfg)
        assert batch.global_raw.shape == (3, 2, 16, 5, 5)
        assert batch.local_raw.shape == (3, 2, 16, 3, 3)
        assert batch.boxes.shape == (3, 4, 4, 4)
        for b, (raw, seed) in enumerate(zip(raws, seeds)):
            boxes = crops.sample_crops(cfg.crop_spec(), np.random.default_rng(seed))
            for i, box in enumerate(boxes):
                grid = batch.global_raw[b, i] if i < 2 else batch.local_raw[b, i - 2]
                np.testing.assert_allclose(grid, crops.align(raw, box, *grid.shape[1:]),
                                           atol=1e-6)
            np.testing.assert_array_equal(batch.boxes[b], crops.pair_boxes(boxes))
            for i, box in enumerate(boxes[:2]):
                expected = (np.ones((5, 5)) if attn_stacks is None
                            else attention.foreground_mask(np.maximum(
                                crops.align(attns[b].astype(np.float64), box, 5, 5), 0.0)))
                assert np.array_equal(batch.masks[b, i], expected)


def per_image_crop_masks(attn_stacks, global_boxes, cfg):
    """crop_masks with one alignment per image (oracle)."""
    g = cfg.global_grid
    merged = np.stack([
        attention.merge_heads(np.maximum(crops.align(stack.astype(np.float64), boxes, g, g), 0.0))
        for stack, boxes in zip(attn_stacks, global_boxes)])
    fg = attention.foreground_mask(merged[:, :, None])
    return fg if cfg.fg_masking == "fg" else (1 - fg).astype(np.uint8)


@pytest.mark.parametrize("fg_masking", ["fg", "bg"])
def test_crop_masks_align_each_head_count_at_once(fg_masking):
    """Batches of 1-, 2- and 3-head attention: the same masks, to the bit,
    as one alignment per image. A dataset has one head count, so a batch
    never mixes them (the loader refuses that: tests/test_tensor_io.py)."""
    cfg = tiny_config(fg_masking=fg_masking)
    rng = np.random.default_rng(2)
    seeds = [[cfg.seed, 13, 0, i] for i in range(8)]
    coords = np.stack([crops.sample_crops(cfg.crop_spec(), np.random.default_rng(s))
                       for s in seeds])
    taps = crops.box_taps(coords[:, :cfg.n_global], (10, 10),
                          (cfg.global_grid, cfg.global_grid))
    for heads in (1, 2, 3):
        raws = rng.normal(size=(8, 16, 10, 10)).astype(np.float32)
        attns = rng.uniform(size=(8, heads, 10, 10)).astype(np.float32)
        batch = training.crop_batch(raws, attns, seeds, cfg)
        want = per_image_crop_masks(attns, coords[:, :cfg.n_global], cfg)
        assert np.array_equal(batch.masks, want)
        got = training.crop_masks(attns, taps, cfg)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_crop_masks_fg_and_bg_complement():
    cfg_fg = tiny_config(fg_masking="fg")
    cfg_bg = tiny_config(fg_masking="bg")
    rng = np.random.default_rng(1)
    attn = rng.uniform(size=(1, 2, 10, 10)).astype(np.float32)
    boxes = np.array([[(0.1, 0.1, 0.9, 0.9), (0.0, 0.2, 0.6, 0.8)]])
    taps = crops.box_taps(boxes, (10, 10), (5, 5))
    fg = training.crop_masks(attn, taps, cfg_fg)
    bg = training.crop_masks(attn, taps, cfg_bg)
    assert fg.shape == (1, 2, 5, 5)  # one mask per global crop
    assert set(np.unique(fg)) <= {0, 1}
    assert np.array_equal(fg + bg, np.ones_like(fg))
    raw = rng.normal(size=(1, 16, 10, 10)).astype(np.float32)
    unmasked = training.crop_batch(raw, attn, [[0]], tiny_config(fg_masking="all"))
    assert np.all(unmasked.masks == 1)


def test_train_is_deterministic(tiny_dataset, tmp_path):
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=2)
    ckpt_a, losses_a = training.train(manifest, cfg)
    ckpt_b, losses_b = training.train(manifest, cfg)
    assert losses_a == losses_b
    pa, pb = tmp_path / "a.lpc", tmp_path / "b.lpc"
    tensor_io.save_checkpoint(ckpt_a, pa)
    tensor_io.save_checkpoint(ckpt_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_train_never_opens_a_mask(tiny_dataset, monkeypatch):
    """Training reads each feature and attention tensor once and no mask:
    its losses are those of a run whose masks are unreadable."""
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=1)
    want = training.train(tensor_io.load_manifest(manifest.root / "manifest.txt"), cfg)[1]
    paths = []
    read = tensor_io.read_tensor

    def recorded(path):
        paths.append(path.name)
        if path.name.endswith("_mask.lpt"):
            raise AssertionError(f"training opened {path}")
        return read(path)

    monkeypatch.setattr(tensor_io, "read_tensor", recorded)
    _, losses = training.train(tensor_io.load_manifest(manifest.root / "manifest.txt"), cfg)
    assert losses == want
    assert sorted(paths) == sorted(str(p) for rec in manifest.records
                                   for p in (rec.feature_path, rec.attention_path))


@pytest.fixture(scope="module")
def uninterrupted_run(tiny_dataset):
    return training.train(tiny_dataset[0], tiny_config())


@pytest.mark.parametrize("stop_after", [0, 1, 3, 5, 11, 12, 20])
def test_resume_reproduces_uninterrupted_run(tiny_dataset, uninterrupted_run, tmp_path,
                                             stop_after):
    """3 steps per epoch, 12 steps: a stop before any step, after the first,
    at an epoch boundary, mid-epoch, before the last step, at the end and
    past it."""
    manifest, _ = tiny_dataset
    cfg = tiny_config()
    full_ckpt, full_losses = uninterrupted_run
    done = min(stop_after, len(full_losses))

    half_ckpt, half_losses = training.train(manifest, cfg, stop_after=stop_after)
    assert half_ckpt.step == done
    # round-trip through the serialized form, as a real restart would
    path = tmp_path / "half.lpc"
    tensor_io.save_checkpoint(half_ckpt, path)
    restored = tensor_io.load_checkpoint(path)
    resumed_ckpt, resumed_losses = training.train(manifest, cfg, resume=restored)

    assert half_losses == full_losses[:done]
    assert resumed_losses == full_losses[done:]
    pa, pb = tmp_path / "full.lpc", tmp_path / "resumed.lpc"
    tensor_io.save_checkpoint(full_ckpt, pa)
    tensor_io.save_checkpoint(resumed_ckpt, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_step_zero_checkpoint_holds_every_tensor(tiny_dataset, uninterrupted_run):
    """The training state is complete from step 0: Adam's moments are zero
    there, so a step-0 checkpoint names every tensor that a later one does
    but the queue's rows, and one without the moments is refused by name."""
    manifest, _ = tiny_dataset
    cfg = tiny_config()
    start, _ = training.train(manifest, cfg, stop_after=0)
    later, _ = training.train(manifest, cfg, stop_after=5)
    assert start.step == 0 and later.step == 5
    assert set(start.tensors) == set(later.tensors) - {"queue/rows"}
    assert set(start.tensors) == set(uninterrupted_run[0].tensors) - {"queue/rows"}
    moments = [n for n in start.tensors if n.startswith(("adam_m/", "adam_v/"))]
    assert len(moments) == 2 * sum(n.startswith("student/") for n in start.tensors)
    assert all(not start.tensors[n].any() for n in moments)

    no_moments = tensor_io.Checkpoint(
        tensors={n: t for n, t in start.tensors.items() if n not in moments},
        step=0, config_hash=start.config_hash)
    with pytest.raises(tensor_io.TensorFormatError, match="no tensor 'adam_m/"):
        training.train(manifest, cfg, resume=no_moments)


def test_resume_rejects_mismatched_config(tiny_dataset):
    manifest, _ = tiny_dataset
    ckpt, _ = training.train(manifest, tiny_config(epochs=1))
    with pytest.raises(ValueError, match="hash"):
        training.train(manifest, tiny_config(epochs=1, seed=99), resume=ckpt)


def test_loss_decreases_on_average(tiny_dataset):
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=14)  # 3 steps/epoch -> 42 steps
    _, losses = training.train(manifest, cfg)
    vals = [v for _, v in losses]
    assert len(vals) == 42
    assert np.mean(vals[-10:]) < np.mean(vals[:10])


def test_teacher_follows_ema_not_gradient(tiny_dataset):
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=1)
    state = training.init_state(cfg, raw_dim=16)
    teacher_before = {k: v.copy() for k, v in state.teacher.items()}
    student_before = {k: v.copy() for k, v in state.student.items()}
    dataset = tensor_io.Dataset(manifest)
    seeds = [[cfg.seed, 13, 0, i] for i in range(2)]
    training.train_step(dataset.features[:2], dataset.attn_stacks[:2], state, cfg,
                        total_steps=10, crop_seeds=seeds)
    from leopart import optim
    m = optim.cosine_decay(cfg.ema_start, 0, 10, end=1.0)
    for name, t in state.teacher.items():
        expected = m * teacher_before[name] + (1 - m) * state.student[name]
        assert np.allclose(t, expected, atol=1e-7), name
        assert not np.array_equal(state.student[name], student_before[name])


def test_checkpoint_state_roundtrip(tiny_dataset):
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=1)
    ckpt, _ = training.train(manifest, cfg)
    state = training.state_from_checkpoint(ckpt, cfg, raw_dim=16)
    assert state.step == ckpt.step
    again = training.checkpoint_from_state(state, cfg)
    assert set(again.tensors) == set(ckpt.tensors)
    for name, t in ckpt.tensors.items():
        assert np.array_equal(again.tensors[name], t), name


def test_embed_dataset_shape_and_head(tiny_dataset):
    manifest, _ = tiny_dataset
    cfg = tiny_config(epochs=1)
    state = training.init_state(cfg, raw_dim=16)
    dataset = tensor_io.Dataset(manifest)
    enc = pipeline.embed_dataset(dataset, state.student, use_head=False)
    proj = pipeline.embed_dataset(dataset, state.student, use_head=True)
    assert enc.shape == (12, 16, 10, 10)
    assert proj.shape == (12, cfg.out_dim, 10, 10)
    assert np.allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-5)
    # image 3's token at row 2, column 7 is the encoder of that raw token
    raw = dataset.features[3, :, 2, 7]
    assert np.allclose(enc[3, :, 2, 7], model.encoder_forward(raw[None], state.student)[0],
                       atol=1e-6)


def test_float32_parameters_keep_float32_features(tiny_dataset):
    """The GELU constants are Python floats, so the head does not promote
    float32 activations to float64."""
    manifest, _ = tiny_dataset
    state = training.init_state(tiny_config(epochs=1), raw_dim=16)
    dataset = tensor_io.Dataset(manifest)
    assert pipeline.embed_dataset(dataset, state.student, use_head=False).dtype == np.float32
    assert pipeline.embed_dataset(dataset, state.student, use_head=True).dtype == np.float32
    tokens = model.encoder_forward(model.token_rows(dataset.features[0]), state.student)
    assert model.project(tokens, state.student).dtype == np.float32


def test_write_loss_curve(tmp_path):
    path = tmp_path / "curve.csv"
    training.write_loss_curve([(1, 0.5), (2, 0.25)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1].startswith("1,0.5")
