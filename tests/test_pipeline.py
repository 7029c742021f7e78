"""Pipeline stage helpers on a small planted dataset."""

from types import SimpleNamespace

import numpy as np
import pytest

from leopart import attention, pipeline, synth, tensor_io, training


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    spec = synth.SynthSpec(n_images=30, grid=(10, 10), raw_dim=16, seed=2)
    manifest, key = synth.generate(spec, out)
    dataset = pipeline.load_dataset(manifest)
    return manifest, key, dataset


def test_load_dataset_shapes(small_world):
    manifest, key, dataset = small_world
    assert len(dataset.features) == 30
    assert dataset.features[0].shape == (16, 10, 10)
    assert dataset.attn_stacks[0].shape == (1, 10, 10)
    assert dataset.object_maps[0].shape == (10, 10)
    assert np.array_equal(dataset.object_maps[3], key.object_maps[3])


def test_hungarian_matched_miou_is_permutation_invariant(small_world):
    _, _, dataset = small_world
    gt = dataset.object_maps
    assert pipeline.hungarian_matched_miou(gt, gt, 4) == 1.0
    # relabel classes by a fixed permutation; matching should undo it
    perm = np.array([2, 0, 3, 1])
    permuted = [perm[g] for g in gt]
    assert pipeline.hungarian_matched_miou(permuted, gt, 4) == 1.0


def test_attention_hints_are_binary(small_world):
    _, _, dataset = small_world
    hints = pipeline.attention_hints(dataset)
    assert len(hints) == 30
    for h in hints:
        assert h.shape == (10, 10)
        assert set(np.unique(h)) <= {0, 1}


def test_attention_hints_match_per_image_masks():
    """One foreground_mask call per stack shape gives each image's own mask:
    1- and 3-head stacks interleaved, a plain (H, W) map, another grid and
    a float64 stack."""
    rng = np.random.default_rng(3)
    shapes = [(1, 6, 6), (3, 6, 6), (6, 6), (1, 6, 6), (3, 6, 6), (2, 4, 5), (3, 6, 6)]
    stacks = [rng.uniform(size=s).astype(np.float32) for s in shapes]
    stacks.append(rng.uniform(size=(3, 6, 6)))
    hints = pipeline.attention_hints(SimpleNamespace(attn_stacks=stacks))
    assert len(hints) == len(stacks)
    for hint, stack in zip(hints, stacks):
        want = attention.foreground_mask(stack)
        assert hint.dtype == want.dtype and np.array_equal(hint, want)


def test_attention_hints_keep_each_stacks_dtype():
    """A float32 stack whose mask differs when its heads are averaged in
    float64, next to the same stack in float64: stacked together, the
    float32 one would be averaged in float64."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        base = rng.integers(0, 3, size=(3, 3))
        stack = (base + rng.integers(0, 4, size=(3, 3, 3)) * 2.0**-23).astype(np.float32)
        if not np.array_equal(attention.foreground_mask(stack),
                              attention.foreground_mask(stack.astype(np.float64))):
            break
    else:
        pytest.fail("no float32 stack whose mask depends on the dtype")
    stacks = [stack, stack.astype(np.float64)]
    hints = pipeline.attention_hints(SimpleNamespace(attn_stacks=stacks))
    for hint, s in zip(hints, stacks):
        assert np.array_equal(hint, attention.foreground_mask(s))


def test_attention_hints_name_an_image_without_attention():
    stacks = [np.ones((1, 4, 4)), None]
    with pytest.raises(ValueError, match="image 1 has no attention map"):
        pipeline.attention_hints(SimpleNamespace(attn_stacks=stacks))


@pytest.fixture
def reads(monkeypatch):
    """The path of every tensor read, in order."""
    paths = []
    read = tensor_io.read_tensor

    def recorded(path):
        paths.append(str(path))
        return read(path)

    monkeypatch.setattr(tensor_io, "read_tensor", recorded)
    return paths


def test_dataset_reads_each_kind_on_first_access(small_world, reads):
    manifest = tensor_io.load_manifest(small_world[0].root / "manifest.txt")
    dataset = pipeline.load_dataset(manifest)
    assert reads == []
    kinds = {"features": "feature_path", "attn_stacks": "attention_path",
             "object_maps": "mask_path"}
    for kind, path in kinds.items():
        first = getattr(dataset, kind)
        assert getattr(dataset, kind) is first  # kept, not read again
        assert reads == [str(manifest.root / getattr(rec, path)) for rec in manifest.records]
        for got, want in zip(first, getattr(small_world[2], kind)):
            assert np.array_equal(got, want)
        reads.clear()


def test_attention_read_first_is_checked_against_the_first_features(tmp_path):
    """Without a ``# grid=`` header, attention read before the features is
    still checked against the grid, taken from the first feature tensor."""
    tensor_io.write_tensor(np.zeros((4, 3, 3), dtype=np.float32), tmp_path / "f.lpt")
    tensor_io.write_tensor(np.ones((1, 3, 4), dtype=np.float32), tmp_path / "a.lpt")
    (tmp_path / "manifest.txt").write_text("id=a feature=f.lpt attention=a.lpt\n")
    dataset = pipeline.load_dataset(tensor_io.load_manifest(tmp_path / "manifest.txt"))
    with pytest.raises(tensor_io.ManifestError, match=r"a: attention grid \(3, 4\) != \(3, 3\)"):
        dataset.attn_stacks


def test_stage_kmeans_scores_planted_tokens(small_world):
    _, _, dataset = small_world
    score = pipeline.stage_kmeans(dataset.features, dataset.object_maps, 4, seed=0)
    assert 0.0 <= score <= 1.0


def test_run_cbfe_artifacts_are_consistent(small_world):
    _, _, dataset = small_world
    hints = pipeline.attention_hints(dataset)
    art = pipeline.run_cbfe(dataset.features, hints, k=13, threshold=0.35, seed=0)
    assert len(art.cluster_maps) == 30
    assert art.fg_map.theta.shape == (13,)
    for cm, fg in zip(art.cluster_maps, art.fg_masks):
        assert set(np.unique(fg)) <= {0, 1}
        assert np.array_equal(fg.astype(bool), art.fg_map.theta[cm])


def test_cbfe_on_planted_features_finds_true_foreground(small_world):
    """Raw tokens are near-perfect parts, so CBFE should denoise the hints."""
    _, _, dataset = small_world
    hints = pipeline.attention_hints(dataset)
    art = pipeline.run_cbfe(dataset.features, hints, k=13, threshold=0.35, seed=0)
    true_fg = [(g > 0) for g in dataset.object_maps]
    agree = np.mean([np.mean(m.astype(bool) == t)
                     for m, t in zip(art.fg_masks, true_fg)])
    assert agree > 0.95


def test_stage_cd_returns_score_and_partition(small_world):
    _, _, dataset = small_world
    hints = pipeline.attention_hints(dataset)
    art = pipeline.run_cbfe(dataset.features, hints, k=13, threshold=0.35, seed=0)
    score, partition = pipeline.stage_cd(art, dataset.object_maps, 4, seed=0)
    assert 0.0 <= score <= 1.0
    assert partition.n_communities == 3
    # background clusters were disconnected, so they are unassigned
    assert np.all(partition.assignment[~art.fg_map.theta] == -1)


def test_run_ladder_returns_all_stages(small_world):
    manifest, _, dataset = small_world
    cfg = training.TrainConfig(
        epochs=2, batch_size=8, n_prototypes=8, queue_capacity=128,
        hidden_dim=32, out_dim=16, global_grid=5, local_grid=3, align_size=5,
        n_local=2, lr_head=1e-3, lr_encoder=1e-4, seed=0)
    ckpt, _ = training.train(manifest, cfg)
    params = {k.removeprefix("student/"): v for k, v in ckpt.tensors.items()
              if k.startswith("student/")}
    result = pipeline.run_ladder(dataset, params, overcluster_k=13,
                                 cbfe_threshold=0.35, seed=0)
    d = result.as_dict()
    assert set(d) == {"raw_kmeans", "trained_kmeans", "cbfe", "cd"}
    assert all(0.0 <= v <= 1.0 for v in d.values())


def test_embed_dataset_none_passthrough(small_world):
    _, _, dataset = small_world
    assert pipeline.embed_dataset(dataset, None, use_head=False) is dataset.features
