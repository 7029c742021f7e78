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
    """One foreground_mask call over an (N, heads, H, W) stack gives each
    image's own mask, for one head and for three. Stacks of mixed head
    counts or grids never reach it: the loader refuses them
    (tests/test_tensor_io.py)."""
    rng = np.random.default_rng(3)
    for shape in [(7, 1, 6, 6), (5, 3, 4, 5)]:
        stacks = rng.uniform(size=shape).astype(np.float32)
        hints = pipeline.attention_hints(SimpleNamespace(attn_stacks=stacks))
        assert hints.shape == (shape[0],) + shape[2:]
        for hint, stack in zip(hints, stacks):
            want = attention.foreground_mask(stack)
            assert hint.dtype == want.dtype and np.array_equal(hint, want)


def test_attention_hints_keep_each_stacks_dtype():
    """A float32 stack whose mask differs when its heads are averaged in
    float64: in a float32 dataset it keeps its float32 mask, in a float64
    one the float64 mask. A dataset never mixes the two: the loader refuses
    records whose attention dtype differs from the first's."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        base = rng.integers(0, 3, size=(3, 3))
        stack = (base + rng.integers(0, 4, size=(3, 3, 3)) * 2.0**-23).astype(np.float32)
        if not np.array_equal(attention.foreground_mask(stack),
                              attention.foreground_mask(stack.astype(np.float64))):
            break
    else:
        pytest.fail("no float32 stack whose mask depends on the dtype")
    for dtype in (np.float32, np.float64):
        stacks = np.stack([stack, stack]).astype(dtype)
        hints = pipeline.attention_hints(SimpleNamespace(attn_stacks=stacks))
        for hint in hints:
            assert np.array_equal(hint, attention.foreground_mask(stack.astype(dtype)))


def test_attention_hints_name_an_image_without_attention():
    """A dataset has attention on every record or on none (the loader
    refuses anything between); with none there is no hint to give."""
    with pytest.raises(ValueError, match="the dataset has no attention maps"):
        pipeline.attention_hints(SimpleNamespace(attn_stacks=None))


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


def test_benchmark_lists_of_maps_score_as_the_stacked_arrays(small_world):
    """perfbench/run.py (``CliK150.miou``) reads the cluster and mask files
    into Python lists of same-shape maps and passes them on; its lines are
    repeated here. Both functions give for such a list what they give for the
    stacked arrays. ``merged + gt`` now adds the merged array to the list
    element by element instead of joining two lists, so the benchmark's label
    count can only grow; labels no map uses leave the matched mIoU as it is."""
    from leopart import community

    _, _, dataset = small_world
    maps, _ = pipeline.cluster_eval.cluster_maps_for(dataset.features, 13, seed=0)
    partition = community.Partition(np.random.default_rng(0).integers(-1, 3, size=13))
    gt = [g.copy() for g in dataset.object_maps]
    map_list = [m.astype(np.int64) for m in maps]
    merged = community.merge_by_communities(map_list, partition)
    n_labels = max(int(m.max()) for m in merged + gt) + 1

    stacked = community.merge_by_communities(maps, partition)
    assert np.array_equal(merged, stacked)
    n_true = max(int(stacked.max()), int(dataset.object_maps.max())) + 1
    assert n_labels >= n_true
    want = pipeline.hungarian_matched_miou(stacked, dataset.object_maps, n_true)
    assert pipeline.hungarian_matched_miou(list(stacked), gt, n_true) == want
    assert pipeline.hungarian_matched_miou(merged, gt, n_labels) == want
