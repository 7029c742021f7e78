"""Pipeline stage helpers on a small planted dataset."""

import numpy as np
import pytest

from leopart import pipeline, synth, tensor_io, training


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
    assert pipeline.embed_dataset(dataset, None) is dataset.features
