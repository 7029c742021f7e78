"""End-to-end CLI pipeline and command-level behavior."""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leopart import cbfe, cli, cluster_eval, community, config, pipeline, render, tensor_io

SMALL_CFG = """
[synth]
n_images = 24
raw_dim = 16

[train]
epochs = 4
batch_size = 8
n_prototypes = 8
hidden_dim = 32
out_dim = 16
global_grid = 5
local_grid = 3
align_size = 5
n_local = 2
lr_head = 0.001
lr_encoder = 0.0001

[sinkhorn]
queue_capacity = 128

[cbfe]
k = 16

[eval]
k = 16
n_seeds = 2

[cd]
target_m = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen -> train -> cluster -> cbfe -> cooc -> communities artifacts."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_CFG)
    c = ["--config", str(cfg)]
    data, train, clusters = root / "data", root / "train", root / "clusters"
    fg, cooc, comm = root / "fg", root / "cooc", root / "comm"
    assert cli.main(c + ["gen", "--out", str(data)]) == 0
    assert cli.main(c + ["train", "--data", str(data), "--out", str(train)]) == 0
    assert cli.main(c + ["cluster", "--data", str(data), "--out", str(clusters),
                         "--checkpoint", str(train / "checkpoint.lpc")]) == 0
    assert cli.main(c + ["cbfe", "--data", str(data), "--clusters", str(clusters),
                         "--out", str(fg)]) == 0
    assert cli.main(c + ["cooc", "--clusters", str(clusters), "--out", str(cooc),
                         "--fg-map", str(fg / "fg_map.txt")]) == 0
    assert cli.main(c + ["communities", "--graph", str(cooc / "graph.txt"),
                         "--out", str(comm)]) == 0
    return root


def test_pipeline_artifacts_exist(workspace):
    assert (workspace / "data" / "manifest.txt").exists()
    assert (workspace / "train" / "checkpoint.lpc").exists()
    assert (workspace / "train" / "loss_curve.csv").exists()
    assert (workspace / "clusters" / "centroids.lpt").exists()
    assert (workspace / "fg" / "fg_map.txt").exists()
    assert (workspace / "cooc" / "graph.txt").exists()
    assert (workspace / "comm" / "partition.txt").exists()


def test_output_manifests_carry_config_hash(workspace):
    cfg = config.load_config(workspace / "run.cfg")
    for cmd, sub in [("gen", "data"), ("train", "train"), ("cluster", "clusters"),
                     ("cbfe", "fg"), ("cooc", "cooc"), ("communities", "comm")]:
        text = (workspace / sub / f"{cmd}_outputs.txt").read_text()
        assert f"config_hash {cfg.hash()}" in text
        assert "output " in text


def test_output_manifests_chain_the_stages(workspace):
    """Each stage records the sha256 of every manifest it read, and each
    listed output's size and sha256."""
    def digest(sub, name):
        return hashlib.sha256((workspace / sub / name).read_bytes()).hexdigest()

    data = digest("data", "manifest.txt")
    clusters = digest("clusters", "cluster_outputs.txt")
    chain = {("train", "train"): {"manifest.txt": data},
             ("cluster", "clusters"): {"manifest.txt": data},
             ("cbfe", "fg"): {"manifest.txt": data, "cluster_outputs.txt": clusters},
             ("cooc", "cooc"): {"cluster_outputs.txt": clusters,
                                "cbfe_outputs.txt": digest("fg", "cbfe_outputs.txt")},
             ("communities", "comm"): {"cooc_outputs.txt": digest("cooc", "cooc_outputs.txt")}}
    for (cmd, sub), inputs in chain.items():
        outputs = cli.read_outputs(workspace / sub, cmd)
        assert outputs.inputs == inputs, cmd
        for name, path in outputs.files.items():
            size = path.stat().st_size
            assert f"output {name} {size} {digest(sub, name)}\n" in outputs.manifest.read_text()


def commit(directory, command, inputs):
    """Write *directory*'s ``<command>_outputs.txt`` through the stages'
    writer, listing every other file in it and recording *inputs*."""
    files = [p for p in directory.iterdir() if p.name != f"{command}_outputs.txt"]
    cli.write_outputs_manifest(directory, command, config.Config(), files, inputs, 0)


def workspace_cluster_inputs(workspace):
    return cli.read_outputs(workspace / "clusters", "cluster").inputs


def copy_clusters(workspace, dest, relabel):
    """Copy the workspace's clusters dir, passing every map through *relabel*,
    and commit the copy with the inputs the original records."""
    src = workspace / "clusters"
    dest.mkdir()
    (dest / "centroids.lpt").write_bytes((src / "centroids.lpt").read_bytes())
    for path in src.glob("*_clusters.lpt"):
        tensor_io.write_tensor(relabel(tensor_io.read_tensor(path)), dest / path.name)
    commit(dest, "cluster", workspace_cluster_inputs(workspace))
    return len(tensor_io.read_tensor(src / "centroids.lpt"))


def test_cbfe_and_cooc_take_k_from_centroids(workspace, tmp_path):
    """Maps that never use the top id k-1 still give k clusters downstream."""
    clusters = tmp_path / "clusters"
    k = copy_clusters(workspace, clusters, lambda cm: np.where(cm >= cm.max(), 0, cm))
    c = ["--config", str(workspace / "run.cfg")]
    fg, cooc = tmp_path / "fg", tmp_path / "cooc"
    with pytest.warns(UserWarning, match="never appear"):
        assert cli.main(c + ["cbfe", "--data", str(workspace / "data"),
                             "--clusters", str(clusters), "--out", str(fg)]) == 0
    assert cli.main(c + ["cooc", "--clusters", str(clusters), "--out", str(cooc),
                         "--fg-map", str(fg / "fg_map.txt")]) == 0
    assert community.read_graph(cooc / "graph.txt").n == k
    assert len(cbfe.read_foreground_map(fg / "fg_map.txt")) == k


def test_fg_map_and_graph_take_the_stage_directory(workspace, tmp_path):
    """``--fg-map`` and ``--graph`` read the listed fg_map.txt and graph.txt
    of a stage directory: the same bytes as the file arguments write."""
    c = ["--config", str(workspace / "run.cfg")]
    cooc, comm = tmp_path / "cooc", tmp_path / "comm"
    assert cli.main(c + ["cooc", "--clusters", str(workspace / "clusters"), "--out", str(cooc),
                         "--fg-map", str(workspace / "fg")]) == 0
    assert cli.main(c + ["communities", "--graph", str(cooc), "--out", str(comm)]) == 0
    for name in ("cooc/graph.txt", "cooc/cooc_outputs.txt", "comm/partition.txt",
                 "comm/communities_outputs.txt"):
        assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes(), name


def test_cooc_rejects_cluster_ids_beyond_centroids(workspace, tmp_path, capsys):
    clusters = tmp_path / "clusters"
    k = copy_clusters(workspace, clusters, lambda cm: np.full_like(cm, 0))
    cm = np.zeros((10, 10), dtype=np.uint16)
    cm[0, 0] = k
    tensor_io.write_tensor(cm, clusters / "zzz_clusters.lpt")
    commit(clusters, "cluster", {})
    assert cli.main(["cooc", "--clusters", str(clusters), "--out", str(tmp_path / "o")]) == 1
    assert "out of range" in capsys.readouterr().err


def test_cooc_rejects_malformed_fg_map(workspace, tmp_path, capsys):
    fg = tmp_path / "fg"
    fg.mkdir()
    fg_map = fg / "fg_map.txt"
    fg_map.write_text("0 0.500000 fg\n1 0.200000\n")
    commit(fg, "cbfe", {"cluster_outputs.txt":
                        cli.read_outputs(workspace / "clusters", "cluster").digest})
    assert cli.main(["cooc", "--clusters", str(workspace / "clusters"),
                     "--out", str(tmp_path / "cooc"), "--fg-map", str(fg_map)]) == 1
    assert f"{fg_map}:2" in capsys.readouterr().err


def test_cbfe_pairs_cluster_maps_with_records_by_id(workspace, tmp_path):
    """A manifest listing its records in reverse order gives the same outputs."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    lines = (data / "manifest.txt").read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    records = [ln for ln in lines if ln.startswith("id=")]
    (data / "manifest.txt").write_text("\n".join(meta + records[::-1]) + "\n")
    # the same maps, committed as clusters of the reordered manifest
    clusters = tmp_path / "clusters"
    copy_clusters(workspace, clusters, lambda cm: cm)
    commit(clusters, "cluster",
           {"manifest.txt": hashlib.sha256((data / "manifest.txt").read_bytes()).hexdigest()})
    fg = tmp_path / "fg"
    assert cli.main(["--config", str(workspace / "run.cfg"), "cbfe", "--data", str(data),
                     "--clusters", str(clusters), "--out", str(fg)]) == 0
    assert (fg / "fg_map.txt").read_bytes() == (workspace / "fg" / "fg_map.txt").read_bytes()
    masks = sorted((workspace / "fg").glob("*_fg.lpt"))
    assert len(masks) == len(records) == 24
    for path in masks:
        assert (fg / path.name).read_bytes() == path.read_bytes(), path.name


def truncated_copy(workspace, tmp_path, name):
    """A copy of the workspace's data with the tensor *name* cut short."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    path = data / name
    path.write_bytes(path.read_bytes()[:-3])
    return data, path


def test_cluster_reads_no_mask(workspace, tmp_path, capsys):
    """`cluster` reads only the features: a truncated mask changes none of
    its files, while `eval --protocol unsupseg`, which scores against the
    masks, exits 1 naming the file."""
    data, mask = truncated_copy(workspace, tmp_path, "img00003_mask.lpt")
    c = ["--config", str(workspace / "run.cfg")]
    checkpoint = ["--checkpoint", str(workspace / "train" / "checkpoint.lpc")]
    clusters = tmp_path / "clusters"
    assert cli.main(c + ["cluster", "--data", str(data), "--out", str(clusters)]
                    + checkpoint) == 0
    want = sorted(p.name for p in (workspace / "clusters").iterdir())
    assert sorted(p.name for p in clusters.iterdir()) == want
    for name in want:
        assert (clusters / name).read_bytes() == (workspace / "clusters" / name).read_bytes()
    capsys.readouterr()
    assert cli.main(c + ["eval", "--data", str(data), "--protocol", "unsupseg"]
                    + checkpoint) == 1
    err = capsys.readouterr().err
    assert str(mask) in err and "payload truncated" in err


def test_cbfe_names_a_truncated_attention_file(workspace, tmp_path, capsys):
    data, attn = truncated_copy(workspace, tmp_path, "img00005_attn.lpt")
    assert cli.main(["--config", str(workspace / "run.cfg"), "cbfe", "--data", str(data),
                     "--clusters", str(workspace / "clusters"),
                     "--out", str(tmp_path / "fg")]) == 1
    err = capsys.readouterr().err
    assert str(attn) in err and "payload truncated" in err


def altered_copy(workspace, tmp_path, name, value):
    """A copy of the workspace's data with one entry of the tensor *name*
    set to *value*."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    t = tensor_io.read_tensor(data / name)
    t.flat[5] = value
    tensor_io.write_tensor(t, data / name)
    return data


@pytest.mark.parametrize("name, value, commands, message", [
    ("img00005_attn.lpt", -1e-3, ["train", "cbfe"],
     "img00005: attention entries must be finite and non-negative"),
    ("img00007_feat.lpt", np.nan, ["train", "cluster", "eval"],
     "img00007: feature tensor has a non-finite value"),
], ids=["negative_attention", "nan_feature"])
def test_out_of_range_values_name_the_record(workspace, tmp_path, capsys, name, value,
                                             commands, message):
    """A negative attention entry or a non-finite feature is refused where
    the dataset is read: every stage that reads it exits 1 naming the record."""
    data = altered_copy(workspace, tmp_path, name, value)
    c = ["--config", str(workspace / "run.cfg")]
    checkpoint = ["--checkpoint", str(workspace / "train" / "checkpoint.lpc")]
    argv = {"train": ["train", "--data", str(data), "--out", str(tmp_path / "t")],
            "cbfe": ["cbfe", "--data", str(data), "--clusters", str(workspace / "clusters"),
                     "--out", str(tmp_path / "fg")],
            "cluster": ["cluster", "--data", str(data), "--out", str(tmp_path / "c")]
            + checkpoint,
            "eval": ["eval", "--data", str(data), "--protocol", "overcluster"] + checkpoint}
    capsys.readouterr()
    for command in commands:
        assert cli.main(c + argv[command]) == 1, command
        assert capsys.readouterr().err == f"error: {message}\n", command


def test_cli_stages_match_pipeline_functions(workspace, tmp_path, capsys):
    """cluster, cbfe and communities give what pipeline.run_cbfe and
    pipeline.stage_cd give on the checkpoint's embeddings, and the CLI's
    maps merged by its communities score what ``eval --protocol unsupseg``
    prints for the cd stage: one code path for CLI and ladder."""
    cfg = config.load_config(workspace / "run.cfg")
    dataset = pipeline.load_dataset(tensor_io.load_manifest(workspace / "data" / "manifest.txt"))
    args = argparse.Namespace(checkpoint=workspace / "train" / "checkpoint.lpc", force=False)
    embedded = pipeline.embed_dataset(dataset, cli.student_params(args, cfg, dataset),
                                      cfg["eval"]["use_head"])
    art = pipeline.run_cbfe(embedded, pipeline.attention_hints(dataset), cfg["cbfe"]["k"],
                            cfg["cbfe"]["threshold"], seed=0)
    ids = [rec.id for rec in dataset.manifest.records]
    maps, _ = cli.read_cluster_maps(cli.read_outputs(workspace / "clusters", "cluster"), ids)
    assert np.array_equal(maps, art.cluster_maps)
    cbfe.write_foreground_map(art.fg_map, tmp_path / "fg_map.txt")
    assert (tmp_path / "fg_map.txt").read_bytes() == (workspace / "fg" / "fg_map.txt").read_bytes()
    _, partition = pipeline.stage_cd(
        art, dataset.object_maps, cfg["cd"]["target_m"] + 1, cfg["cd"]["edge_threshold"],
        cfg["cd"]["markov_time"], cfg["cd"]["distance"], seed=0)
    cli_partition = community.read_partition(workspace / "comm" / "partition.txt")
    assert np.array_equal(partition.assignment, cli_partition.assignment)

    merged, gt = community.merge_by_communities(maps, cli_partition), dataset.object_maps
    score = cluster_eval.hungarian_matched_miou(merged, gt, max(merged.max(), gt.max()) + 1)
    capsys.readouterr()
    assert cli.main(["--config", str(workspace / "run.cfg"), "eval", "--data",
                     str(workspace / "data"), "--protocol", "unsupseg",
                     "--checkpoint", str(workspace / "train" / "checkpoint.lpc")]) == 0
    assert f"cd: mIoU {score:.4f}\n" in capsys.readouterr().out


def test_eval_unsupseg_honours_cd_distance_and_use_head(workspace, tmp_path, monkeypatch):
    seen = {}
    graph, embed = community.cooccurrence_graph, pipeline.embed_dataset

    def recording_graph(maps, k, d=community.DEFAULT_DISTANCE):
        seen["d"] = d
        return graph(maps, k, d=d)

    def recording_embed(dataset, params, use_head=False):
        seen["use_head"] = use_head
        return embed(dataset, params, use_head)

    monkeypatch.setattr(community, "cooccurrence_graph", recording_graph)
    monkeypatch.setattr(pipeline, "embed_dataset", recording_embed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.replace("[cd]\n", "[cd]\ndistance = 2\n")
                   .replace("[eval]\n", "[eval]\nuse_head = false\n"))
    assert cli.main(["--config", str(cfg), "eval", "--data", str(workspace / "data"),
                     "--protocol", "unsupseg",
                     "--checkpoint", str(workspace / "train" / "checkpoint.lpc")]) == 0
    assert seen == {"d": 2, "use_head": False}


@pytest.mark.parametrize("edge", ["0 7 0.5", "0 1"])
def test_communities_rejects_malformed_graph(tmp_path, capsys, edge):
    graph = tmp_path / "graph.txt"
    graph.write_text(f"nodes 3\n{edge}\n")
    commit(tmp_path, "cooc", {})
    assert cli.main(["communities", "--graph", str(graph), "--out", str(tmp_path / "comm")]) == 1
    assert f"{graph}:2: " in capsys.readouterr().err


def test_eval_unsupseg_prints_final_miou(workspace, capsys):
    code = cli.main(["--config", str(workspace / "run.cfg"),
                     "eval", "--data", str(workspace / "data"),
                     "--protocol", "unsupseg",
                     "--checkpoint", str(workspace / "train" / "checkpoint.lpc")])
    out = capsys.readouterr().out
    assert code == 0
    final = [ln for ln in out.splitlines() if ln.startswith("final mIoU:")]
    assert len(final) == 1
    assert 0.0 <= float(final[0].split(":")[1]) <= 1.0


def test_eval_overcluster_and_fg(workspace, capsys):
    base = ["--config", str(workspace / "run.cfg"),
            "eval", "--data", str(workspace / "data")]
    ckpt = str(workspace / "train" / "checkpoint.lpc")
    assert cli.main(base + ["--protocol", "overcluster", "--checkpoint", ckpt]) == 0
    assert "overclustering mIoU" in capsys.readouterr().out
    assert cli.main(base + ["--protocol", "fg", "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "foreground Jaccard" in out and "foreground boundary F1" in out


def test_eval_refuses_mismatched_checkpoint_without_force(workspace, tmp_path, capsys):
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(SMALL_CFG + "\n[run]\nseed = 77\n")
    args = ["--config", str(other_cfg), "eval", "--data", str(workspace / "data"),
            "--protocol", "unsupseg",
            "--checkpoint", str(workspace / "train" / "checkpoint.lpc")]
    assert cli.main(args) == 1
    assert "config hash" in capsys.readouterr().err
    assert cli.main(args + ["--force"]) == 0


def drop_encoder_bias(tensors):
    del tensors["student/encoder.b"]


def narrow_encoder(tensors):
    tensors["student/encoder.w"] = tensors["student/encoder.w"][:12]


def add_a_tensor(tensors):
    tensors["student/extra"] = tensors["student/encoder.b"]


def cut_head_columns(tensors):
    tensors["student/head.l1.w"] = tensors["student/head.l1.w"][:, :5]


def byte_head_bias(tensors):
    tensors["student/head.l1.b"] = tensors["student/head.l1.b"].astype(np.uint8)


# the walkthrough model's dims, which its checkpoint's own tensors imply
DIMS = "ModelDims(raw_dim=16, token_dim=16, hidden_dim=32, out_dim=16, n_prototypes=8)"


@pytest.mark.parametrize("edit, message", [
    (drop_encoder_bias, "checkpoint has no tensor 'student/encoder.b'"),
    (add_a_tensor, "checkpoint tensor 'student/extra' is not a model parameter"),
    (narrow_encoder, "checkpoint tensor 'student/encoder.w' takes 12-dimensional tokens; "
                     "the dataset's are 16-dimensional"),
    (cut_head_columns, "checkpoint tensor 'student/head.l1.w' is float32 (16, 5); "
                       f"the student's dims ({DIMS}) need float32 (16, 32)"),
    (byte_head_bias, "checkpoint tensor 'student/head.l1.b' is uint8 (32,); "
                     f"the student's dims ({DIMS}) need float32 (32,)"),
], ids=["missing", "extra", "narrow", "cut", "dtype"])
def test_cluster_refuses_a_checkpoint_whose_student_is_not_the_model(
        workspace, tmp_path, capsys, edit, message):
    ckpt = tensor_io.load_checkpoint(workspace / "train" / "checkpoint.lpc")
    edit(ckpt.tensors)
    path = tmp_path / "edited.lpc"
    tensor_io.save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert cli.main(["--config", str(workspace / "run.cfg"), "cluster",
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "c"),
                     "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def resume_training(workspace, tmp_path, ckpt_path, cfg_text=SMALL_CFG, data=None):
    cfg = tmp_path / "resume.cfg"
    cfg.write_text(cfg_text)
    return cli.main(["--config", str(cfg), "train", "--data", str(data or workspace / "data"),
                     "--out", str(tmp_path / "resumed"), "--resume", str(ckpt_path)])


def test_resume_rejects_checkpoint_without_a_tensor(workspace, tmp_path, capsys):
    ckpt = tensor_io.load_checkpoint(workspace / "train" / "checkpoint.lpc")
    del ckpt.tensors["student/prototypes"]
    path = tmp_path / "partial.lpc"
    tensor_io.save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert resume_training(workspace, tmp_path, path) == 1
    assert "no tensor 'student/prototypes'" in capsys.readouterr().err


def test_resume_rejects_checkpoint_of_another_raw_dim(workspace, tmp_path, capsys):
    """Same train config, so the hash matches, but the data has 24-dim tokens."""
    cfg_text = SMALL_CFG.replace("n_images = 24", "n_images = 2").replace("raw_dim = 16",
                                                                          "raw_dim = 24")
    cfg = tmp_path / "dim24.cfg"
    cfg.write_text(cfg_text)
    data = tmp_path / "data24"
    assert cli.main(["--config", str(cfg), "gen", "--out", str(data)]) == 0
    capsys.readouterr()
    assert resume_training(workspace, tmp_path, workspace / "train" / "checkpoint.lpc",
                           cfg_text, data) == 1
    err = capsys.readouterr().err
    assert "checkpoint tensor 'adam_m/encoder.b' is float32 (16,)" in err
    assert "24-dimensional tokens need float32 (24,)" in err


def test_resume_of_a_finished_run_has_nothing_to_train(workspace, tmp_path, capsys):
    capsys.readouterr()
    assert resume_training(workspace, tmp_path, workspace / "train" / "checkpoint.lpc") == 1
    assert "nothing left to train: the run already ends at step 12" in capsys.readouterr().err
    assert not (tmp_path / "resumed" / "checkpoint.lpc").exists()


def test_render_cluster_map(workspace, tmp_path):
    maps = sorted((workspace / "clusters").glob("*_clusters.lpt"))
    out = tmp_path / "img.ppm"
    code = cli.main(["render", "--input", str(maps[0]), "--out", str(out),
                     "--scale", "4"])
    assert code == 0
    image = render.read_ppm(out)
    assert image.shape == (40, 40, 3)


def test_render_all_background_map(tmp_path):
    path = tmp_path / "bg.lpt"
    tensor_io.write_tensor(np.zeros((6, 6), dtype=np.uint16), path)
    out = tmp_path / "bg.ppm"
    assert cli.main(["render", "--input", str(path), "--out", str(out)]) == 0
    assert np.all(render.read_ppm(out) == 0)


def test_render_refuses_a_float_tensor(workspace, tmp_path, capsys):
    """A float32 tensor, such as the centroids, is no label map: truncating
    it to labels would render noise."""
    centroids = workspace / "clusters" / "centroids.lpt"
    out = tmp_path / "centroids.ppm"
    capsys.readouterr()
    assert cli.main(["render", "--input", str(centroids), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {centroids}: cannot render a float32 tensor; "
                                       f"a label map is u8 or u16\n")
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_validation_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nepochs = soon\n")
    assert cli.main(["--config", str(bad), "gen", "--out", str(tmp_path / "d")]) == 1
    assert "train.epochs" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("[train]\ntemperature = -1", "[train] temperature must be finite and positive, got -1.0"),
    ("[train]\nglobal_scale = 0 2", "[train] invalid scale range (0.0, 2.0)"),
    ("[synth]\nattention_flip = 2", "[synth] attention_flip must be in [0, 1)"),
])
def test_every_command_rejects_a_setting_the_dataclasses_reject(workspace, tmp_path, capsys,
                                                                setting, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "cooc", "--clusters", str(workspace / "clusters"),
                     "--out", str(tmp_path / "cooc")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "cooc").exists()


def test_gen_rejects_an_unsatisfiable_spec(tmp_path, capsys):
    cfg = tmp_path / "dim8.cfg"
    cfg.write_text("[synth]\nn_images = 2\nraw_dim = 8\n")
    assert cli.main(["--config", str(cfg), "gen", "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: could not sample 13 prototypes")
    assert "Traceback" not in err


@pytest.mark.parametrize("setting, message", [
    ("noise_sigma = nan", "[synth] noise_sigma must be finite and >= 0, got nan"),
    ("noise_sigma = inf", "[synth] noise_sigma must be finite and >= 0, got inf"),
    ("n_images = 0", "[synth] n_images must be >= 1, got 0"),
    ("grid = 1 10", "[synth] grid height must be >= 2, got 1"),
    ("raw_dim = 0", "[synth] raw_dim must be >= 1, got 0"),
    ("objects_per_image = 3 1", "[synth] objects_per_image needs 0 <= lo <= hi, got (3, 1)"),
    ("objects_per_image = -1 2", "[synth] objects_per_image needs 0 <= lo <= hi, got (-1, 2)"),
])
def test_gen_refuses_a_synth_value_it_cannot_honour(tmp_path, capsys, setting, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[synth]\n{setting}\n")
    assert cli.main(["--config", str(cfg), "gen", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("capacity", [0, -1])
def test_train_rejects_queue_capacity_below_one(workspace, tmp_path, capsys, capacity):
    cfg = tmp_path / "queue.cfg"
    cfg.write_text(SMALL_CFG.replace("queue_capacity = 128", f"queue_capacity = {capacity}"))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "train")]) == 1
    assert (capsys.readouterr().err
            == f"error: {cfg}: [sinkhorn] queue_capacity must be at least 1, got {capacity}\n")
    assert not (tmp_path / "train" / "checkpoint.lpc").exists()


@pytest.mark.parametrize("setting, message", [
    ("[sinkhorn]\nepsilon = 0.001",
     "[sinkhorn] epsilon must be at least sinkhorn.MIN_EPSILON = 0.005647, got 0.001"),
    ("[sinkhorn]\nn_iters = 0", "[sinkhorn] n_iters must be at least 1, got 0"),
    ("[sinkhorn]\nqueue_capacity = 0", "[sinkhorn] queue_capacity must be at least 1, got 0"),
    ("[eval]\nn_seeds = 0", "bad value for eval.n_seeds: must be at least 1, got 0"),
    ("[cbfe]\nthreshold = 1.5", "bad value for cbfe.threshold: must be in [0, 1], got 1.5"),
    ("[cd]\nmarkov_time = -1", "bad value for cd.markov_time: must be positive, got -1.0"),
    ("[cd]\nmarkov_time = inf", "bad value for cd.markov_time: must be finite, got inf"),
    ("[sinkhorn]\nepsilon = inf", "[sinkhorn] epsilon must be finite, got inf"),
    ("[train]\nweight_decay = -1", "[train] weight_decay must be finite and at least 0, got -1.0"),
    ("[train]\nlr_head = -0.001", "[train] lr_head must be finite and at least 0, got -0.001"),
    ("[train]\nlr_encoder = inf", "[train] lr_encoder must be finite and at least 0, got inf"),
    ("[train]\nema_start = 2", "[train] ema_start must be in [0, 1], got 2.0"),
    ("[train]\nema_start = -5", "[train] ema_start must be in [0, 1], got -5.0"),
    ("[train]\ntemperature = inf", "[train] temperature must be finite and positive, got inf"),
    ("[train]\ntemperature = nan", "[train] temperature must be finite and positive, got nan"),
    ("[cd]\ntarget_m = 0", "bad value for cd.target_m: must be at least 1, got 0"),
    *[(f"[train]\n{key} = 0", f"[train] {key} must be at least 1, got 0")
      for key in ("batch_size", "epochs", "hidden_dim", "out_dim", "n_prototypes",
                  "global_grid", "local_grid", "align_size", "n_global", "token_dim")],
    ("[train]\nn_local = -1", "[train] n_local must be at least 0, got -1"),
    ("[train]\nn_global = 1\nn_local = 0",
     "[train] n_global + n_local must be at least 2 for a crop pair, got 1 + 0"),
    ("[synth]\nn_objects = -1", "[synth] n_objects must be >= 0, got -1"),
    ("[synth]\nn_bg_parts = 0", "[synth] n_bg_parts must be >= 1, got 0"),
    ("[train]\nn_prototypes = 1", "[train] n_prototypes must be at least 2 for a non-zero "
     "loss, got 1"),
    ("[train]\nfg_masking = bg\nglobal_grid = 1", "[train] fg_masking = bg needs global_grid "
     "of at least 2: the one cell of a 1x1 crop is always foreground, so every pair is masked"),
    ("[train]\nout_dim = 1", "[train] out_dim must be at least 2 for a gradient to reach the "
     "head: a 1-d projection normalizes to +-1, got 1"),
    ("[synth]\nmin_angle_deg = nan", "[synth] min_angle_deg must be in [0, 180], got nan"),
])
def test_every_command_rejects_an_out_of_range_setting(workspace, tmp_path, capsys,
                                                       setting, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n")
    for argv in (["cooc", "--clusters", str(workspace / "clusters"), "--out", str(tmp_path / "o")],
                 ["cluster", "--data", str(workspace / "data"), "--out", str(tmp_path / "o")],
                 ["train", "--data", str(workspace / "data"), "--out", str(tmp_path / "o")]):
        capsys.readouterr()
        assert cli.main(["--config", str(cfg)] + argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "o").exists()


def test_overcluster_eval_with_no_seeds_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "no_seeds.cfg"
    cfg.write_text(SMALL_CFG.replace("n_seeds = 2", "n_seeds = 0"))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "eval", "--data", str(workspace / "data"),
                     "--protocol", "overcluster"]) == 1
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err == f"error: {cfg}: bad value for eval.n_seeds: must be at least 1, got 0\n"


def test_missing_target_m_is_validation_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "no_target.cfg"
    cfg.write_text("[cbfe]\nk = 16\n")
    code = cli.main(["--config", str(cfg), "communities",
                     "--graph", str(workspace / "cooc" / "graph.txt"),
                     "--out", str(tmp_path / "comm")])
    assert code == 1
    assert "target_m" in capsys.readouterr().err


def test_outputs_manifest_hash_covers_the_seed_env(tmp_path, monkeypatch):
    """gen with LEOPART_SEED set records the hash of the config with that
    seed, not the hash of the file alone."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[synth]\nn_images = 3\nraw_dim = 16\n")

    def gen_hash(out):
        assert cli.main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
        return [ln for ln in (out / "gen_outputs.txt").read_text().splitlines()
                if ln.startswith("config_hash ")]

    monkeypatch.delenv("LEOPART_SEED", raising=False)
    unset = gen_hash(tmp_path / "a")
    monkeypatch.setenv("LEOPART_SEED", "7")
    seeded = gen_hash(tmp_path / "b")
    assert len(seeded) == 1 and seeded != unset
    monkeypatch.delenv("LEOPART_SEED")
    cfg.write_text(cfg.read_text() + "[run]\nseed = 7\n")
    assert gen_hash(tmp_path / "c") == seeded
    assert (tmp_path / "c" / "img00000_feat.lpt").read_bytes() == \
        (tmp_path / "b" / "img00000_feat.lpt").read_bytes()


def readme_walkthrough():
    """The README walkthrough's config text and the argv of each of its
    `leopart` commands, with continuations joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = text.split("cat > run.cfg <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    return cfg, [shlex.split(line, comments=True)[1:]
                 for line in text.replace("\\\n", " ").splitlines()
                 if line.startswith("leopart ")]


def test_readme_walkthrough_parses(tmp_path):
    """Every `leopart` command of the README parses and the walkthrough
    config loads; together they run every subcommand."""
    cfg_text, commands = readme_walkthrough()
    (tmp_path / "run.cfg").write_text(cfg_text)
    config.load_config(tmp_path / "run.cfg")
    parser = cli.build_parser()
    names = set()
    for argv in commands:
        try:
            names.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
    assert names == set(cli.COMMANDS)


def test_readme_walkthrough_writes_identical_manifests_in_two_roots(tmp_path, monkeypatch):
    """The walkthrough, run as written in two directories, writes the same
    bytes to every outputs manifest, since they hold no paths and no times,
    and every file a manifest lists has its recorded size and sha256."""
    cfg_text, commands = readme_walkthrough()
    manifests = []
    for root in (tmp_path / "a", tmp_path / "b"):
        root.mkdir()
        (root / "run.cfg").write_text(cfg_text)
        monkeypatch.chdir(root)
        for argv in commands:
            assert cli.main(argv) == 0, shlex.join(argv)
        manifests.append({p.relative_to(root): p.read_bytes()
                          for p in sorted(root.rglob("*_outputs.txt"))})
        for rel in manifests[-1]:  # every listed file checks out
            cli.read_outputs(root / rel.parent, rel.name.removesuffix("_outputs.txt"))
    assert len(manifests[0]) == 6
    assert manifests[0] == manifests[1]


# Run in a fresh interpreter: imports leopart.cli, runs each stage command
# of argv[1] (a JSON list of argv lists, the scoring command last) through
# cli.main, and checks sys.modules for scipy after each.
SCIPY_GUARD = """
import json, sys
from leopart import cli

def scipy_modules():  # the loaded scipy subpackages, by name
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.")})

assert not scipy_modules(), ("import leopart.cli", scipy_modules())
*stages, score = json.loads(sys.argv[1])
for argv in stages:
    assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert cli.main(score) == 0, score
assert "scipy.optimize" in sys.modules, (score, scipy_modules())
"""


def test_only_scoring_loads_scipy(tmp_path):
    """Importing the CLI and running every README command but `eval` loads
    no scipy module; `eval --protocol unsupseg`, whose Hungarian matching
    needs it, then loads scipy.optimize, which shows the check sees an
    import."""
    cfg_text, commands = readme_walkthrough()
    (tmp_path / "run.cfg").write_text(cfg_text)
    parser = cli.build_parser()
    score = [argv for argv in commands if parser.parse_args(argv).command == "eval"]
    stages = [argv for argv in commands if argv not in score]
    assert len(score) == 1 and "unsupseg" in score[0]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", SCIPY_GUARD, json.dumps(stages + score)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[synth]\nn_images = 3\nraw_dim = 16\n[run]\nseed = 5\n")
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["--config", str(cfg), "gen", "--out", str(a)])
    monkeypatch.setenv("LEOPART_SEED", "5")
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("[synth]\nn_images = 3\nraw_dim = 16\n[run]\nseed = 0\n")
    cli.main(["--config", str(cfg2), "gen", "--out", str(b)])
    for name in ("img00000_feat.lpt", "img00002_mask.lpt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    monkeypatch.setenv("LEOPART_SEED", "not-an-int")
    assert cli.main(["--config", str(cfg), "gen", "--out", str(tmp_path / "c")]) == 1


def test_a_negative_seed_is_refused_before_gen_writes(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[synth]\nn_images = 3\nraw_dim = 16\n[run]\nseed = -1\n")
    out = tmp_path / "d"
    assert cli.main(["--config", str(cfg), "gen", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: bad value for run.seed: must be at least 0, got -1\n")
    monkeypatch.setenv("LEOPART_SEED", "-3")
    assert cli.main(["gen", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: LEOPART_SEED must be at least 0, got -3\n"
    assert not out.exists()


def unhandled_inputs(workspace, tmp_path):
    """argv of inputs whose errors once escaped ``main`` as tracebacks."""
    def with_cfg(text):
        cfg = tmp_path / f"run{len(list(tmp_path.glob('*.cfg')))}.cfg"
        cfg.write_text(text)
        return ["--config", str(cfg)]

    data, train = str(workspace / "data"), ["train", "--data", str(workspace / "data")]
    (tmp_path / "a_file").write_text("")
    return {
        "crop_sampling": with_cfg(SMALL_CFG.replace(
            "[train]\n", "[train]\nglobal_scale = 0.05 0.05\nmin_intersection = 0.5\n"))
        + train + ["--out", str(tmp_path / "t")],
        "config_is_a_directory": ["--config", str(tmp_path), "gen", "--out", str(tmp_path / "d")],
        "checkpoint_is_a_directory": ["cluster", "--data", data, "--out", str(tmp_path / "c"),
                                      "--checkpoint", str(tmp_path)],
        "out_is_a_file": with_cfg(SMALL_CFG) + train + ["--out", str(tmp_path / "a_file")],
    }


@pytest.mark.parametrize("case", [
    "crop_sampling", "config_is_a_directory", "checkpoint_is_a_directory", "out_is_a_file"])
def test_runtime_and_os_errors_exit_1_with_a_message(workspace, tmp_path, capsys, case):
    argv = unhandled_inputs(workspace, tmp_path)[case]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_diverging_train_names_the_step(workspace, tmp_path, capsys):
    """A learning rate of 1e30 overflows the float32 parameters in the first
    update: one error line names that step, with no numpy warning before it."""
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(SMALL_CFG.replace("lr_head = 0.001", "lr_head = 1e30")
                   .replace("lr_encoder = 0.0001", "lr_encoder = 1e30"))
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "train", "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err == "error: training diverged at step 1: floating-point overflow\n"


def test_probe_refuses_a_single_image(workspace, tmp_path, capsys):
    """Half of one image is none: the probe would score no image at all."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([ln for ln in lines if ln.startswith("#")]
                                  + [ln for ln in lines if not ln.startswith("#")][:1]) + "\n")
    capsys.readouterr()
    assert cli.main(["--config", str(workspace / "run.cfg"), "eval", "--data", str(data),
                     "--protocol", "probe"]) == 1
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err == (f"error: the linear probe trains on half of the images and scores the "
                   f"rest: {data} has only 1\n")


def test_train_masks_only_with_attention(workspace, tmp_path, capsys):
    """fg and bg masking refuse a dataset without attention, naming the
    key, before any step; fg_masking = all trains on it."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = data / "manifest.txt"
    manifest.write_text("\n".join(" ".join(f for f in line.split() if not f.startswith("atten"))
                                  for line in manifest.read_text().splitlines()) + "\n")
    cfg = tmp_path / "run.cfg"
    for masking in ("fg", "bg", "all"):
        cfg.write_text(SMALL_CFG.replace("[train]\n", f"[train]\nfg_masking = {masking}\n"))
        capsys.readouterr()
        code = cli.main(["--config", str(cfg), "train", "--data", str(data),
                         "--out", str(tmp_path / masking)])
        out, err = capsys.readouterr()
        if masking == "all":
            assert code == 0 and float(out.split()[-1]) > 0
        else:
            assert code == 1 and not (tmp_path / masking / "checkpoint.lpc").exists()
            assert err == (f"error: [train] fg_masking = {masking} masks crops by attention, "
                           f"and the dataset under {data} has none; set fg_masking = all to "
                           "train unmasked\n")


@pytest.mark.parametrize("command", ["cbfe", "cooc"])
def test_cluster_maps_of_another_shape_name_the_file(workspace, tmp_path, capsys, command):
    clusters = tmp_path / "clusters"
    copy_clusters(workspace, clusters, lambda cm: cm)
    odd = sorted(clusters.glob("*_clusters.lpt"))[3]
    tensor_io.write_tensor(np.zeros((9, 10), dtype=np.uint16), odd)
    commit(clusters, "cluster", workspace_cluster_inputs(workspace))
    argv = {"cbfe": ["cbfe", "--data", str(workspace / "data")], "cooc": ["cooc"]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--clusters", str(clusters), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {odd}: cluster map uint16 (9, 10), the first has "
                          "cluster map uint16 (10, 10)")


# --------------------------------------------------------- stage manifests


def cluster_argv(workspace, data, out, cfg=None):
    return ["--config", str(cfg or workspace / "run.cfg"), "cluster", "--data", str(data),
            "--out", str(out)]


def test_a_cluster_rerun_on_fewer_images_lists_only_its_maps(workspace, tmp_path, capsys):
    """Clustering 10 images into a dir that holds 24 maps: `cooc` reads the
    10 listed maps, `cbfe` refuses the 24-image data, and `cooc` the fg map
    made from the 24 maps."""
    c = ["--config", str(workspace / "run.cfg")]
    data10 = tmp_path / "data10"
    shutil.copytree(workspace / "data", data10)
    lines = (data10 / "manifest.txt").read_text().splitlines()
    (data10 / "manifest.txt").write_text("\n".join(lines[:-14]) + "\n")
    clusters, fresh = tmp_path / "clusters", tmp_path / "fresh"
    shutil.copytree(workspace / "clusters", clusters)
    for out in (clusters, fresh):
        assert cli.main(cluster_argv(workspace, data10, out)) == 0
    for out, src in (("cooc", clusters), ("cooc_fresh", fresh)):
        assert cli.main(c + ["cooc", "--clusters", str(src), "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "cooc" / "graph.txt").read_bytes()
            == (tmp_path / "cooc_fresh" / "graph.txt").read_bytes())
    capsys.readouterr()
    assert cli.main(c + ["cbfe", "--data", str(workspace / "data"), "--clusters", str(clusters),
                         "--out", str(tmp_path / "fg")]) == 1
    assert capsys.readouterr().err == (f"error: {clusters / 'cluster_outputs.txt'}: made from "
                                       "another manifest.txt than this run reads\n")
    assert cli.main(c + ["cooc", "--clusters", str(clusters), "--out", str(tmp_path / "o"),
                         "--fg-map", str(workspace / "fg" / "fg_map.txt")]) == 1
    assert capsys.readouterr().err == (
        f"error: {workspace / 'fg' / 'cbfe_outputs.txt'}: made from another "
        "cluster_outputs.txt than this run reads\n")


def downstream_of(workspace, clusters, tmp_path):
    c = ["--config", str(workspace / "run.cfg")]
    return {"cbfe": c + ["cbfe", "--data", str(workspace / "data"), "--clusters", str(clusters),
                         "--out", str(tmp_path / "fg")],
            "cooc": c + ["cooc", "--clusters", str(clusters), "--out", str(tmp_path / "cooc")]}


def test_an_interrupted_cluster_run_is_refused_downstream(workspace, tmp_path, capsys,
                                                          monkeypatch):
    """A k = 4 run over a finished k = 16 dir that fails after 10 maps leaves
    no manifest, so neither the 10 new maps nor the 14 stale ones are read."""
    clusters = tmp_path / "clusters"
    shutil.copytree(workspace / "clusters", clusters)
    cfg = tmp_path / "k4.cfg"
    cfg.write_text(SMALL_CFG.replace("[cbfe]\nk = 16", "[cbfe]\nk = 4"))
    write, written = tensor_io.write_tensor, []

    def failing_write(t, path):
        if len(written) == 10:
            raise OSError(f"{path}: no space left on device")
        written.append(path)
        write(t, path)

    monkeypatch.setattr(tensor_io, "write_tensor", failing_write)
    assert cli.main(cluster_argv(workspace, workspace / "data", clusters, cfg)) == 1
    monkeypatch.undo()
    assert len(written) == 10
    for command, argv in downstream_of(workspace, clusters, tmp_path).items():
        capsys.readouterr()
        assert cli.main(argv) == 1, command
        assert capsys.readouterr().err == (f"error: {clusters}: no cluster_outputs.txt; no "
                                           "`cluster` run into it has finished\n")


def test_a_flipped_byte_in_a_cluster_map_is_refused(workspace, tmp_path, capsys):
    clusters = tmp_path / "clusters"
    shutil.copytree(workspace / "clusters", clusters)
    victim = clusters / "img00007_clusters.lpt"
    data = bytearray(victim.read_bytes())
    data[-2] ^= 1  # the low byte of the last id: still a valid id below k
    victim.write_bytes(bytes(data))
    for command, argv in downstream_of(workspace, clusters, tmp_path).items():
        capsys.readouterr()
        assert cli.main(argv) == 1, command
        assert capsys.readouterr().err == (
            f"error: {victim}: not the {len(data)}-byte file whose sha256 "
            f"{clusters / 'cluster_outputs.txt'} records\n")


def test_cooc_refuses_an_fg_map_of_another_cluster_run(workspace, tmp_path, capsys):
    cfg = tmp_path / "seed1.cfg"
    cfg.write_text(SMALL_CFG + "\n[run]\nseed = 1\n")
    clusters1, fg1 = tmp_path / "clusters1", tmp_path / "fg1"
    assert cli.main(cluster_argv(workspace, workspace / "data", clusters1, cfg)) == 0
    assert cli.main(["--config", str(cfg), "cbfe", "--data", str(workspace / "data"),
                     "--clusters", str(clusters1), "--out", str(fg1)]) == 0
    capsys.readouterr()
    assert cli.main(["cooc", "--clusters", str(workspace / "clusters"),
                     "--out", str(tmp_path / "cooc"), "--fg-map", str(fg1 / "fg_map.txt")]) == 1
    assert capsys.readouterr().err == (f"error: {fg1 / 'cbfe_outputs.txt'}: made from another "
                                       "cluster_outputs.txt than this run reads\n")


@pytest.mark.parametrize("kind", ["output", "input"])
def test_a_file_or_input_listed_twice_is_refused(tmp_path, kind):
    """A second record of one name is refused, not read over the first: a
    first ``output`` line with a wrong digest and a second, right one."""
    (tmp_path / "a.txt").write_text("a\n")
    commit(tmp_path, "cooc", {"cluster_outputs.txt": "0" * 64})
    manifest = tmp_path / "cooc_outputs.txt"
    lines = manifest.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith(kind))
    first = lines[n].replace(lines[n].split()[-1], "f" * 64)
    lines.insert(n, first)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(tensor_io.ManifestError) as exc:
        cli.read_outputs(tmp_path, "cooc")
    name = lines[n].split()[1]
    assert str(exc.value) == f"{manifest}:{n + 2}: {kind} {name} listed twice: {lines[n + 1]!r}"


def test_an_input_must_exist_and_be_listed(workspace, tmp_path, capsys):
    cooc = tmp_path / "cooc"
    shutil.copytree(workspace / "cooc", cooc)
    shutil.copy(cooc / "graph.txt", cooc / "other.txt")
    capsys.readouterr()
    assert cli.main(["communities", "--graph", str(cooc / "other.txt"),
                     "--out", str(tmp_path / "comm")]) == 1
    assert capsys.readouterr().err == (f"error: {cooc / 'other.txt'}: not listed in "
                                       f"{cooc / 'cooc_outputs.txt'}\n")
    nowhere = tmp_path / "nowhere"
    assert cli.main(["cooc", "--clusters", str(nowhere), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {nowhere}: no such file or directory\n"


def test_gen_lists_only_its_own_files(workspace, tmp_path):
    """10 images generated into a dir that holds 24 list the 10 images'
    tensors, the prototypes, the key and the manifest: no stale file."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    cfg = tmp_path / "ten.cfg"
    cfg.write_text(SMALL_CFG.replace("n_images = 24", "n_images = 10"))
    assert cli.main(["--config", str(cfg), "gen", "--out", str(data)]) == 0
    listed = cli.read_outputs(data, "gen").files
    assert sorted(listed) == sorted(
        [f"img{i:05d}_{kind}.lpt" for i in range(10) for kind in ("attn", "feat", "mask")]
        + ["key.txt", "manifest.txt", "prototypes.lpt"])


def test_a_stage_counts_its_warnings(workspace, tmp_path):
    """Each run counts every warning it raised, however often the process
    raised it before, and re-emits each distinct message once."""
    clusters = tmp_path / "clusters"
    copy_clusters(workspace, clusters, lambda cm: np.where(cm >= cm.max(), 0, cm))
    for run in ("fg_a", "fg_b"):
        with pytest.warns(UserWarning, match="never appear") as record:
            assert cli.main(["--config", str(workspace / "run.cfg"), "cbfe",
                             "--data", str(workspace / "data"), "--clusters", str(clusters),
                             "--out", str(tmp_path / run)]) == 0
        assert len([w for w in record if "never appear" in str(w.message)]) == 1
        last = (tmp_path / run / "cbfe_outputs.txt").read_text().splitlines()[-1]
        assert last.startswith("warnings ") and int(last.split()[1]) >= 1
    assert ((tmp_path / "fg_a" / "cbfe_outputs.txt").read_bytes()
            == (tmp_path / "fg_b" / "cbfe_outputs.txt").read_bytes())
    assert (workspace / "fg" / "cbfe_outputs.txt").read_text().endswith("\nwarnings 0\n")
