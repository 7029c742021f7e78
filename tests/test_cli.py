"""End-to-end CLI pipeline and command-level behavior."""

import argparse
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from leopart import cbfe, cli, community, config, pipeline, render, tensor_io

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


def copy_clusters(workspace, dest, relabel):
    """Copy the workspace's clusters dir, passing every map through *relabel*."""
    src = workspace / "clusters"
    dest.mkdir()
    (dest / "centroids.lpt").write_bytes((src / "centroids.lpt").read_bytes())
    for path in src.glob("*_clusters.lpt"):
        tensor_io.write_tensor(relabel(tensor_io.read_tensor(path)), dest / path.name)
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


def test_cooc_rejects_cluster_ids_beyond_centroids(workspace, tmp_path, capsys):
    clusters = tmp_path / "clusters"
    k = copy_clusters(workspace, clusters, lambda cm: np.full_like(cm, 0))
    cm = np.zeros((10, 10), dtype=np.uint16)
    cm[0, 0] = k
    tensor_io.write_tensor(cm, clusters / "zzz_clusters.lpt")
    assert cli.main(["cooc", "--clusters", str(clusters), "--out", str(tmp_path / "o")]) == 1
    assert "out of range" in capsys.readouterr().err


def test_cooc_rejects_malformed_fg_map(workspace, tmp_path, capsys):
    fg_map = tmp_path / "fg_map.txt"
    fg_map.write_text("0 0.500000 fg\n1 0.200000\n")
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
    fg = tmp_path / "fg"
    assert cli.main(["--config", str(workspace / "run.cfg"), "cbfe", "--data", str(data),
                     "--clusters", str(workspace / "clusters"), "--out", str(fg)]) == 0
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


def test_cli_stages_match_pipeline_functions(workspace, tmp_path):
    """cbfe and communities give what pipeline.run_cbfe and pipeline.stage_cd
    give on the checkpoint's embeddings: one code path for CLI and ladder."""
    cfg = config.load_config(workspace / "run.cfg")
    dataset = pipeline.load_dataset(tensor_io.load_manifest(workspace / "data" / "manifest.txt"))
    args = argparse.Namespace(checkpoint=workspace / "train" / "checkpoint.lpc", force=False)
    embedded = pipeline.embed_dataset(dataset, cli.student_params(args, cfg),
                                      cfg["eval"]["use_head"])
    art = pipeline.run_cbfe(embedded, pipeline.attention_hints(dataset), cfg["cbfe"]["k"],
                            cfg["cbfe"]["threshold"], seed=0)
    cbfe.write_foreground_map(art.fg_map, tmp_path / "fg_map.txt")
    assert (tmp_path / "fg_map.txt").read_bytes() == (workspace / "fg" / "fg_map.txt").read_bytes()
    _, partition = pipeline.stage_cd(
        art, dataset.object_maps, cfg["cd"]["target_m"] + 1, cfg["cd"]["edge_threshold"],
        cfg["cd"]["markov_time"], cfg["cd"]["distance"], seed=0)
    cli_partition = community.read_partition(workspace / "comm" / "partition.txt")
    assert np.array_equal(partition.assignment, cli_partition.assignment)


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
    assert cli.main(["communities", "--graph", str(graph), "--out", str(tmp_path / "comm")]) == 1
    assert f"{graph}: line 2" in capsys.readouterr().err


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
    ("[train]\ntemperature = -1", "[train] temperature must be positive"),
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
    ("[eval]\nprobe_lr = 0", "bad value for eval.probe_lr: must be positive, got 0.0"),
    ("[cbfe]\nthreshold = 1.5", "bad value for cbfe.threshold: must be in [0, 1], got 1.5"),
    ("[cd]\nmarkov_time = -1", "bad value for cd.markov_time: must be positive, got -1.0"),
    ("[cd]\ntarget_m = 0", "bad value for cd.target_m: must be at least 1, got 0"),
    *[(f"[train]\n{key} = 0", f"[train] {key} must be at least 1, got 0")
      for key in ("batch_size", "epochs", "hidden_dim", "out_dim", "n_prototypes",
                  "global_grid", "local_grid", "align_size", "n_global", "token_dim")],
    ("[train]\nn_local = -1", "[train] n_local must be at least 0, got -1"),
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


def test_readme_walkthrough_parses(tmp_path):
    """Every `leopart` command of the README parses, with continuations
    joined and comments dropped, and the walkthrough config loads; together
    they run every subcommand."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.split("cat > run.cfg <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    config.load_config(cfg)
    parser = cli.build_parser()
    commands = set()
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("leopart "):
            argv = shlex.split(line, comments=True)[1:]
            try:
                commands.add(parser.parse_args(argv).command)
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
    assert commands == set(cli.COMMANDS)


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
        "non_finite_plan": with_cfg(SMALL_CFG.replace("lr_head = 0.001", "lr_head = 1e30")
                                    .replace("lr_encoder = 0.0001", "lr_encoder = 1e30"))
        + train + ["--out", str(tmp_path / "t")],
        "config_is_a_directory": ["--config", str(tmp_path), "gen", "--out", str(tmp_path / "d")],
        "checkpoint_is_a_directory": ["cluster", "--data", data, "--out", str(tmp_path / "c"),
                                      "--checkpoint", str(tmp_path)],
        "out_is_a_file": with_cfg(SMALL_CFG) + train + ["--out", str(tmp_path / "a_file")],
    }


@pytest.mark.parametrize("case", [
    "crop_sampling",
    # a learning rate of 1e30 overflows float32 parameters before the plan
    # turns non-finite; numpy's overflow warnings come first, as they should
    pytest.param("non_finite_plan", marks=pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning")),
    "config_is_a_directory", "checkpoint_is_a_directory", "out_is_a_file"])
def test_runtime_and_os_errors_exit_1_with_a_message(workspace, tmp_path, capsys, case):
    argv = unhandled_inputs(workspace, tmp_path)[case]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["cbfe", "cooc"])
def test_cluster_maps_of_another_shape_name_the_file(workspace, tmp_path, capsys, command):
    clusters = tmp_path / "clusters"
    copy_clusters(workspace, clusters, lambda cm: cm)
    odd = sorted(clusters.glob("*_clusters.lpt"))[3]
    tensor_io.write_tensor(np.zeros((9, 10), dtype=np.uint16), odd)
    argv = {"cbfe": ["cbfe", "--data", str(workspace / "data")], "cooc": ["cooc"]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--clusters", str(clusters), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {odd}: cluster map uint16 (9, 10), the first has "
                          "cluster map uint16 (10, 10)")
