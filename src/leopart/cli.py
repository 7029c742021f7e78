"""Command-line pipeline: generate, train, cluster, extract, group, score.

Every subcommand takes its settings from one structured-text config (all
keys optional), checked at load, where ``LEOPART_SEED`` replaces the
``[run] seed`` that seeds it. Every command but ``eval`` and ``render``
writes an output manifest listing the artifacts it produced together with
the config hash, so any result can be traced to the exact settings that
made it.

Exit codes: 0 on success, 1 on validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import (cbfe, cluster_eval, community, config as config_mod, crops, pipeline,
               render, synth, tensor_io, training)


def write_outputs_manifest(out_dir: Path, command: str, cfg: config_mod.Config,
                           outputs: list[Path]) -> Path:
    lines = [f"command {command}", f"config_hash {cfg.hash()}"]
    lines += [f"output {p.name}" for p in sorted(outputs)]
    path = out_dir / f"{command}_outputs.txt"
    tensor_io.write_text(path, "\n".join(lines) + "\n")
    return path


def student_params(args, cfg: config_mod.Config) -> dict[str, np.ndarray] | None:
    """The student parameters of ``--checkpoint`` (None without one); a
    checkpoint of another config hash is refused unless ``--force`` is given."""
    if args.checkpoint is None:
        return None
    path = Path(args.checkpoint)
    ckpt = tensor_io.load_checkpoint(path)
    expected = cfg.train_config().hash()
    if ckpt.config_hash != expected and not args.force:
        raise config_mod.ConfigError(
            f"checkpoint config hash {ckpt.config_hash} does not match this "
            f"config ({expected}); pass --force to evaluate anyway")
    params = {name.removeprefix("student/"): t
              for name, t in ckpt.tensors.items() if name.startswith("student/")}
    if not params:
        raise tensor_io.TensorFormatError(f"{path}: checkpoint has no student parameters")
    return params


def read_cluster_maps(clusters_dir: Path, ids: list[str] | None = None,
                      ) -> tuple[np.ndarray, int]:
    """The maps ``<id>_clusters.lpt`` under *clusters_dir*, in the order of
    *ids* (default: every such file, sorted), as one (N, H, W) array of
    one dtype (else a ``TensorFormatError`` names the file), and k.

    k is the row count of ``centroids.lpt``, which ``cluster`` writes next to
    the maps: the highest cluster id can be missing from every map.
    """
    paths = (sorted(clusters_dir.glob("*_clusters.lpt")) if ids is None
             else [clusters_dir / f"{i}_clusters.lpt" for i in ids])
    if not paths:
        raise FileNotFoundError(f"no *_clusters.lpt files under {clusters_dir}")
    k = len(tensor_io.read_tensor(clusters_dir / "centroids.lpt"))
    maps = tensor_io.stack_tensors(map(tensor_io.read_tensor, paths), list(map(str, paths)),
                                   "cluster map", tensor_io.TensorFormatError)
    top = int(maps.max())
    if top >= k:
        raise tensor_io.TensorFormatError(
            f"{clusters_dir}: cluster id {top} is out of range for the "
            f"{k} centroids in centroids.lpt")
    return maps, k


# ----------------------------------------------------------------- commands


def cmd_gen(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    spec = cfg.synth_spec()
    synth.generate(spec, out)
    outputs = sorted(out.glob("*.lpt")) + [out / "manifest.txt", out / "key.txt"]
    write_outputs_manifest(out, "gen", cfg, outputs)
    print(f"generated {spec.n_images} images under {out}")
    return 0


def cmd_train(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = tensor_io.load_manifest(Path(args.data) / "manifest.txt")
    train_cfg = cfg.train_config()
    resume = tensor_io.load_checkpoint(Path(args.resume)) if args.resume else None
    ckpt, losses = training.train(manifest, train_cfg, resume=resume)
    if not losses:
        raise ValueError(f"nothing left to train: the run already ends at step {ckpt.step}")
    ckpt_path = out / "checkpoint.lpc"
    curve_path = out / "loss_curve.csv"
    tensor_io.save_checkpoint(ckpt, ckpt_path)
    training.write_loss_curve(losses, curve_path)
    write_outputs_manifest(out, "train", cfg, [ckpt_path, curve_path])
    print(f"trained {ckpt.step} steps; final loss {losses[-1][1]:.6f}")
    return 0


def cmd_cluster(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = tensor_io.load_manifest(Path(args.data) / "manifest.txt")
    dataset = pipeline.load_dataset(manifest)
    embedded = pipeline.embed_dataset(dataset, student_params(args, cfg),
                                      cfg["eval"]["use_head"])
    k = cfg["cbfe"]["k"]
    maps, result = cluster_eval.cluster_maps_for(embedded, k, seed=cfg["run"]["seed"])
    outputs = [out / f"{rec.id}_clusters.lpt" for rec in manifest.records]
    for path, cm in zip(outputs, maps):
        tensor_io.write_tensor(cm, path)
    centroid_path = out / "centroids.lpt"
    tensor_io.write_tensor(result.centroids.astype(np.float32), centroid_path)
    outputs.append(centroid_path)
    write_outputs_manifest(out, "cluster", cfg, outputs)
    print(f"clustered {len(maps)} images into k={k} clusters")
    return 0


def cmd_cbfe(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = tensor_io.load_manifest(Path(args.data) / "manifest.txt")
    dataset = pipeline.load_dataset(manifest)
    maps, k = read_cluster_maps(Path(args.clusters), [rec.id for rec in manifest.records])
    art = pipeline.label_foreground(maps, pipeline.attention_hints(dataset), k,
                                    cfg["cbfe"]["threshold"])
    fg_path = out / "fg_map.txt"
    cbfe.write_foreground_map(art.fg_map, fg_path)
    outputs = [out / f"{rec.id}_fg.lpt" for rec in manifest.records]
    for path, mask in zip(outputs, art.fg_masks):
        tensor_io.write_tensor(mask, path)
    outputs.append(fg_path)
    write_outputs_manifest(out, "cbfe", cfg, outputs)
    n_fg = int(art.fg_map.theta.sum())
    print(f"labeled {n_fg}/{k} clusters as foreground")
    return 0


def cmd_cooc(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    maps, k = read_cluster_maps(Path(args.clusters))
    theta = np.ones(k, dtype=bool)
    if args.fg_map:
        theta = cbfe.read_foreground_map(Path(args.fg_map))
        if len(theta) != k:
            raise ValueError(f"{args.fg_map} labels {len(theta)} clusters, "
                             f"the clusters have k={k}")
    graph = pipeline.foreground_graph(maps, theta, cfg["cd"]["edge_threshold"],
                                      cfg["cd"]["distance"])
    graph_path = out / "graph.txt"
    community.write_graph(graph, graph_path)
    write_outputs_manifest(out, "cooc", cfg, [graph_path])
    n_edges = int((graph.weights > 0).sum() // 2)
    print(f"co-occurrence graph: {k} nodes, {n_edges} edges")
    return 0


def cmd_communities(args, cfg: config_mod.Config) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph = community.read_graph(Path(args.graph))
    if cfg["cd"]["target_m"] is None:
        raise config_mod.ConfigError("no community count: set cd.target_m")
    partition = community.detect_communities(
        graph, target_m=cfg["cd"]["target_m"], markov_time=cfg["cd"]["markov_time"],
        seed=cfg["run"]["seed"])
    part_path = out / "partition.txt"
    community.write_partition(partition, part_path)
    bits = community.map_equation(graph, partition, cfg["cd"]["markov_time"])
    write_outputs_manifest(out, "communities", cfg, [part_path])
    print(f"found {partition.n_communities} communities; "
          f"description length {bits:.4f} bits")
    return 0


def cmd_eval(args, cfg: config_mod.Config) -> int:
    manifest = tensor_io.load_manifest(Path(args.data) / "manifest.txt")
    dataset = pipeline.load_dataset(manifest)
    seed = cfg["run"]["seed"]
    gt = dataset.object_maps
    if gt is None:
        raise config_mod.ConfigError("evaluation requires ground-truth masks")
    n_classes = int(gt.max()) + 1

    if args.protocol == "unsupseg":
        params = student_params(args, cfg)
        if params is None:
            raise config_mod.ConfigError("unsupseg evaluation requires --checkpoint")
        result = pipeline.run_ladder(
            dataset, params, overcluster_k=cfg["cbfe"]["k"],
            cbfe_threshold=cfg["cbfe"]["threshold"],
            edge_threshold=cfg["cd"]["edge_threshold"],
            markov_time=cfg["cd"]["markov_time"], seed=seed,
            distance=cfg["cd"]["distance"], use_head=cfg["eval"]["use_head"])
        for stage, score in result.as_dict().items():
            print(f"{stage}: mIoU {score:.4f}")
        print(f"final mIoU: {result.cd:.4f}")
        return 0

    embedded = pipeline.embed_dataset(dataset, student_params(args, cfg),
                                      cfg["eval"]["use_head"])
    if args.protocol == "overcluster":
        mean, std, _ = cluster_eval.overcluster_eval(
            embedded, gt, k=cfg["eval"]["k"], n_classes=n_classes,
            n_seeds=cfg["eval"]["n_seeds"], seed=seed)
        print(f"overclustering mIoU: {mean:.4f} +/- {std:.4f}")
        print(f"final mIoU: {mean:.4f}")
    elif args.protocol == "probe":
        if len(embedded) < 2:
            raise tensor_io.ManifestError(f"the linear probe trains on half of the images and "
                                          f"scores the rest: {args.data} has only 1")
        half = len(embedded) // 2
        score, _ = cluster_eval.linear_probe(
            embedded[:half], gt[:half], embedded[half:], gt[half:],
            n_classes=n_classes, epochs=cfg["eval"]["probe_epochs"],
            lr=cfg["eval"]["probe_lr"], seed=seed)
        print(f"linear probe mIoU: {score:.4f}")
        print(f"final mIoU: {score:.4f}")
    else:  # fg
        hints = pipeline.attention_hints(dataset)
        art = pipeline.run_cbfe(embedded, hints, cfg["cbfe"]["k"],
                                cfg["cbfe"]["threshold"], seed=seed)
        true_fg = (gt > 0).astype(np.uint8)
        jac = float(np.mean([cbfe.jaccard(p, g)
                             for p, g in zip(art.fg_masks, true_fg)]))
        bf1 = float(np.mean([cbfe.boundary_f1(p, g)
                             for p, g in zip(art.fg_masks, true_fg)]))
        print(f"foreground Jaccard: {jac:.4f}")
        print(f"foreground boundary F1: {bf1:.4f}")
    return 0


def cmd_render(args, cfg: config_mod.Config) -> int:
    label_map = tensor_io.read_tensor(Path(args.input))
    if label_map.ndim == 3:
        if label_map.shape[0] != 1:
            raise ValueError(f"cannot render multi-channel tensor {label_map.shape}")
        label_map = label_map[0]
    render.render_label_map(label_map.astype(np.int64), Path(args.out),
                            scale=args.scale)
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leopart",
        description="Self-supervised token clustering and unsupervised "
                    "segmentation pipeline.")
    parser.add_argument("--config", help="structured-text config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted synthetic dataset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the clustering model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to resume from")

    p = sub.add_parser("cluster", help="k-means cluster token embeddings")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="use trained embeddings")
    p.add_argument("--force", action="store_true",
                   help="allow a checkpoint with a different config hash")

    p = sub.add_parser("cbfe", help="label clusters foreground/background")
    p.add_argument("--data", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cooc", help="build the cluster co-occurrence graph")
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fg-map", help="disconnect background clusters first")

    p = sub.add_parser("communities", help="detect cluster communities")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", required=True,
                   choices=["overcluster", "probe", "unsupseg", "fg"])
    p.add_argument("--checkpoint")
    p.add_argument("--force", action="store_true",
                   help="allow a checkpoint with a different config hash")

    p = sub.add_parser("render", help="render a label map to a PPM image")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=int, default=1)

    return parser


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "cluster": cmd_cluster,
    "cbfe": cmd_cbfe,
    "cooc": cmd_cooc,
    "communities": cmd_communities,
    "eval": cmd_eval,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        return COMMANDS[args.command](args, cfg)
    except (community.CommunityError, crops.CropSamplingError, FloatingPointError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
