"""Command-line pipeline: generate, train, cluster, extract, group, score.

Every subcommand takes its settings from one structured-text config (all
keys optional), checked at load, where ``LEOPART_SEED`` replaces the
``[run] seed`` that seeds it.

Every command but ``eval`` and ``render`` is a stage that commits its
outputs through a manifest, ``<out>/<command>_outputs.txt``. The stage
first deletes that file, then creates ``<out>``, writes its outputs, and
writes the manifest last, so a stage that fails or is killed leaves none.
The manifest's lines, with no absolute paths and no times, so identical
runs in different directories write identical bytes:

    command <command>
    config_hash <hash of the config that ran>
    input <file name> <sha256>          one per manifest the stage read
    output <file name> <size> <sha256>  one per file the stage wrote
    warnings <n>                        the warnings raised while it ran

A downstream stage reads an upstream directory, or a file in it, only
through that manifest (:func:`read_outputs`); ``--fg-map`` and ``--graph``
take the ``cbfe`` and ``cooc`` directory, whose listed ``fg_map.txt`` and
``graph.txt`` are read, or that file itself. The stage refuses, with a
``ManifestError``, a missing manifest, a malformed line or a name listed
twice in it, a listed file that is missing or whose size or sha256
differs, and a file argument that is not listed. It
also refuses two inputs that record different digests of one upstream
manifest: ``cbfe`` clusters made from another ``--data`` manifest, and
``cooc`` an fg map made from other clusters. ``--data`` names a dataset
manifest, whose digest is recorded but whose tensors are not digested.

Exit codes: 0 on success, 1 on validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import (cbfe, cluster_eval, community, config as config_mod, crops, model,
               pipeline, render, synth, tensor_io, training)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_outputs_manifest(out_dir: Path, command: str, cfg: config_mod.Config,
                           outputs: list[Path], inputs: dict[str, str],
                           n_warnings: int) -> Path:
    lines = [f"command {command}", f"config_hash {cfg.hash()}"]
    lines += [f"input {name} {digest}" for name, digest in sorted(inputs.items())]
    for path in sorted(outputs, key=lambda p: p.name):
        data = path.read_bytes()
        lines.append(f"output {path.name} {len(data)} {_sha256(data)}")
    lines.append(f"warnings {n_warnings}")
    path = out_dir / f"{command}_outputs.txt"
    tensor_io.write_text(path, "\n".join(lines) + "\n")
    return path


@dataclass(frozen=True)
class StageOutputs:
    """A finished stage's outputs manifest, every listed file checked."""

    manifest: Path
    digest: str  # sha256 of the manifest's bytes
    files: dict[str, Path]  # listed file name -> path
    inputs: dict[str, str]  # name of a manifest the stage read -> its sha256

    def file(self, name: str) -> Path:
        if name not in self.files:
            raise tensor_io.ManifestError(
                f"{self.manifest.parent / name}: not listed in {self.manifest}")
        return self.files[name]


def read_outputs(path: str | Path, command: str) -> StageOutputs:
    """The manifest of the *command* run that wrote *path*, its output
    directory or a file in it, each name listed once. Each listed file must
    have the recorded size and sha256, and a file *path* must be listed;
    else a ``ManifestError`` names the line, directory or file."""
    path = Path(path)
    if not path.exists():
        raise tensor_io.ManifestError(f"{path}: no such file or directory")
    root = path if path.is_dir() else path.parent
    manifest = root / f"{command}_outputs.txt"
    if not manifest.is_file():
        raise tensor_io.ManifestError(
            f"{root}: no {manifest.name}; no `{command}` run into it has finished")
    text, lines = tensor_io.read_lines(manifest)
    listed: dict[str, tuple[int, str]] = {}
    inputs: dict[str, str] = {}
    for where, fields in lines:
        with tensor_io.named_line(where, fields, tensor_io.ManifestError):
            key, *rest = fields
            if key == "output" and len(rest) == 3 and rest[1].isdecimal():
                table, name, value = listed, rest[0], (int(rest[1]), rest[2])
            elif key == "input" and len(rest) == 2:
                table, (name, value) = inputs, rest
            elif key in ("command", "config_hash", "warnings"):
                continue
            else:
                raise ValueError("malformed line")
            if name in table:
                raise ValueError(f"{key} {name} listed twice")
            table[name] = value
    for name, (size, digest) in listed.items():
        try:
            content = (root / name).read_bytes()
        except OSError as exc:
            raise tensor_io.ManifestError(
                f"{root / name}: listed in {manifest}, but unreadable: {exc.strerror}") from None
        if len(content) != size or _sha256(content) != digest:
            raise tensor_io.ManifestError(
                f"{root / name}: not the {size}-byte file whose sha256 {manifest} records")
    outputs = StageOutputs(manifest, _sha256(text.encode()),  # the bytes read_lines decoded
                           {name: root / name for name in listed}, inputs)
    if path != root:
        outputs.file(path.name)
    return outputs


def listed_file(outputs: StageOutputs, path: str, name: str) -> Path:
    """The file *path*, or the listed *name* when *path* is the directory
    of *outputs*."""
    path = Path(path)
    return outputs.file(name) if path.is_dir() else path


class Stage:
    """One command run: its output directory (None for ``eval`` and
    ``render``) and the sha256 of each manifest it read, by file name."""

    def __init__(self, out: Path | None = None):
        self.out = out
        self.inputs: dict[str, str] = {}

    def dataset(self, data: str) -> tensor_io.DatasetManifest:
        """The dataset manifest under *data*; its tensors are not digested."""
        path = Path(data) / "manifest.txt"
        manifest = tensor_io.load_manifest(path)
        self.inputs[path.name] = _sha256(path.read_bytes())
        return manifest

    def upstream(self, path: str, command: str, *joins: str) -> StageOutputs:
        """:func:`read_outputs` of *path*, recorded as an input. For each
        manifest name in *joins*, which this run has read, the upstream run
        must have read one of the same digest."""
        outputs = read_outputs(path, command)
        for name in joins:
            if outputs.inputs.get(name) != self.inputs[name]:
                raise tensor_io.ManifestError(
                    f"{outputs.manifest}: made from another {name} than this run reads")
        self.inputs[outputs.manifest.name] = outputs.digest
        return outputs


def run_stage(args, cfg: config_mod.Config) -> None:
    """Run the stage ``args.command`` into ``args.out``: delete its outputs
    manifest, create the directory, run the command and write the manifest
    of the paths it returns. The warnings raised meanwhile are counted in
    the manifest, every one however often it was raised before in this
    process, and each distinct message is then re-emitted once."""
    out = Path(args.out)
    (out / f"{args.command}_outputs.txt").unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    stage = Stage(out)
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs = COMMANDS[args.command](args, cfg, stage)
        write_outputs_manifest(out, args.command, cfg, outputs, stage.inputs, len(caught))
    finally:
        distinct: dict[tuple, warnings.WarningMessage] = {}
        for w in caught:
            distinct.setdefault((w.category, str(w.message)), w)
        for w in distinct.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def student_params(args, cfg: config_mod.Config,
                   dataset: tensor_io.Dataset) -> dict[str, np.ndarray] | None:
    """The student parameters of ``--checkpoint`` (None without one) for
    *dataset*. A checkpoint of another config hash is refused unless
    ``--force`` is given. The student tensors must be exactly the model's
    parameters, each of float32 and of its shape at the dims that the
    checkpoint's ``encoder.w`` (raw, token), ``head.l1.b`` (hidden),
    ``head.l3.b`` (out) and ``prototypes`` (K) imply, and the raw dim must be
    the dataset's; else a ``TensorFormatError`` names the first tensor that
    differs."""
    if args.checkpoint is None:
        return None
    path = Path(args.checkpoint)
    ckpt = tensor_io.load_checkpoint(path)
    expected = cfg.train_config().hash()
    if ckpt.config_hash != expected and not args.force:
        raise config_mod.ConfigError(
            f"checkpoint config hash {ckpt.config_hash} does not match this "
            f"config ({expected}); pass --force to evaluate anyway")
    student = {name: t for name, t in ckpt.tensors.items() if name.startswith("student/")}

    def shape(name: str, rank: int) -> tuple[int, ...]:  # all 1s if it is missing
        t = student.get(f"student/{name}")
        return t.shape if t is not None and t.ndim == rank else (1,) * rank

    (raw_dim, token_dim), (hidden,), (out,) = (shape("encoder.w", 2), shape("head.l1.b", 1),
                                               shape("head.l3.b", 1))
    dims = model.ModelDims(raw_dim, token_dim, hidden, out, shape("prototypes", 2)[0])
    model_params = model.init_params(dims, np.random.default_rng(0))
    try:
        tensor_io.match_tensors(student, {f"student/{n}": t for n, t in model_params.items()},
                                "a model parameter", f"the student's dims ({dims}) need")
    except tensor_io.TensorFormatError as exc:
        raise tensor_io.TensorFormatError(f"{path}: {exc}") from None
    params = {name.removeprefix("student/"): t for name, t in student.items()}
    if raw_dim != dataset.features.shape[1]:
        raise tensor_io.TensorFormatError(
            f"{path}: checkpoint tensor 'student/encoder.w' takes {raw_dim}-dimensional "
            f"tokens; the dataset's are {dataset.features.shape[1]}-dimensional")
    return params


def read_cluster_maps(clusters: StageOutputs, ids: list[str] | None = None,
                      ) -> tuple[np.ndarray, int]:
    """The maps ``<id>_clusters.lpt`` that *clusters* lists, in the order of
    *ids* (default: every listed map, sorted), as one (N, H, W) array of
    one dtype (else a ``TensorFormatError`` names the file), and k.

    k is the row count of ``centroids.lpt``, which ``cluster`` writes next to
    the maps: the highest cluster id can be missing from every map.
    """
    names = (sorted(n for n in clusters.files if n.endswith("_clusters.lpt")) if ids is None
             else [f"{i}_clusters.lpt" for i in ids])
    if not names:
        raise tensor_io.ManifestError(f"{clusters.manifest} lists no *_clusters.lpt maps")
    paths = [clusters.file(name) for name in names]
    k = len(tensor_io.read_tensor(clusters.file("centroids.lpt")))
    maps = tensor_io.stack_tensors(map(tensor_io.read_tensor, paths), list(map(str, paths)),
                                   "cluster map", tensor_io.TensorFormatError)
    top = int(maps.max())
    if top >= k:
        raise tensor_io.TensorFormatError(
            f"{clusters.manifest.parent}: cluster id {top} is out of range for the "
            f"{k} centroids in centroids.lpt")
    return maps, k


# ----------------------------------------------------------------- commands
#
# Each command takes (args, cfg, stage) and returns the paths it wrote.


def cmd_gen(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    spec = cfg.synth_spec()
    manifest, _ = synth.generate(spec, stage.out)
    print(f"generated {spec.n_images} images under {stage.out}")
    names = [p for rec in manifest.records
             for p in (rec.feature_path, rec.attention_path, rec.mask_path) if p is not None]
    return [stage.out / p for p in names + ["prototypes.lpt", "key.txt", "manifest.txt"]]


def cmd_train(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    manifest = stage.dataset(args.data)
    train_cfg = cfg.train_config()
    resume = tensor_io.load_checkpoint(Path(args.resume)) if args.resume else None
    ckpt, losses = training.train(manifest, train_cfg, resume=resume)
    if not losses:
        raise ValueError(f"nothing left to train: the run already ends at step {ckpt.step}")
    ckpt_path = stage.out / "checkpoint.lpc"
    curve_path = stage.out / "loss_curve.csv"
    tensor_io.save_checkpoint(ckpt, ckpt_path)
    training.write_loss_curve(losses, curve_path)
    print(f"trained {ckpt.step} steps; final loss {losses[-1][1]:.6f}")
    return [ckpt_path, curve_path]


def cmd_cluster(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    manifest = stage.dataset(args.data)
    dataset = pipeline.load_dataset(manifest)
    embedded = pipeline.embed_dataset(dataset, student_params(args, cfg, dataset),
                                      cfg["eval"]["use_head"])
    k = cfg["cbfe"]["k"]
    maps, result = cluster_eval.cluster_maps_for(embedded, k, seed=cfg["run"]["seed"])
    outputs = [stage.out / f"{rec.id}_clusters.lpt" for rec in manifest.records]
    for path, cm in zip(outputs, maps):
        tensor_io.write_tensor(cm, path)
    centroid_path = stage.out / "centroids.lpt"
    tensor_io.write_tensor(result.centroids.astype(np.float32), centroid_path)
    print(f"clustered {len(maps)} images into k={k} clusters")
    return outputs + [centroid_path]


def cmd_cbfe(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    manifest = stage.dataset(args.data)
    clusters = stage.upstream(args.clusters, "cluster", "manifest.txt")
    dataset = pipeline.load_dataset(manifest)
    maps, k = read_cluster_maps(clusters, [rec.id for rec in manifest.records])
    art = pipeline.label_foreground(maps, pipeline.attention_hints(dataset), k,
                                    cfg["cbfe"]["threshold"])
    fg_path = stage.out / "fg_map.txt"
    cbfe.write_foreground_map(art.fg_map, fg_path)
    outputs = [stage.out / f"{rec.id}_fg.lpt" for rec in manifest.records]
    for path, mask in zip(outputs, art.fg_masks):
        tensor_io.write_tensor(mask, path)
    n_fg = int(art.fg_map.theta.sum())
    print(f"labeled {n_fg}/{k} clusters as foreground")
    return outputs + [fg_path]


def cmd_cooc(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    maps, k = read_cluster_maps(stage.upstream(args.clusters, "cluster"))
    theta = np.ones(k, dtype=bool)
    if args.fg_map:
        fg = stage.upstream(args.fg_map, "cbfe", "cluster_outputs.txt")
        theta = cbfe.read_foreground_map(listed_file(fg, args.fg_map, "fg_map.txt"))
        if len(theta) != k:
            raise ValueError(f"{args.fg_map} labels {len(theta)} clusters, "
                             f"the clusters have k={k}")
    graph = pipeline.foreground_graph(maps, theta, cfg["cd"]["edge_threshold"],
                                      cfg["cd"]["distance"])
    graph_path = stage.out / "graph.txt"
    community.write_graph(graph, graph_path)
    n_edges = int((graph.weights > 0).sum() // 2)
    print(f"co-occurrence graph: {k} nodes, {n_edges} edges")
    return [graph_path]


def cmd_communities(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    cooc = stage.upstream(args.graph, "cooc")
    graph = community.read_graph(listed_file(cooc, args.graph, "graph.txt"))
    if cfg["cd"]["target_m"] is None:
        raise config_mod.ConfigError("no community count: set cd.target_m")
    partition = community.detect_communities(
        graph, target_m=cfg["cd"]["target_m"], markov_time=cfg["cd"]["markov_time"],
        seed=cfg["run"]["seed"])
    part_path = stage.out / "partition.txt"
    community.write_partition(partition, part_path)
    bits = community.map_equation(graph, partition, cfg["cd"]["markov_time"])
    print(f"found {partition.n_communities} communities; "
          f"description length {bits:.4f} bits")
    return [part_path]


def cmd_eval(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    dataset = pipeline.load_dataset(stage.dataset(args.data))
    seed = cfg["run"]["seed"]
    gt = dataset.object_maps
    if gt is None:
        raise config_mod.ConfigError("evaluation requires ground-truth masks")
    n_classes = int(gt.max()) + 1

    if args.protocol == "unsupseg":
        params = student_params(args, cfg, dataset)
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
        return []

    embedded = pipeline.embed_dataset(dataset, student_params(args, cfg, dataset),
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
        score, _ = cluster_eval.linear_probe(embedded[:half], gt[:half], embedded[half:],
                                             gt[half:], n_classes=n_classes)
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
    return []


def cmd_render(args, cfg: config_mod.Config, stage: Stage) -> list[Path]:
    label_map = tensor_io.read_tensor(Path(args.input))
    if label_map.dtype.kind != "u":  # a float tensor would be truncated to labels
        raise ValueError(f"{args.input}: cannot render a {label_map.dtype} tensor; "
                         f"a label map is u8 or u16")
    if label_map.ndim == 3:
        if label_map.shape[0] != 1:
            raise ValueError(f"cannot render multi-channel tensor {label_map.shape}")
        label_map = label_map[0]
    render.render_label_map(label_map.astype(np.int64), Path(args.out),
                            scale=args.scale)
    print(f"wrote {args.out}")
    return [Path(args.out)]


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
    p.add_argument("--fg-map", help="a cbfe output directory or its fg_map.txt: "
                                    "disconnect background clusters first")

    p = sub.add_parser("communities", help="detect cluster communities")
    p.add_argument("--graph", required=True, help="a cooc output directory or its graph.txt")
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
        if args.command in ("eval", "render"):  # they write no outputs manifest
            COMMANDS[args.command](args, cfg, Stage())
        else:
            run_stage(args, cfg)
    except (community.CommunityError, crops.CropSamplingError, FloatingPointError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
