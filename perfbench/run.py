"""leopart benchmark: one workload per invocation, results as a JSON line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

Workloads (why each was chosen is in ``workloads.json``):

* ``train``    -- ``training.train`` at the acceptance config.
* ``ladder``   -- ``pipeline.run_ladder`` with the checkpoint fixture.
* ``cli_k150`` -- the ``cluster``/``cbfe``/``cooc``/``communities`` CLI
  stages at the paper's overclustering size k = 150.

A run first sets up ``SETUPS`` input sets (set-up ``j`` derives its inputs
from ``seed + j``), then repeats passes over them until ``--seconds`` have
passed and the workload's minimum pass count is reached. Every operation
(train step, ladder call, CLI stage) is timed and checked; the last line of
standard output is a JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). A traced run alternates untraced
and traced passes on the same inputs, requires identical outputs from both,
and writes its spans to ``perfbench/.work/``. The exit code is 0 only when
every check passed; it is 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

import common  # pins the BLAS thread pools; must precede numpy
import numpy as np

SETUPS = 3
TRAIN_EPOCHS_PER_PASS = 2      # 26 steps of 16 images on the canonical set
LADDER_K = 20
LADDER_THRESHOLD = 0.35
LADDER_MIOU_PASSES = 30        # CD mIoU swings by K-means seed; miou averages this many
CLI_K = 150
CLI_TARGET_M = 7               # 3 objects plus 4 background bands

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


class BenchFailure(RuntimeError):
    """An operation raised; the run cannot go on."""


class Ops:
    """Outcomes of the operations and latencies of the steps of the passes.

    An operation is what can fail: a train step, a ladder call or a CLI
    stage. A step is what the latency metrics count: a train step, a ladder
    call or a whole CLI pass (its stages differ too much in kind to share
    one latency distribution).
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.step_s: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; *ok* is whether it passed its output check."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        """A later check failed for an operation that was already counted."""
        self.failures.append(what)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


# ----------------------------------------------------------------- workloads


class Train:
    """``training.train`` for two epochs per pass on the canonical dataset."""

    min_passes = 4  # 104 steps: a p90 with ten steps beyond it
    period = SETUPS  # passes i and i + SETUPS train on the same inputs

    def __init__(self, lp, seed, work):
        self.lp, self.seed, self.work = lp, seed, work
        self.manifests = []
        self.first_params = None

    def setup(self, j):
        self.manifests.append(self.lp.synth.generate(
            self.lp.synth.SynthSpec(seed=self.seed + j), self.work / f"data{j}")[0])

    def run_pass(self, i, ops):
        training, tensor_io = self.lp.training, self.lp.tensor_io
        j = i % SETUPS
        cfg = common.acceptance_train_config(self.seed + j, TRAIN_EPOCHS_PER_PASS)
        step = training.train_step

        # training.train has no per-step hook, so this pass times and checks
        # each step through a wrapper around train_step
        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            loss = step(*args, **kwargs)
            ops.step_s.append(time.perf_counter() - t0)
            ops.check(math.isfinite(loss), f"pass {i}: loss {loss}")
            return loss

        training.train_step = timed_step
        try:
            t0 = time.perf_counter()
            ckpt, losses = training.train(self.manifests[j], cfg)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            ops.check(False, f"pass {i}: train raised {exc!r}")
            raise BenchFailure from exc
        finally:
            training.train_step = step
        path = self.work / "checkpoint.lpc"
        tensor_io.save_checkpoint(ckpt, path)
        back = tensor_io.load_checkpoint(path)
        if not (back.step == ckpt.step and back.config_hash == ckpt.config_hash
                and back.tensors.keys() == ckpt.tensors.keys()
                and all(np.array_equal(back.tensors[k], t) for k, t in ckpt.tensors.items())):
            ops.fail(f"pass {i}: checkpoint does not round-trip")
        if i == 0:
            self.first_params = {k.removeprefix("student/"): v for k, v in ckpt.tensors.items()
                                 if k.startswith("student/")}
        return elapsed, [loss for _, loss in losses]

    def miou(self):
        """Overclustering mIoU (k = 20, mean over the protocol's default five
        K-means seeds) of the first pass's trained embeddings."""
        pipeline, cluster_eval = self.lp.pipeline, self.lp.cluster_eval
        data = pipeline.load_dataset(self.manifests[0])
        embedded = pipeline.embed_dataset(data, self.first_params, use_head=True)
        n_classes = int(max(g.max() for g in data.object_maps)) + 1
        score, _, _ = cluster_eval.overcluster_eval(
            embedded, data.object_maps, k=LADDER_K, n_classes=n_classes, seed=self.seed)
        return score


class Ladder:
    """``pipeline.run_ladder`` on the seed-0 dataset, one K-means seed a pass."""

    min_passes = LADDER_MIOU_PASSES
    period = None  # every pass uses its own seed

    def __init__(self, lp, seed, work):
        self.lp, self.seed, self.work = lp, seed, work
        self.cd = {}  # pass index -> stage-4 (CD) mIoU

    def setup(self, j):
        lp = self.lp
        expected = json.loads(common.FIXTURE_INFO.read_text())["sha256"]
        blob = common.FIXTURE.read_bytes()
        if hashlib.sha256(blob).hexdigest() != expected:
            raise common.BenchSetupError(f"{common.FIXTURE} does not match its sha256")
        manifest, _ = lp.synth.generate(lp.synth.SynthSpec(seed=0), self.work / "data")
        self.dataset = lp.pipeline.load_dataset(manifest)
        ckpt = lp.tensor_io.load_checkpoint(common.FIXTURE)
        self.params = {k.removeprefix("student/"): v for k, v in ckpt.tensors.items()
                       if k.startswith("student/")}

    def kmeans_seed(self, i):
        """Pass 0 uses the workload seed itself (criterion 6's call at seed 0);
        later passes draw independent seeds from it, so that neighbouring
        workload seeds do not share most of the seeds that ``miou`` averages."""
        if i == 0:
            return self.seed
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def run_pass(self, i, ops):
        t0 = time.perf_counter()
        try:
            result = self.lp.pipeline.run_ladder(
                self.dataset, self.params, overcluster_k=LADDER_K,
                cbfe_threshold=LADDER_THRESHOLD, seed=self.kmeans_seed(i))
        except Exception as exc:
            ops.check(False, f"pass {i}: run_ladder raised {exc!r}")
            raise BenchFailure from exc
        elapsed = time.perf_counter() - t0
        scores = result.as_dict()
        ok = all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in scores.values())
        ops.step_s.append(elapsed)
        ops.check(ok, f"pass {i}: ladder scores {scores}")
        self.cd[i] = result.cd
        return elapsed, scores

    def miou(self):
        """Mean stage-4 (community detection) mIoU of the first
        ``LADDER_MIOU_PASSES`` calls. One call's value depends on its K-means
        seed (0.40 to 0.99 over 125 seeds), so a single call would move this
        guard by a third from one workload seed to the next; the mean of 30
        independent seeds keeps it steady."""
        print(f"ladder_cd    {self.cd[0]:.6g} (first call, K-means seed {self.seed})")
        return statistics.mean(self.cd[i] for i in range(LADDER_MIOU_PASSES))


class CliK150:
    """The four CLI stages after ``gen``, on input set ``i mod SETUPS``."""

    min_passes = 3
    period = SETUPS

    def __init__(self, lp, seed, work):
        self.lp, self.seed, self.work = lp, seed, work

    def setup(self, j):
        cfg = self.work / f"run{j}.cfg"
        cfg.write_text(f"[cbfe]\nk = {CLI_K}\n\n[cd]\ntarget_m = {CLI_TARGET_M}\n\n"
                       f"[run]\nseed = {self.seed + j}\n")
        if self._cli(["--config", str(cfg), "gen", "--out", str(self.work / f"data{j}")]) != 0:
            raise BenchFailure(f"cli gen failed for input set {j}")

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.lp.cli.main(argv)

    def run_pass(self, i, ops):
        community = self.lp.community
        j = i % SETUPS
        data, out = self.work / f"data{j}", self.work / f"out{j}"
        stages = [
            ("cluster", ["--data", data, "--out", out / "clusters"]),
            ("cbfe", ["--data", data, "--clusters", out / "clusters", "--out", out / "fg"]),
            ("cooc", ["--clusters", out / "clusters", "--out", out / "cooc"]),
            ("communities", ["--graph", out / "cooc" / "graph.txt", "--out", out / "comm"]),
        ]
        elapsed = 0.0
        for name, argv in stages:
            t0 = time.perf_counter()
            try:
                rc = self._cli(["--config", str(self.work / f"run{j}.cfg"), name]
                               + [str(a) for a in argv])
            except Exception as exc:
                ops.check(False, f"pass {i}: cli {name} raised {exc!r}")
                raise BenchFailure from exc
            dt = time.perf_counter() - t0
            elapsed += dt
            problem = f"exit code {rc}" if rc != 0 else None
            if problem is None and name == "cooc":
                n = community.read_graph(out / "cooc" / "graph.txt").n
                problem = None if n == CLI_K else f"graph.txt reloads with {n} nodes"
            if problem is None and name == "communities":
                n = community.read_partition(out / "comm" / "partition.txt").n_communities
                problem = None if n == CLI_TARGET_M else f"{n} communities"
            ops.check(problem is None, f"pass {i}: cli {name}: {problem}")
            if rc != 0:
                raise BenchFailure(f"cli {name} exited {rc}")
        ops.step_s.append(elapsed)
        return elapsed, (out / "comm" / "partition.txt").read_bytes()

    def miou(self):
        """Hungarian-matched mIoU of input set 0's community-merged maps."""
        lp = self.lp
        manifest = lp.tensor_io.load_manifest(self.work / "data0" / "manifest.txt")
        gt = [lp.tensor_io.read_tensor(manifest.root / r.mask_path)[0].astype(np.int64)
              for r in manifest.records]
        maps = [lp.tensor_io.read_tensor(self.work / "out0" / "clusters"
                                         / f"{r.id}_clusters.lpt").astype(np.int64)
                for r in manifest.records]
        partition = lp.community.read_partition(self.work / "out0" / "comm" / "partition.txt")
        merged = lp.community.merge_by_communities(maps, partition)
        n_labels = max(int(m.max()) for m in merged + gt) + 1
        return lp.pipeline.hungarian_matched_miou(merged, gt, n_labels)


WORKLOADS = {"train": Train, "ladder": Ladder, "cli_k150": CliK150}


# ------------------------------------------------------------------- running


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python_threads": threading.active_count(),
    }


def repeat(run_pass, min_passes, seconds):
    """Call ``run_pass(i)`` for i = 0, 1, ... until *seconds* have passed and
    at least *min_passes* calls were made; returns the results."""
    results = []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start < seconds:
        results.append(run_pass(len(results)))
    return results


def check_repeats(outputs, ops, period):
    """Passes on the same inputs must give identical outputs."""
    for i in range(period, len(outputs)):
        if outputs[i] != outputs[i - period]:
            ops.fail(f"pass {i}: output differs from pass {i - period} on the same inputs")


def end_to_end(workload, setup_times, pass_times, ops) -> dict:
    lat = ops.step_s
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "run_s": (statistics.median(pass_times), len(pass_times)),
        "steps_per_s": (len(lat) / sum(pass_times), len(lat)),
        "step_s.p50": (statistics.median(lat), len(lat)),
        "step_s.p90": (statistics.quantiles(lat, n=10, method="inclusive")[8], len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "miou": (workload.miou(), 1),
    }


def align_cache_counts(crops):
    cache = getattr(crops, "_align_matrix", None)
    if not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.hits + info.misses


def untraced_run(workload, seconds, ops):
    """Set-ups and passes without tracing; returns the end-to-end metrics."""
    setup_times = []
    for j in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup(j)
        setup_times.append(time.perf_counter() - t0)
    pass_times, outputs = zip(*repeat(lambda i: workload.run_pass(i, ops),
                                      workload.min_passes, seconds))
    if workload.period:
        check_repeats(outputs, ops, workload.period)
    print("set-up_s     " + " ".join(f"{t:.4f}" for t in setup_times))
    print("pass_s       " + " ".join(f"{t:.4f}" for t in pass_times))
    values = end_to_end(workload, setup_times, pass_times, ops)
    metrics = {}
    for m in BENCHMARK["end_to_end"]:
        value, n = values[m["name"]]
        print(f"{m['name']:<12} {value:.6g} {m['unit']} (n={n})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def traced_run(lp, workload, name, seed, seconds, ops):
    """Set-up 0 and every second pass traced; returns the per-layer metrics."""
    import spans

    tracer = spans.Tracer(lp)
    for j in range(SETUPS):
        with tracer.recording("setup") if j == 0 else contextlib.nullcontext():
            workload.setup(j)
    cache = [0, 0]

    def traced_pair(i):
        """An untraced pass, then the same pass traced; both must agree."""
        plain_s, plain_out = workload.run_pass(i, ops)
        hits0, lookups0 = align_cache_counts(lp.crops)
        run_id = f"pass{i}"
        with tracer.recording(run_id):
            traced_s, traced_out = workload.run_pass(i, ops)
        hits1, lookups1 = align_cache_counts(lp.crops)
        cache[0] += hits1 - hits0
        cache[1] += lookups1 - lookups0
        if traced_out != plain_out:
            ops.fail(f"pass {i}: traced output differs from the untraced one")
        # The workload's entry calls (training.train, run_ladder, cli.main) are
        # the roots; coverage is the share of the pass spent in their callees.
        pass_spans = tracer.run_spans(run_id)
        roots = {s.id for s in pass_spans if s.parent is None}
        covered = sum(s.seconds for s in pass_spans if s.parent in roots)
        return plain_s, traced_s, covered / traced_s

    plain_times, traced_times, coverage = zip(*repeat(traced_pair, workload.min_passes,
                                                      seconds))
    n_passes = len(traced_times)
    totals = tracer.totals(lambda run: 1.0 if run == "setup" else 1.0 / n_passes)

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    derived = {
        "crops.align_cache.hit_ratio": cache[0] / cache[1] if cache[1] else 0.0,
        "sinkhorn.assign.rows_per_call": ratio("sinkhorn.assign.rows", "sinkhorn.assign.calls"),
        "loss.pairs.total": totals["loss.total_loss.pairs_total"],
        "loss.pairs.contributing_ratio": ratio("loss.total_loss.pairs_contributing",
                                               "loss.total_loss.pairs_total"),
        "cluster_eval.kmeans.points": totals["cluster_eval.kmeans.points"],
        "cbfe.fg_ratio": ratio("cbfe.build_theta.fg", "cbfe.build_theta.clusters"),
        "community.graph.active_nodes": ratio("community.detect_communities.active_nodes",
                                              "community.detect_communities.calls"),
        "community.graph.edges": ratio("community.detect_communities.edges",
                                       "community.detect_communities.calls"),
        "trace.coverage": statistics.mean(coverage),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(plain_times),
    }
    metrics = {}
    for m in BENCHMARK["per_layer"]:
        value = derived[m["name"]] if m["name"] in derived else totals.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    tracer.write(common.WORK / f"trace-{name}-seed{seed}.jsonl",
                 {"workload": name, "seed": seed, "passes": n_passes,
                  "environment": environment()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lp = common.import_leopart()
    except common.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.environ.pop("LEOPART_SEED", None)  # the workload seed alone picks the inputs
    work = common.WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](lp, args.seed, work)
    ops = Ops()
    try:
        if args.trace:
            metrics = traced_run(lp, workload, args.workload, args.seed, args.seconds, ops)
        else:
            metrics = untraced_run(workload, args.seconds, ops)
    except common.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchFailure as exc:
        traceback.print_exception(exc.__cause__ or exc)
        metrics = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(ops.attempted, 1)
    print(f"error_rate   {ops.failed / attempted:.6g} (n={attempted})")
    for line in ops.failures:
        print(f"FAILED {line}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    correct = ops.failed == 0 and metrics is not None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": ops.failed,
                      "metrics": metrics or {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
