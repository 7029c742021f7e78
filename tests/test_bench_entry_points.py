"""The benchmark's hold on the package, checked without running it.

``perfbench/`` reaches into ``leopart`` by name: it traces every public
function of the layer modules, counts at some of them, swaps
``training.train_step`` for a timing wrapper and calls the pipeline with
fixed argument shapes. A rename or a signature change there would only
show when the benchmark runs; these tests show it in tier-1.
"""

import ast
import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import leopart
import leopart.cli  # noqa: F401  (imports every layer module, as the bench does)
from leopart import synth, training

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name):
    """perfbench/<name>.py, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = bench_module("spans")


def test_tracer_builds_and_observes_traced_functions():
    tracer = spans.Tracer(leopart)
    traced = {name for _, _, name in tracer.targets}
    assert "training.train_step" in traced and "sinkhorn.queue_push" in traced
    assert set(spans.OBSERVERS) <= traced, set(spans.OBSERVERS) - traced


def test_every_per_layer_time_and_call_count_names_a_traced_span():
    """A per-layer ``<span>.s``, ``.calls`` or ``.self_s`` metric of a
    function that is renamed, moved or re-exported from another module
    would read 0 without failing."""
    traced = {name for _, _, name in spans.Tracer(leopart).targets}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    untraced = [m["name"] for m in declared
                if m["name"].rsplit(".", 1)[0] not in traced
                and m["name"].endswith((".s", ".calls", ".self_s"))]
    assert untraced == []


def test_train_looks_up_train_step_as_a_module_global(tmp_path, monkeypatch):
    """The ``train`` workload times each step by replacing the module's
    ``train_step``; ``train`` must call whatever that name holds."""
    manifest, _ = synth.generate(synth.SynthSpec(n_images=4, raw_dim=16, seed=1), tmp_path)
    cfg = training.TrainConfig(epochs=2, batch_size=2, n_prototypes=4, queue_capacity=16,
                               hidden_dim=8, out_dim=8, global_grid=3, local_grid=2,
                               n_local=1, align_size=3, seed=1)
    calls = []
    step = training.train_step
    monkeypatch.setattr(training, "train_step",
                        lambda *a, **k: calls.append(1) or step(*a, **k))
    _, losses = training.train(manifest, cfg)
    assert len(calls) == len(losses) == 4


def bench_calls():
    """(file, line, dotted tail, positional count, keyword names) of every
    call in the bench scripts whose callee ends in ``<layer>.<name>`` or
    ``common.<name>``."""
    calls = []
    for script in ("run.py", "make_fixture.py"):
        tree = ast.parse((BENCH / script).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, (ast.Attribute, ast.Name))):
                continue
            owner = node.func.value
            owner = owner.attr if isinstance(owner, ast.Attribute) else owner.id
            if owner in ("common", *spans.LAYERS):
                assert not any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((script, node.lineno, f"{owner}.{node.func.attr}",
                              len(node.args), [kw.arg for kw in node.keywords]))
    return calls


def test_bench_call_shapes_bind_to_the_current_signatures(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test; ``common`` pins them
    common = bench_module("common")
    calls = bench_calls()
    for script, line, name, n_args, keywords in calls:
        owner, attr = name.split(".")
        module = common if owner == "common" else getattr(leopart, owner)
        fn = getattr(module, attr, None)
        assert fn is not None, f"perfbench/{script}:{line}: {name} does not exist"
        if not (inspect.isfunction(fn) or dataclasses.is_dataclass(fn)):
            continue  # common.BenchSetupError, an exception class
        try:
            inspect.signature(fn).bind(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/{script}:{line}: {name} call does not bind: {exc}")
    called = {name for _, _, name, _, _ in calls}
    assert {"pipeline.run_ladder", "cluster_eval.overcluster_eval", "pipeline.embed_dataset",
            "common.acceptance_train_config", "pipeline.load_dataset"} <= called
    assert isinstance(common.acceptance_train_config(seed=0, epochs=1), training.TrainConfig)
