"""Span tracing of leopart's layers from outside the package.

While a ``Tracer.recording`` block is open, every public module-level
function of the traced modules (plus ``sinkhorn.FeatureQueue.push``, and the
entries of dispatch tables such as ``cli.COMMANDS``) is replaced by a wrapper that records a span: name, start, end, the span that
called it and the run id. The wrappers pass arguments and results through
untouched and are removed when the block closes, so untraced code runs the
unmodified program. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FIELDS = ("id", "name", "start", "end", "parent", "run", "counts")
LAYERS = ("attention", "cbfe", "cli", "cluster_eval", "community", "crops", "loss",
          "model", "optim", "pipeline", "sinkhorn", "synth", "tensor_io", "training")


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _graph_counts(args, kwargs, result):
    graph = _first_arg(args, kwargs)
    return {"active_nodes": int((graph.degrees() > 0).sum()),
            "edges": int(np.count_nonzero(graph.weights)) // 2}


def _pair_counts(args, kwargs, result):
    diag = result[2]
    return {"pairs_total": diag.n_pairs_total,
            "pairs_contributing": diag.n_pairs_contributing}


# Counts recorded at a layer boundary, taken from the call's arguments or
# result: span name -> f(args, kwargs, result) -> {count name: value}.
OBSERVERS = {
    "sinkhorn.assign": lambda a, k, r: {"rows": len(_first_arg(a, k).rows)},
    "loss.total_loss": _pair_counts,
    "cluster_eval.kmeans": lambda a, k, r: {"points": len(_first_arg(a, k))},
    "cbfe.build_theta": lambda a, k, r: {"clusters": len(r.theta), "fg": int(r.theta.sum())},
    "community.detect_communities": _graph_counts,
    "tensor_io.write_tensor": lambda a, k, r: {"bytes": int(np.asarray(_first_arg(a, k)).nbytes)},
}


def _namespace(owner) -> dict:
    return owner if isinstance(owner, dict) else vars(owner)


def _store(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Span:
    """One traced call; ``parent`` is the id of the traced call that made it."""

    __slots__ = FIELDS

    def __init__(self, id, name, parent, run):
        self.id, self.name, self.parent, self.run = id, name, parent, run
        self.start = self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the layers of one imported ``leopart`` package."""

    def __init__(self, package):
        # (owner, key, span name); an owner is a module dict, a dispatch table or a class
        self.targets = []
        for layer in LAYERS:
            module = getattr(package, layer)
            public = {fn: attr for attr, fn in vars(module).items()
                      if not attr.startswith("_") and inspect.isfunction(fn)
                      and fn.__module__ == module.__name__}
            self.targets += [(vars(module), attr, f"{layer}.{attr}") for attr in public.values()]
            # dispatch tables such as cli.COMMANDS hold their own references
            for table in vars(module).values():
                if isinstance(table, dict):
                    self.targets += [(table, key, f"{layer}.{public[fn]}")
                                     for key, fn in table.items()
                                     if inspect.isfunction(fn) and fn in public]
        self.targets.append((package.sinkhorn.FeatureQueue, "push", "sinkhorn.queue_push"))
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run: str | None = None

    @contextmanager
    def recording(self, run_id: str):
        """Trace every call into the layers made inside the block."""
        originals = [_namespace(owner)[key] for owner, key, _ in self.targets]
        for (owner, key, name), fn in zip(self.targets, originals):
            _store(owner, key, self._wrap(name, fn))
        self._run = run_id
        try:
            yield
        finally:
            self._run = None
            for (owner, key, _), fn in zip(self.targets, originals):
                _store(owner, key, fn)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self._run)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            return result

        return traced

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run == run_id]

    def totals(self, weight) -> dict[str, float]:
        """Per-layer sums over all spans, each span scaled by ``weight(run_id)``.

        Keys are ``<span>.calls``, ``<span>.s`` (busy time), ``<span>.self_s``
        (busy time minus the time of traced callees) and ``<span>.<count>``.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            w = weight(s.run)
            out[f"{s.name}.calls"] += w
            out[f"{s.name}.s"] += w * s.seconds
            out[f"{s.name}.self_s"] += w * (s.seconds - child_time[s.id])
            for key, value in (s.counts or {}).items():
                out[f"{s.name}.{key}"] += w * value
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write a header line, then one JSON array per span in ``FIELDS`` order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": FIELDS}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([getattr(s, f) for f in FIELDS]) + "\n")
