"""Equi-partitioned optimal-transport soft assignments via Sinkhorn-Knopp.

Assignments are computed jointly over the current batch rows plus a FIFO
feature queue; queue rows shape the marginals but produce no targets. All
scalings run in the log domain so small regularization values cannot
underflow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPSILON = 0.05
DEFAULT_ITERS = 3
QUEUE_CAPACITY = 8192
NORM_TOL = 1e-5


@dataclass
class FeatureBatch:
    """M unit-norm feature rows with per-row batch/queue provenance."""

    rows: np.ndarray                      # (M, D)
    is_batch: np.ndarray                  # (M,) bool; False marks queue rows

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows)
        self.is_batch = np.asarray(self.is_batch, dtype=bool)
        if self.rows.ndim != 2 or self.is_batch.shape != (self.rows.shape[0],):
            raise ValueError("rows must be (M, D) with one provenance flag per row")
        norms = np.linalg.norm(self.rows.astype(np.float64), axis=1)
        if norms.size and np.abs(norms - 1.0).max() > NORM_TOL:
            raise ValueError(
                f"feature rows must be unit-norm (max deviation {np.abs(norms - 1).max():.2e})"
            )

    @classmethod
    def from_rows(cls, batch_rows: np.ndarray, queue_rows: np.ndarray | None = None) -> "FeatureBatch":
        if queue_rows is None or len(queue_rows) == 0:
            rows = np.asarray(batch_rows)
            flags = np.ones(len(rows), dtype=bool)
        else:
            rows = np.concatenate([batch_rows, queue_rows], axis=0)
            flags = np.zeros(len(rows), dtype=bool)
            flags[: len(batch_rows)] = True
        return cls(rows, flags)


@dataclass
class Assignment:
    """Row-stochastic soft assignments for the batch rows.

    ``plan_col_sums`` are the column sums of the pre-normalization transport
    plan over *all* rows; at convergence each approaches M / K.
    """

    q: np.ndarray
    plan_col_sums: np.ndarray


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along *axis*, shifted by the maximum for stability."""
    peak = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def assign(features: FeatureBatch, prototypes: np.ndarray,
           epsilon: float = DEFAULT_EPSILON, n_iters: int = DEFAULT_ITERS) -> Assignment:
    """Sinkhorn-Knopp assignment of feature rows to prototypes.

    The transport kernel is exp((Z C^T) / epsilon); rows are scaled toward
    marginal 1 and columns toward M / K, n_iters alternations, then each
    returned row is normalized to a distribution. Only batch-tagged rows are
    returned.
    """
    prototypes = np.asarray(prototypes)
    z = features.rows.astype(np.float64)
    c = prototypes.astype(np.float64)
    m, k = len(z), len(c)
    if m < k:
        warnings.warn(f"fewer features ({m}) than prototypes ({k}); "
                      "equipartition is unattainable", stacklevel=2)
    # prototypes x rows, so that both scalings reduce along contiguous memory
    log_kernel = (c @ z.T) / epsilon
    log_col_target = np.log(m / k)
    u = np.zeros(m)
    v = np.zeros(k)
    for _ in range(n_iters):
        v = log_col_target - _logsumexp(log_kernel + u[None, :], axis=1)
        u = -_logsumexp(log_kernel + v[:, None], axis=0)
    log_plan = log_kernel + u[None, :] + v[:, None]
    if not np.all(np.isfinite(log_plan)):
        raise FloatingPointError("non-finite Sinkhorn plan; inputs must be finite")
    plan = np.exp(log_plan)
    q = plan[:, features.is_batch]
    q = q / q.sum(axis=0, keepdims=True)
    return Assignment(q=q.T, plan_col_sums=plan.sum(axis=1))


@dataclass
class FeatureQueue:
    """FIFO ring buffer of past feature rows.

    The queue only participates in assignment once at least half full; until
    then :meth:`active_rows` returns nothing.
    """

    capacity: int = QUEUE_CAPACITY
    dim: int | None = None
    _buf: np.ndarray | None = field(default=None, repr=False)
    _fill: int = 0
    _head: int = 0  # next write slot

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"sinkhorn.queue_capacity must be at least 1, got {self.capacity}")

    @property
    def fill(self) -> int:
        return self._fill

    def push(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("expected (n, D) rows")
        if self.dim is None:
            self.dim = rows.shape[1]
            self._buf = np.zeros((self.capacity, self.dim), dtype=rows.dtype)
        if rows.shape[1] != self.dim:
            raise ValueError(f"row dim {rows.shape[1]} != queue dim {self.dim}")
        rows = rows[-self.capacity:]
        n = len(rows)
        first = min(n, self.capacity - self._head)  # up to the end of the buffer
        self._buf[self._head:self._head + first] = rows[:first]
        self._buf[:n - first] = rows[first:]  # the rest wraps to the front
        self._head = (self._head + n) % self.capacity
        self._fill = min(self._fill + n, self.capacity)

    def snapshot(self) -> np.ndarray:
        """Stored rows, oldest first."""
        if self._buf is None or self._fill == 0:
            return np.zeros((0, self.dim or 0))
        if self._fill < self.capacity:
            return self._buf[: self._fill].copy()
        return np.roll(self._buf, -self._head, axis=0)

    def active_rows(self) -> np.ndarray:
        if self._fill * 2 < self.capacity:
            return np.zeros((0, self.dim or 0))
        return self.snapshot()
