"""Equi-partitioned optimal-transport soft assignments via Sinkhorn-Knopp.

Each assignment window holds n batch rows followed by queue rows; the
queue rows shape the marginals but produce no targets. One call assigns
any number of windows that index one set of rows: the kernel
exp(Z Cᵀ / ε) of every row against the prototypes is computed once,
shifted by its largest exponent (a scalar that cancels exactly), and each
window runs the scaling-domain iteration of Cuturi 2013 ("Sinkhorn
Distances"), as SwAV implements it, on its own rows of that kernel.
Windows of one length are iterated as one stack.

The scaling domain needs a floor on ε, ``MIN_EPSILON``. Rows are unit-norm
to ``NORM_TOL`` and prototypes unit-norm, so the log-kernel spans at most
R = 2(1 + NORM_TOL)/ε. The row scaling a starts at 1, and its update
(through b) is monotone and commutes with multiplying a by a constant, so
it is non-expansive in the max norm of log a; as a fixed point spans at
most R in log a, every iterate keeps |log a| <= R. Then b lies in
[e^-R / K, e^2R], and every kernel entry, scaling, product and sum the
iteration forms lies in [e^-2R / K, e^2R] (for M < e^R). That is finite
and nonzero in float64 while 2R stays below -log(tiny) = 708.4, the
exponent of the smallest normal number (subnormals absorb the 1/K), which
gives the floor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPSILON = 0.05
DEFAULT_ITERS = 3
QUEUE_CAPACITY = 8192
NORM_TOL = 1e-5
MIN_EPSILON = float(4 * (1 + NORM_TOL) / -np.log(np.finfo(np.float64).tiny))  # about 0.00565


@dataclass
class FeatureBatch:
    """M unit-norm feature rows and the assignment windows that read them.

    Window w is the rows ``rows[windows[w]]``: its ``n_batch`` batch rows
    first, then its queue rows. Windows may differ in length and share rows.
    """

    rows: np.ndarray                      # (M, D), kept as float64
    windows: list[np.ndarray]             # each (n_batch + queue rows,) indices into rows
    n_batch: int

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.windows = [np.asarray(w, dtype=np.intp) for w in self.windows]
        if self.rows.ndim != 2:
            raise ValueError("rows must be (M, D)")
        if not self.windows or any(w.ndim != 1 or len(w) < self.n_batch for w in self.windows):
            raise ValueError("need at least one window, each a 1-D index array "
                             "that starts with its batch rows")
        deviation = np.abs(np.sqrt(np.einsum("md,md->m", self.rows, self.rows)) - 1.0)
        if deviation.size and deviation.max() > NORM_TOL:
            raise ValueError(f"feature rows must be unit-norm (max deviation {deviation.max():.2e})")

    @classmethod
    def from_rows(cls, batch_rows: np.ndarray, queue_rows: np.ndarray | None = None) -> "FeatureBatch":
        """One window: the batch rows, then the queue rows."""
        rows = np.asarray(batch_rows)
        if queue_rows is not None and len(queue_rows):
            rows = np.concatenate([rows, queue_rows], axis=0)
        return cls(rows, [np.arange(len(rows))], len(batch_rows))


@dataclass
class Assignment:
    """Row-stochastic soft assignments for the batch rows, window after window.

    ``q`` is (W * n_batch, K). ``plan_col_sums`` (W, K) are the column sums
    of each window's pre-normalization transport plan over *all* its rows;
    at convergence each approaches (window length) / K.
    """

    q: np.ndarray
    plan_col_sums: np.ndarray


def assign(features: FeatureBatch, prototypes: np.ndarray,
           epsilon: float = DEFAULT_EPSILON, n_iters: int = DEFAULT_ITERS) -> Assignment:
    """Sinkhorn-Knopp assignment of each window's rows to the prototypes.

    The transport kernel is exp((Z C^T) / epsilon); in each window of m rows
    the plan diag(a) K diag(b) (rows x prototypes) is scaled with columns
    toward m / K and rows toward 1, n_iters alternations, then each batch
    row is normalized to a distribution over the prototypes.
    """
    if not epsilon >= MIN_EPSILON:
        raise ValueError(f"epsilon {epsilon} is below sinkhorn.MIN_EPSILON = {MIN_EPSILON:.6f}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    c = np.asarray(prototypes, dtype=np.float64)
    k, n = len(c), features.n_batch
    lengths = np.array([len(w) for w in features.windows])
    if lengths.min() < k:
        warnings.warn(f"fewer features ({lengths.min()}) than prototypes ({k}); "
                      "equipartition is unattainable", stacklevel=2)
    # non-finite inputs surface as a non-finite plan, checked below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_kernel = (features.rows @ np.ascontiguousarray(c.T)) / epsilon
        kernel = np.exp(log_kernel - log_kernel.max())  # (M, K)
        q = np.empty((len(lengths), n, k))
        col_sums = np.empty((len(lengths), k))
        for m in np.unique(lengths):
            sel = np.flatnonzero(lengths == m)
            kw = np.take(kernel, np.stack([features.windows[w] for w in sel]), axis=0)  # (W, m, K)
            a = np.ones((len(sel), m))
            for _ in range(n_iters):
                b = (m / k) / (a[:, None, :] @ kw)[:, 0]
                a = 1.0 / (kw @ b[:, :, None])[:, :, 0]
            scores = kw[:, :n] * b[:, None, :]  # the plan's batch rows, up to a factor per row
            q[sel] = scores / scores.sum(axis=2, keepdims=True)
            col_sums[sel] = b * (a[:, None, :] @ kw)[:, 0]
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(col_sums))):
        raise FloatingPointError("non-finite Sinkhorn plan; inputs must be finite")
    return Assignment(q=q.reshape(-1, k), plan_col_sums=col_sums)


@dataclass
class FeatureQueue:
    """FIFO ring buffer of past feature rows.

    The queue only participates in assignment once at least half full; until
    then :meth:`window_lengths` gives every window a length of 0.
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

    def window_lengths(self, n_windows: int, n: int) -> np.ndarray:
        """How many stored rows each of *n_windows* windows of *n* rows sees
        when each window's rows are pushed before the next: window b sees the
        queue as it then stands, min(fill + b * n, capacity) rows, or none
        while that is below half the capacity."""
        lengths = np.minimum(self._fill + n * np.arange(n_windows), self.capacity)
        lengths[2 * lengths < self.capacity] = 0
        return lengths
