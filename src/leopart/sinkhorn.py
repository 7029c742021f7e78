"""Equi-partitioned optimal-transport soft assignments via Sinkhorn-Knopp.

A window is one span of rows: L_b queue rows, then its own n rows; the
queue rows shape the marginals but produce no targets. One call assigns
any number of windows over one set of rows S: window b's own rows are the
b-th block of n rows after an offset, and its queue rows the L_b rows just
before them. The kernel exp(S Cᵀ / ε) of every row against the prototypes
is computed once, shifted by its largest exponent (a scalar that cancels
exactly), and each window runs the scaling-domain iteration of Cuturi 2013
("Sinkhorn Distances"), as SwAV implements it, on a view of that kernel:
one scaling vector and one product per half-step. Consecutive windows of
one length lie n rows apart, so they are iterated as one stack, a strided
view of the kernel; no window's rows are copied.

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

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_EPSILON = 0.05
DEFAULT_ITERS = 3
QUEUE_CAPACITY = 8192
NORM_TOL = 1e-5
MIN_EPSILON = float(4 * (1 + NORM_TOL) / -np.log(np.finfo(np.float64).tiny))  # about 0.00565


@dataclass
class FeatureBatch:
    """M unit-norm feature rows and the assignment windows that read them.

    Window w is one span of rows: its ``queue_lengths[w]`` queue rows, then
    its ``n_batch`` own rows from row ``own_start + w * n_batch`` on. Windows
    may differ in length and share rows.
    """

    rows: np.ndarray                      # (M, D), kept as float64
    n_batch: int
    own_start: int
    queue_lengths: np.ndarray             # (W,) queue rows of each window

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.queue_lengths = np.asarray(self.queue_lengths, dtype=np.intp)
        if self.rows.ndim != 2:
            raise ValueError("rows must be (M, D)")
        lengths, n, m = self.queue_lengths, self.n_batch, len(self.rows)
        own = self.own_start + n * np.arange(lengths.size)  # first own row of each window
        if (n < 1 or lengths.ndim != 1 or not lengths.size or lengths.min() < 0
                or (own - lengths).min() < 0 or own[-1] + n > m):
            raise ValueError(f"need at least one window, each a span of queue rows and "
                             f"{n} own rows inside the {m} rows")
        deviation = np.abs(np.sqrt(np.einsum("md,md->m", self.rows, self.rows)) - 1.0)
        if deviation.size and deviation.max() > NORM_TOL:
            raise ValueError(f"feature rows must be unit-norm (max deviation {deviation.max():.2e})")

    @classmethod
    def from_rows(cls, batch_rows: np.ndarray, queue_rows: np.ndarray | None = None) -> "FeatureBatch":
        """One window: the queue rows, then the batch rows."""
        rows = np.asarray(batch_rows)
        if queue_rows is not None and len(queue_rows):
            rows = np.concatenate([queue_rows, rows], axis=0)
        held = len(rows) - len(batch_rows)
        return cls(rows, len(batch_rows), held, [held])


@dataclass
class Assignment:
    """Row-stochastic soft assignments for the own rows, window after window.

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
    toward m / K and rows toward 1, n_iters alternations, then each own
    row is normalized to a distribution over the prototypes.
    """
    if not epsilon >= MIN_EPSILON:
        raise ValueError(f"epsilon {epsilon} is below sinkhorn.MIN_EPSILON = {MIN_EPSILON:.6f}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    c = np.asarray(prototypes, dtype=np.float64)
    k, n, lengths = len(c), features.n_batch, features.queue_lengths
    # non-finite inputs surface as a non-finite plan, checked below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = features.rows @ np.ascontiguousarray(c.T)  # (M, K), built in place
        kernel /= epsilon
        kernel -= kernel.max()
        np.exp(kernel, out=kernel)
        q = np.empty((len(lengths), n, k))
        col_sums = np.empty((len(lengths), k))
        # runs [lo, hi) of windows of one length, whose spans lie n rows apart
        breaks = np.flatnonzero(np.diff(lengths)) + 1
        for lo, hi in zip([0, *breaks.tolist()], [*breaks.tolist(), len(lengths)]):
            m, first = lengths[lo] + n, features.own_start + lo * n - lengths[lo]
            kw = sliding_window_view(kernel, (m, k))[first::n][:hi - lo, 0]  # (hi - lo, m, K)
            a = np.ones((hi - lo, m))
            for _ in range(n_iters):
                b = (m / k) / (a[:, None, :] @ kw)[:, 0]
                a = 1.0 / (kw @ b[:, :, None])[:, :, 0]
            # the plan's own rows, up to a factor per row, normalized in place
            scores = np.multiply(kw[:, -n:], b[:, None, :], out=q[lo:hi])
            scores /= scores.sum(axis=2, keepdims=True)
            col_sums[lo:hi] = b * (a[:, None, :] @ kw)[:, 0]
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(col_sums))):
        raise FloatingPointError("non-finite Sinkhorn plan; inputs must be finite")
    return Assignment(q=q.reshape(-1, k), plan_col_sums=col_sums)


@dataclass
class FeatureQueue:
    """FIFO queue of past feature rows, oldest first, of one dtype.

    The queue only participates in assignment once at least half full; until
    then :meth:`window_lengths` gives every window a length of 0.
    """

    capacity: int = QUEUE_CAPACITY
    _rows: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"sinkhorn.queue_capacity must be at least 1, got {self.capacity}")

    @property
    def fill(self) -> int:
        return 0 if self._rows is None else len(self._rows)

    def push(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("expected (n, D) rows")
        if self._rows is None:
            self._rows = rows[:0].copy()
        if rows.shape[1] != self._rows.shape[1]:
            raise ValueError(f"row dim {rows.shape[1]} != queue dim {self._rows.shape[1]}")
        if rows.dtype != self._rows.dtype:
            raise ValueError(f"{rows.dtype} rows pushed onto a {self._rows.dtype} queue")
        self._rows = np.concatenate([self._rows, rows])[-self.capacity:]

    def snapshot(self) -> np.ndarray:
        """Stored rows, oldest first."""
        return np.zeros((0, 0)) if self._rows is None else self._rows.copy()

    def window_lengths(self, n_windows: int, n: int) -> np.ndarray:
        """How many stored rows each of *n_windows* windows of *n* rows sees
        when each window's rows are pushed before the next: window b sees the
        queue as it then stands, min(fill + b * n, capacity) rows, or none
        while that is below half the capacity."""
        lengths = np.minimum(self.fill + n * np.arange(n_windows), self.capacity)
        lengths[2 * lengths < self.capacity] = 0
        return lengths
