import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import sinkhorn


def unit_rows(rng, m, d):
    rows = rng.normal(size=(m, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along *axis*, shifted by the maximum for stability."""
    peak = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def reference_assign(rows, n_batch, prototypes, epsilon, n_iters):
    """One window's Sinkhorn-Knopp assignment with every scaling in the log
    domain (oracle): the q of its first *n_batch* rows and the plan's column
    sums."""
    z = np.asarray(rows, dtype=np.float64)
    c = np.asarray(prototypes, dtype=np.float64)
    m, k = len(z), len(c)
    log_kernel = (c @ z.T) / epsilon
    u, v = np.zeros(m), np.zeros(k)
    for _ in range(n_iters):
        v = np.log(m / k) - _logsumexp(log_kernel + u[None, :], axis=1)
        u = -_logsumexp(log_kernel + v[:, None], axis=0)
    plan = np.exp(log_kernel + u[None, :] + v[:, None])
    q = plan[:, :n_batch]
    return (q / q.sum(axis=0, keepdims=True)).T, plan.sum(axis=1)


def assert_matches_reference(out, feats, prototypes, epsilon, n_iters):
    """Each window of *feats* against the oracle run on that window alone."""
    n = feats.n_batch
    assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.plan_col_sums))
    for w, window in enumerate(feats.windows):
        q, col_sums = reference_assign(feats.rows[window], n, prototypes, epsilon, n_iters)
        assert np.abs(out.q[w * n:(w + 1) * n] - q).max() <= 1e-12 * np.abs(q).max()
        np.testing.assert_allclose(out.plan_col_sums[w], col_sums, rtol=1e-12)


def brute_force_assignment(sim: np.ndarray) -> tuple[int, ...]:
    """Max-similarity perfect matching by enumeration (oracle, square only)."""
    n = sim.shape[0]
    best, best_val = None, -np.inf
    for perm in itertools.permutations(range(n)):
        val = sum(sim[i, perm[i]] for i in range(n))
        if val > best_val:
            best, best_val = perm, val
    return best


def test_single_prototype_forced():
    rng = np.random.default_rng(0)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 6, 4))
    protos = unit_rows(rng, 1, 4)
    out = sinkhorn.assign(feats, protos)
    np.testing.assert_allclose(out.q, 1.0, atol=1e-12)


def test_orthonormal_recovers_permutation():
    protos = np.eye(4)
    perm = [2, 0, 3, 1]
    feats = sinkhorn.FeatureBatch.from_rows(protos[perm])
    out = sinkhorn.assign(feats, protos, epsilon=0.01, n_iters=100)
    expected = np.zeros((4, 4))
    expected[np.arange(4), perm] = 1.0
    np.testing.assert_allclose(out.q, expected, atol=1e-3)
    # agreement with the brute-force optimal transport on the 4x4 case
    oracle = brute_force_assignment(protos[perm] @ protos.T)
    assert list(oracle) == perm


def test_column_sums_near_equipartition():
    rng = np.random.default_rng(1)
    m, k = 64, 8
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, m, 16))
    protos = unit_rows(rng, k, 16)
    out = sinkhorn.assign(feats, protos, epsilon=0.05, n_iters=50)
    np.testing.assert_allclose(out.plan_col_sums, m / k, rtol=0.01)


def test_rows_sum_to_one():
    rng = np.random.default_rng(2)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 32, 8))
    protos = unit_rows(rng, 5, 8)
    out = sinkhorn.assign(feats, protos, n_iters=3)
    np.testing.assert_allclose(out.q.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out.q >= 0)


def test_queue_rows_shape_marginals_but_produce_no_targets():
    rng = np.random.default_rng(3)
    batch = unit_rows(rng, 10, 8)
    queue = unit_rows(rng, 30, 8)
    feats = sinkhorn.FeatureBatch.from_rows(batch, queue)
    protos = unit_rows(rng, 4, 8)
    out = sinkhorn.assign(feats, protos)
    assert out.q.shape == (10, 4)
    only_batch = sinkhorn.assign(sinkhorn.FeatureBatch.from_rows(batch), protos)
    assert not np.allclose(out.q, only_batch.q)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_marginal_violation_decreases_with_iterations(seed):
    rng = np.random.default_rng(seed)
    m, k = 40, 5
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, m, 8))
    protos = unit_rows(rng, k, 8)
    violations = []
    for iters in (1, 5, 25, 100):
        out = sinkhorn.assign(feats, protos, n_iters=iters)
        violations.append(np.abs(out.plan_col_sums - m / k).max())
    assert violations[-1] <= violations[0] + 1e-9
    assert violations[-1] < 0.01 * m / k


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 12, 6))
    protos = unit_rows(rng, 4, 6)
    perm = rng.permutation(4)
    q1 = sinkhorn.assign(feats, protos).q
    q2 = sinkhorn.assign(feats, protos[perm]).q
    np.testing.assert_allclose(q2, q1[:, perm], atol=1e-10)


def test_warns_when_fewer_features_than_prototypes():
    rng = np.random.default_rng(4)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 3, 8))
    protos = unit_rows(rng, 5, 8)
    with pytest.warns(UserWarning, match="fewer features"):
        sinkhorn.assign(feats, protos)


def test_rejects_non_finite_plan():
    rng = np.random.default_rng(5)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 6, 4))
    protos = unit_rows(rng, 3, 4)
    protos[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        sinkhorn.assign(feats, protos)


def test_logsumexp_matches_direct_sum():
    rng = np.random.default_rng(6)
    a = rng.normal(scale=30.0, size=(7, 5))
    for axis in (0, 1):
        direct = np.log(np.exp(a.astype(np.longdouble)).sum(axis=axis))
        np.testing.assert_allclose(_logsumexp(a, axis), direct.astype(np.float64),
                                   rtol=1e-12)
    # far past exp's range, the shift keeps it finite
    np.testing.assert_allclose(_logsumexp(np.array([[1000.0, 1000.0]]), 1),
                               [1000.0 + np.log(2.0)], rtol=1e-15)


@pytest.mark.parametrize("epsilon, n_iters", [(0.05, 3), (0.01, 40), (0.5, 1)])
def test_one_window_matches_log_domain_reference(epsilon, n_iters):
    rng = np.random.default_rng(7)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 12, 6), unit_rows(rng, 40, 6))
    protos = unit_rows(rng, 5, 6)
    out = sinkhorn.assign(feats, protos, epsilon, n_iters)
    assert out.q.shape == (12, 5) and out.plan_col_sums.shape == (1, 5)
    assert_matches_reference(out, feats, protos, epsilon, n_iters)


def test_windows_of_shared_rows_match_reference_per_window():
    """Ragged windows over one set of rows, as a batch's images read the
    queue: no queue rows, a warm-up window, overlapping full windows, and
    windows whose batch rows sit apart from their queue rows."""
    rng = np.random.default_rng(8)
    n = 6
    rows = unit_rows(rng, 60, 5)
    protos = unit_rows(rng, 4, 5)
    batch = [np.arange(s, s + n) for s in (0, 6, 12, 18, 24, 30, 54)]
    queue = [[], [], np.arange(40, 43), np.arange(36, 48), np.arange(30, 42),
             np.arange(42, 54), np.arange(36, 48)]
    windows = [np.concatenate([b, np.asarray(q, dtype=int)]) for b, q in zip(batch, queue)]
    feats = sinkhorn.FeatureBatch(rows, windows, n)
    for epsilon, n_iters in [(0.05, 3), (0.02, 25)]:
        out = sinkhorn.assign(feats, protos, epsilon, n_iters)
        assert out.q.shape == (len(windows) * n, 4)
        assert_matches_reference(out, feats, protos, epsilon, n_iters)


@pytest.mark.parametrize("n_iters", [1, 3, 50])
def test_min_epsilon_keeps_antipodal_kernels_finite(n_iters):
    """At the floor the log-kernel spans its full 2(1 + NORM_TOL)/ε: rows and
    prototypes are antipodal, and one prototype is far from every row."""
    e1, e2 = np.eye(2)
    mixed = np.array([e1] * 30 + [-e1] * 9 + [e2])
    same = np.array([e1] * 40)  # -e1 gets its share of the plan through e^-span alone
    for rows, protos in [(mixed, [e1, -e1]), (mixed, [e1, -e1, e2]),
                         (mixed, [-e1, -e1, -e1, e1]), (same, [e1, -e1]), (same, [-e1, e1, e2])]:
        protos = np.array(protos)
        feats = sinkhorn.FeatureBatch.from_rows(rows[:10], rows[10:])
        out = sinkhorn.assign(feats, protos, sinkhorn.MIN_EPSILON, n_iters)
        assert_matches_reference(out, feats, protos, sinkhorn.MIN_EPSILON, n_iters)


def test_min_epsilon_is_the_float64_floor():
    span = 2 * (1 + sinkhorn.NORM_TOL) / sinkhorn.MIN_EPSILON
    assert 0.005 < sinkhorn.MIN_EPSILON < 0.006
    # the widest product, e^(2 * span), is still a normal float64, and just so
    assert np.exp(-2 * span) >= np.finfo(np.float64).tiny
    assert np.exp(-2 * span * 1.001) < np.finfo(np.float64).tiny


def test_rejects_epsilon_below_floor_and_no_iterations():
    rng = np.random.default_rng(9)
    feats = sinkhorn.FeatureBatch.from_rows(unit_rows(rng, 6, 4))
    protos = unit_rows(rng, 3, 4)
    for epsilon in (sinkhorn.MIN_EPSILON * 0.99, 0.0, np.nan):
        with pytest.raises(ValueError, match="MIN_EPSILON"):
            sinkhorn.assign(feats, protos, epsilon=epsilon)
    with pytest.raises(ValueError, match="n_iters must be at least 1"):
        sinkhorn.assign(feats, protos, n_iters=0)


def test_rejects_unnormalized_rows():
    with pytest.raises(ValueError, match="unit-norm"):
        sinkhorn.FeatureBatch.from_rows(np.ones((2, 3)))


# --------------------------------------------------------------------------
# queue

def test_queue_fill():
    q = sinkhorn.FeatureQueue(capacity=100)
    q.push(np.ones((10, 4)))
    assert q.fill == 10


def test_queue_fifo_eviction():
    q = sinkhorn.FeatureQueue(capacity=2)
    a, b, c = (np.full((1, 3), v) for v in (1.0, 2.0, 3.0))
    q.push(a)
    q.push(b)
    q.push(c)
    assert q.fill == 2
    np.testing.assert_array_equal(q.snapshot(), np.concatenate([b, c]))


@pytest.mark.parametrize("capacity", [0, -3])
def test_queue_rejects_capacity_below_one(capacity):
    with pytest.raises(ValueError, match="sinkhorn.queue_capacity must be at least 1"):
        sinkhorn.FeatureQueue(capacity=capacity)


def test_queue_half_full_gate():
    q = sinkhorn.FeatureQueue(capacity=10)
    q.push(np.ones((4, 2)))
    assert q.window_lengths(1, 0).tolist() == [0]
    assert q.window_lengths(4, 1).tolist() == [0, 5, 6, 7]  # pushed one row at a time
    assert q.window_lengths(3, 4).tolist() == [0, 8, 10]  # capped at the capacity
    q.push(np.ones((1, 2)))
    assert q.window_lengths(1, 0).tolist() == [5]


class LoopQueue:
    """A ring buffer written one row at a time (reference)."""

    def __init__(self, capacity):
        self.capacity, self.buf, self.fill, self.head = capacity, None, 0, 0

    def push(self, rows):
        if self.buf is None:
            self.buf = np.zeros((self.capacity, rows.shape[1]), dtype=rows.dtype)
        for row in rows[-self.capacity:]:
            self.buf[self.head] = row
            self.head = (self.head + 1) % self.capacity
            self.fill = min(self.fill + 1, self.capacity)

    def rows(self):
        """The stored rows, oldest first."""
        if self.fill < self.capacity:
            return self.buf[:self.fill]
        return np.concatenate([self.buf[self.head:], self.buf[:self.head]])


@pytest.mark.parametrize("capacity", [1, 5, 16])
def test_queue_push_matches_row_loop(capacity):
    """Pushes shorter and longer than the capacity, wrapping the ring buffer."""
    rng = np.random.default_rng(capacity)
    q, ref = sinkhorn.FeatureQueue(capacity=capacity), LoopQueue(capacity)
    for n in [3, 1, capacity, capacity + 4, 2, 0, 3 * capacity + 1, capacity - 1, 7]:
        rows = rng.normal(size=(n, 3))
        q.push(rows)
        ref.push(rows)
        assert q.fill == ref.fill
        snapshot = q.snapshot()
        assert snapshot.dtype == ref.buf.dtype
        np.testing.assert_array_equal(snapshot, ref.rows())
