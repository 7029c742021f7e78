import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leopart import sinkhorn


def unit_rows(rng, m, d):
    rows = rng.normal(size=(m, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


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
        np.testing.assert_allclose(sinkhorn._logsumexp(a, axis), direct.astype(np.float64),
                                   rtol=1e-12)
    # far past exp's range, the shift keeps it finite
    np.testing.assert_allclose(sinkhorn._logsumexp(np.array([[1000.0, 1000.0]]), 1),
                               [1000.0 + np.log(2.0)], rtol=1e-15)


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
    assert len(q.active_rows()) == 0
    q.push(np.ones((1, 2)))
    assert len(q.active_rows()) == 5


class LoopQueue:
    """The row-at-a-time push the slice writes replaced (reference)."""

    def __init__(self, capacity):
        self.capacity, self.buf, self.fill, self.head = capacity, None, 0, 0

    def push(self, rows):
        if self.buf is None:
            self.buf = np.zeros((self.capacity, rows.shape[1]), dtype=rows.dtype)
        for row in rows[-self.capacity:]:
            self.buf[self.head] = row
            self.head = (self.head + 1) % self.capacity
            self.fill = min(self.fill + 1, self.capacity)


@pytest.mark.parametrize("capacity", [1, 5, 16])
def test_queue_push_matches_row_loop(capacity):
    """Pushes shorter and longer than the capacity, wrapping the ring buffer."""
    rng = np.random.default_rng(capacity)
    q, ref = sinkhorn.FeatureQueue(capacity=capacity), LoopQueue(capacity)
    for n in [3, 1, capacity, capacity + 4, 2, 0, 3 * capacity + 1, capacity - 1, 7]:
        rows = rng.normal(size=(n, 3))
        q.push(rows)
        ref.push(rows)
        assert (q.fill, q._head) == (ref.fill, ref.head)
        np.testing.assert_array_equal(q._buf, ref.buf)
