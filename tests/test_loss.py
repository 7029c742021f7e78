"""Hand oracles and finite-difference checks for the swapped-prediction loss."""

import itertools

import numpy as np
import pytest

from leopart import attention, crops, loss, model, sinkhorn, training
from test_sinkhorn import reference_assign


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def random_simplex_grid(rng, k, h, w):
    q = rng.uniform(0.1, 1.0, size=(k, h, w))
    return q / q.sum(axis=0, keepdims=True)


# ------------------------------------------------- softmax cross entropy


def test_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    k, h, w, tau = 5, 4, 3, 0.1
    logits = rng.normal(size=(k, h, w))
    targets = random_simplex_grid(rng, k, h, w)
    mask = (rng.uniform(size=(h, w)) < 0.7).astype(np.float64)
    mask[0, 0] = 1.0  # keep at least one active cell
    got, _, n_active = loss.softmax_cross_entropy_grid(logits, targets, mask, tau)

    total, count = 0.0, 0
    for r in range(h):
        for c in range(w):
            if mask[r, c] == 0:
                continue
            s = [logits[j, r, c] / tau for j in range(k)]
            norm = sum(np.exp(v) for v in s)
            ce = -sum(targets[j, r, c] * np.log(np.exp(s[j]) / norm) for j in range(k))
            total += ce
            count += 1
    assert n_active == count
    assert got == pytest.approx(total / count, abs=1e-6)


def test_cross_entropy_perfect_prediction_is_near_zero():
    k, h, w = 6, 2, 2
    hot = np.zeros((k, h, w))
    hot[2] = 1.0
    logits = 30.0 * hot  # softmax at tau=1 puts ~all mass on channel 2
    val, g, _ = loss.softmax_cross_entropy_grid(logits, hot, np.ones((h, w)), 1.0)
    assert val < 1e-8
    assert np.max(np.abs(g)) < 1e-8


def test_cross_entropy_uniform_is_log_k():
    k, h, w = 7, 3, 3
    logits = np.zeros((k, h, w))
    targets = np.full((k, h, w), 1.0 / k)
    val, _, _ = loss.softmax_cross_entropy_grid(logits, targets, np.ones((h, w)), 0.1)
    assert val == pytest.approx(np.log(k), rel=1e-12)


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(1)
    k, h, w = 4, 3, 2
    logits = rng.normal(size=(k, h, w))
    targets = random_simplex_grid(rng, k, h, w)
    mask = np.ones((h, w))
    base, g0, _ = loss.softmax_cross_entropy_grid(logits, targets, mask, 0.1)
    shifted, g1, _ = loss.softmax_cross_entropy_grid(logits + 3.7, targets, mask, 0.1)
    assert shifted == pytest.approx(base, rel=1e-10)
    assert np.allclose(g0, g1, atol=1e-10)


def test_cross_entropy_empty_mask_contributes_nothing():
    logits = np.ones((3, 2, 2))
    targets = np.full((3, 2, 2), 1 / 3)
    val, g, n = loss.softmax_cross_entropy_grid(logits, targets, np.zeros((2, 2)), 0.1)
    assert (val, n) == (0.0, 0)
    assert np.all(g == 0.0)


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(2)
    k, h, w, tau = 5, 3, 3, 0.25
    logits = rng.normal(size=(k, h, w))
    targets = random_simplex_grid(rng, k, h, w)
    mask = (rng.uniform(size=(h, w)) < 0.6).astype(np.float64)
    mask[1, 1] = 1.0
    _, g, _ = loss.softmax_cross_entropy_grid(logits, targets, mask, tau)
    eps = 1e-6
    fd = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        lp = logits.copy(); lp[idx] += eps
        lm = logits.copy(); lm[idx] -= eps
        up, _, _ = loss.softmax_cross_entropy_grid(lp, targets, mask, tau)
        dn, _, _ = loss.softmax_cross_entropy_grid(lm, targets, mask, tau)
        fd[idx] = (up - dn) / (2 * eps)
    assert rel_err(g, fd) < 1e-7




def test_cross_entropy_stack_matches_each_grid():
    rng = np.random.default_rng(12)
    k, h, w, tau = 4, 3, 2, 0.2
    logits = rng.normal(size=(3, k, h, w))
    targets = np.stack([random_simplex_grid(rng, k, h, w) for _ in range(3)])
    mask = (rng.uniform(size=(3, h, w)) < 0.6).astype(np.float64)
    mask[2] = 0.0
    losses, g, n_active = loss.softmax_cross_entropy_grid(logits, targets, mask, tau)
    for p in range(3):
        one, g_one, n_one = loss.softmax_cross_entropy_grid(logits[p], targets[p], mask[p], tau)
        assert losses[p] == pytest.approx(one, rel=1e-12)
        assert n_active[p] == n_one
        np.testing.assert_allclose(g[p], g_one, rtol=1e-12)
    assert (losses[2], n_active[2]) == (0.0, 0)


# ------------------------------------------------- pair loss


def test_pair_loss_identity_boxes_match_direct_ce():
    """With full boxes and matching grids, alignment is exact resampling-free."""
    rng = np.random.default_rng(3)
    k, n = 4, 7
    logits = rng.normal(size=(1, k, n, n))
    q = random_simplex_grid(rng, k, n, n)[None]
    full = np.array([crops.FULL_BOX])
    got, _, n_active = loss.pair_loss(logits, q, full, full, np.ones((1, n, n)),
                                      tau=0.1, out_size=n)
    direct, _, _ = loss.softmax_cross_entropy_grid(logits[0], q[0], np.ones((n, n)), 0.1)
    assert n_active[0] == n * n
    assert got[0] == pytest.approx(direct, rel=1e-10)


def test_pair_loss_grad_matches_fd_through_alignment():
    rng = np.random.default_rng(4)
    k = 3
    logits = rng.normal(size=(2, k, 5, 5))
    q = np.stack([random_simplex_grid(rng, k, 4, 4) for _ in range(2)])
    box_pred = np.array([(0.1, 0.2, 0.8, 0.9), (0.0, 0.0, 0.5, 0.6)])
    box_target = np.array([(0.0, 0.25, 0.7, 0.95), (0.3, 0.2, 1.0, 0.9)])
    fg = np.ones((2, 4, 4))
    fg[0, 0, :] = 0.0
    fg[1, :, 3] = 0.0

    def scalar(lg):
        return loss.pair_loss(lg, q, box_pred, box_target, fg, tau=0.2, out_size=3)[0].sum()

    _, g, _ = loss.pair_loss(logits, q, box_pred, box_target, fg, tau=0.2, out_size=3)
    eps = 1e-6
    fd = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        lp = logits.copy(); lp[idx] += eps
        lm = logits.copy(); lm[idx] -= eps
        fd[idx] = (scalar(lp) - scalar(lm)) / (2 * eps)
    assert rel_err(g, fd) < 1e-6


# ------------------------------------------------- per-image reference
#
# The per-image loss that the batched one replaced: one forward per crop, one
# pair at a time, one Sinkhorn and one backward per image, the queue push
# after each image. Kept as the oracle for the batched path.


def reference_pair_loss(pred_logits, target_q, box_pred, box_target, fg_mask, tau, out_size):
    aligned_pred = crops.align(pred_logits, box_pred, out_size, out_size)
    aligned_q = crops.align(target_q, box_target, out_size, out_size)
    if fg_mask is None:
        mask = np.ones((out_size, out_size))
    else:
        mask = attention.align_mask(fg_mask, box_target, out_size, out_size).astype(np.float64)
    val, g_aligned, n_active = loss.softmax_cross_entropy_grid(aligned_pred, aligned_q, mask, tau)
    _, h, w = pred_logits.shape
    return float(val), crops.align_backward(g_aligned, box_pred, h, w), int(n_active)


def reference_compute_targets(views, n_global, teacher, prototypes, queue, epsilon, n_iters):
    feats, shapes = [], []
    for raw_grid in views[:n_global]:
        d, h, w = raw_grid.shape
        tokens = model.encoder_forward(raw_grid.reshape(d, h * w).T, teacher)
        feats.append(model.project(tokens, teacher))
        shapes.append((h, w))
    rows = np.concatenate(feats, axis=0)
    # the queue takes part once at least half full
    queue_rows = (queue.snapshot() if queue is not None and 2 * queue.fill >= queue.capacity
                  else None)
    q = sinkhorn.assign(sinkhorn.FeatureBatch.from_rows(rows, queue_rows), prototypes,
                        epsilon=epsilon, n_iters=n_iters).q
    grids, offset = [], 0
    for h, w in shapes:
        grids.append(q[offset:offset + h * w].T.reshape(-1, h, w).astype(rows.dtype))
        offset += h * w
    return grids, rows


def reference_loss_given_targets(views, n_global, boxmat, params, target_grids, masks,
                                 tau, out_size):
    diag = loss.PairDiagnostics()
    forwards = []
    for raw_grid in views:
        logits, cache = model.forward_crop([raw_grid[None]], params)
        forwards.append((logits[0][0], cache))
    logit_grads = [np.zeros_like(f[0]) for f in forwards]
    raw_loss = 0.0
    for j in range(n_global):
        for i in range(len(views)):
            if i == j:
                continue
            diag.n_pairs_total += 1
            if boxmat[i][j] is None:
                diag.n_empty_intersections += 1
                continue
            val, g_pred, n_active = reference_pair_loss(
                forwards[i][0], target_grids[j], boxmat[i][j], boxmat[j][i], masks[j],
                tau, out_size)
            if n_active == 0:
                diag.n_fully_masked += 1
                continue
            diag.n_pairs_contributing += 1
            raw_loss += val
            logit_grads[i] += g_pred
    n = max(diag.n_pairs_contributing, 1)
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for (_, cache), g_grid in zip(forwards, logit_grads):
        if np.any(g_grid):
            for name, g in model.backward_crop([g_grid[None] / n], cache, params).items():
                grads[name] = grads[name] + g
    return raw_loss / n, grads, diag


def image_crops(batch, b):
    """Image b of a CropBatch as the reference takes it: view grids, nested
    intersection boxes (None where empty) and one mask (or None) per global."""
    views = list(batch.global_raw[b]) + list(batch.local_raw[b])
    boxmat = [[None if np.isnan(box[0]) else tuple(box) for box in row]
              for row in batch.boxes[b]]
    masks = [None if m.all() else m for m in batch.masks[b]]
    return views, boxmat, masks


def reference_total_loss(batch, student, teacher, queue, tau, epsilon, n_iters,
                         out_size=loss.ALIGN_SIZE):
    """The batch mean of the per-image losses, as the per-image trainer took it."""
    n_img, n_global = batch.global_raw.shape[:2]
    total, diag = 0.0, loss.PairDiagnostics()
    grads = {name: np.zeros_like(p) for name, p in student.items()}
    for b in range(n_img):
        views, boxmat, masks = image_crops(batch, b)
        targets, rows = reference_compute_targets(views, n_global, teacher,
                                                  student["prototypes"], queue,
                                                  epsilon, n_iters)
        val, img_grads, img_diag = reference_loss_given_targets(
            views, n_global, boxmat, student, targets, masks, tau, out_size)
        if queue is not None:
            queue.push(rows.astype(np.float32))
        total += val
        grads = {name: g + img_grads[name] for name, g in grads.items()}
        for field in vars(diag):
            setattr(diag, field, getattr(diag, field) + getattr(img_diag, field))
    return total / n_img, {name: g / n_img for name, g in grads.items()}, diag


# ------------------------------------------------- batched loss


def make_batch(rng, boxes_per_image, raw_dim=8, g=3, l=3, masks=None, n_global=2):
    """A CropBatch over hand-placed (x0, y0, x1, y1) boxes, globals first."""
    n_img = len(boxes_per_image)
    views = len(boxes_per_image[0])
    return loss.CropBatch(
        global_raw=rng.normal(size=(n_img, n_global, raw_dim, g, g)),
        local_raw=rng.normal(size=(n_img, views - n_global, raw_dim, l, l)),
        boxes=crops.pair_boxes(np.array(boxes_per_image, dtype=np.float64)),
        masks=(np.ones((n_img, n_global, g, g), dtype=np.uint8) if masks is None
               else masks),
    )


def overlapping_boxes(n_global=2, n_local=2):
    """Crop boxes that all pairwise intersect."""
    boxes = [(0.05 * i, 0.05 * i, 0.7 + 0.05 * i, 0.7 + 0.05 * i) for i in range(n_global)]
    boxes += [(0.2 + 0.04 * i, 0.25, 0.6 + 0.04 * i, 0.65) for i in range(n_local)]
    return boxes


DISJOINT_BOXES = [
    (0.0, 0.0, 0.45, 0.45),  # global
    (0.0, 0.0, 0.5, 0.5),    # global
    (0.6, 0.6, 0.9, 0.9),    # local, off in a corner
]


def make_params(raw_dim=8, k=5, seed=0):
    dims = model.ModelDims(raw_dim=raw_dim, token_dim=raw_dim, hidden_dim=16,
                           out_dim=8, n_prototypes=k)
    rng = np.random.default_rng(seed)
    return (model.init_params(dims, rng, dtype=np.float64),
            model.init_params(dims, rng, dtype=np.float64))


def test_pair_counts_two_globals():
    rng = np.random.default_rng(5)
    student, teacher = make_params()
    batch = make_batch(rng, [overlapping_boxes(2, 0)])
    total, grads, diag = loss.total_loss(batch, student, teacher, None,
                                         tau=0.1, epsilon=0.05, n_iters=3, out_size=3)
    assert diag.n_pairs_total == 2
    assert diag.n_pairs_contributing == 2
    assert np.isfinite(total)
    assert set(grads) == set(student)


def test_pair_counts_two_globals_four_locals():
    rng = np.random.default_rng(6)
    student, teacher = make_params()
    batch = make_batch(rng, [overlapping_boxes(2, 4)] * 3)
    _, _, diag = loss.total_loss(batch, student, teacher, None,
                                 tau=0.1, epsilon=0.05, n_iters=3, out_size=3)
    # each of 2 targets is predicted by the 5 other crops, in each of 3 images
    assert diag.n_pairs_total == 30
    assert diag.n_pairs_contributing == 30


def test_disjoint_pairs_are_skipped():
    rng = np.random.default_rng(7)
    student, teacher = make_params()
    batch = make_batch(rng, [DISJOINT_BOXES])
    _, _, diag = loss.total_loss(batch, student, teacher, None,
                                 tau=0.1, epsilon=0.05, n_iters=3, out_size=3)
    assert diag.n_pairs_total == 4
    assert diag.n_empty_intersections == 2
    assert diag.n_pairs_contributing == 2


def test_targets_are_row_stochastic_grids():
    rng = np.random.default_rng(8)
    _, teacher = make_params()
    student, _ = make_params(seed=1)
    batch = make_batch(rng, [overlapping_boxes(2, 1)] * 2)
    grids, rows = loss.compute_targets(batch, teacher, student["prototypes"],
                                       None, epsilon=0.05, n_iters=3)
    assert grids.shape == (2, 2, 5, 3, 3)
    assert np.allclose(grids.sum(axis=2), 1.0, atol=1e-6)
    assert rows.shape == (2, 2 * 9, 8)
    assert np.allclose(np.linalg.norm(rows, axis=2), 1.0, atol=1e-5)


def test_total_loss_leaves_teacher_untouched():
    rng = np.random.default_rng(9)
    student, teacher = make_params()
    before = {k: v.copy() for k, v in teacher.items()}
    batch = make_batch(rng, [overlapping_boxes()])
    _, grads, _ = loss.total_loss(batch, student, teacher, None,
                                  tau=0.1, epsilon=0.05, n_iters=3)
    for name, v in teacher.items():
        assert np.array_equal(v, before[name])
    # no gradient entries for teacher-only scopes
    assert set(grads) == set(student)


def test_queue_rows_change_targets():
    rng = np.random.default_rng(10)
    student, teacher = make_params()
    batch = make_batch(rng, [overlapping_boxes(2, 0)] * 2)
    empty, rows = loss.compute_targets(batch, teacher, student["prototypes"], None,
                                       epsilon=0.05, n_iters=3)
    queue = sinkhorn.FeatureQueue(capacity=64)
    extra = rng.normal(size=(32, 8))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    queue.push(extra.astype(np.float32))  # half full: active from the first image on
    with_queue, _ = loss.compute_targets(batch, teacher, student["prototypes"], queue,
                                         epsilon=0.05, n_iters=3)
    assert not np.allclose(empty[0], with_queue[0], atol=1e-6)
    # both images' 18 rows went in, image 0's first
    np.testing.assert_array_equal(queue.snapshot()[-36:],
                                  rows.reshape(36, 8).astype(np.float32))


def per_image_targets(batch, teacher, prototypes, queue, epsilon, n_iters):
    """compute_targets as a loop (oracle): each image is assigned, in the log
    domain, against the queue's rows once it is at least half full, and
    pushed before the next."""
    n_img, n_glob, raw_dim, g, _ = batch.global_raw.shape
    raw = batch.global_raw.transpose(0, 1, 3, 4, 2).reshape(-1, raw_dim)
    rows = model.project(model.encoder_forward(raw, teacher), teacher)
    targets = []
    for img_rows in rows.reshape(n_img, n_glob * g * g, -1):
        held = (queue.snapshot() if queue is not None and 2 * queue.fill >= queue.capacity
                else img_rows[:0])
        window = np.concatenate([img_rows, held]) if len(held) else img_rows
        targets.append(reference_assign(window, len(img_rows), prototypes, epsilon, n_iters)[0])
        if queue is not None:
            queue.push(img_rows.astype(np.float32))
    q = np.stack(targets).reshape(n_img, n_glob, g, g, -1).transpose(0, 1, 4, 2, 3)
    return q.astype(rows.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("capacity", [None, 1, 7, 16, 18, 49, 50, 64, 100, 512])
def test_compute_targets_matches_per_image_loop(capacity, dtype):
    """Three steps from an empty queue: the half-full gate (exactly half full
    at capacity 18), ragged warm-up windows, a capacity below one image's
    rows, capacity 1 and wrap-around."""
    student, teacher = make_params(seed=4)
    teacher = {name: p.astype(dtype) for name, p in teacher.items()}
    for n_img, n_glob in itertools.product(range(1, 6), (1, 2)):
        rng = np.random.default_rng([n_img, n_glob])
        queue, ref_queue = (None, None) if capacity is None else (
            sinkhorn.FeatureQueue(capacity=capacity), sinkhorn.FeatureQueue(capacity=capacity))
        for _ in range(3):
            batch = make_batch(rng, [overlapping_boxes(n_glob, 1)] * n_img, n_global=n_glob)
            batch.global_raw = batch.global_raw.astype(dtype)
            got, _ = loss.compute_targets(batch, teacher, student["prototypes"], queue,
                                          epsilon=0.05, n_iters=3)
            want = per_image_targets(batch, teacher, student["prototypes"], ref_queue,
                                     epsilon=0.05, n_iters=3)
            assert got.dtype == want.dtype == dtype
            tol = 1e-12 if dtype == np.float64 else 1e-6
            assert np.abs(got - want).max() <= tol, (n_img, n_glob)
            if queue is not None:
                assert queue.fill == ref_queue.fill
                np.testing.assert_array_equal(queue.snapshot(), ref_queue.snapshot())


def test_batched_loss_matches_per_image_reference():
    """Same loss, gradients and pair counts as the per-image reference, for a
    batch with an empty intersection and a fully masked pair."""
    rng = np.random.default_rng(13)
    student, teacher = make_params(seed=3)
    masks = np.ones((2, 2, 3, 3), dtype=np.uint8)
    masks[0, 1, :, 2] = 0
    masks[1, 0] = 0  # every pair that targets this crop is fully masked
    batch = make_batch(rng, [DISJOINT_BOXES, DISJOINT_BOXES[::-1][1:] + DISJOINT_BOXES[2:]],
                       masks=masks)
    got, grads, diag = loss.total_loss(batch, student, teacher, None,
                                       tau=0.1, epsilon=0.05, n_iters=3, out_size=3)
    ref, ref_grads, ref_diag = reference_total_loss(batch, student, teacher, None,
                                                    tau=0.1, epsilon=0.05, n_iters=3,
                                                    out_size=3)
    assert diag == ref_diag
    assert diag.n_empty_intersections > 0 and diag.n_fully_masked > 0
    assert got == pytest.approx(ref, rel=1e-12)
    for name in student:
        assert rel_err(grads[name], ref_grads[name]) < 1e-12, name


def fd_check(batch, student, targets, tau=0.1, out_size=3):
    """Worst relative error of the batched loss's analytic gradients against
    central finite differences, over every student parameter."""
    _, grads, diag = loss.loss_given_targets(batch, student, targets, tau, out_size)

    def scalar():
        return loss.loss_given_targets(batch, student, targets, tau, out_size)[0]

    eps, worst = 1e-6, 0.0
    for name, p in student.items():
        fd = np.zeros_like(p)
        flat, fdflat = p.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = scalar()
            flat[i] = orig - eps
            dn = scalar()
            flat[i] = orig
            fdflat[i] = (up - dn) / (2 * eps)
        worst = max(worst, rel_err(grads[name], fd))
    return worst, diag


def test_full_gradient_suite_matches_fd():
    """All student parameters through the batched loss, FD in f64, B = 2: image
    0 has an empty intersection, image 1 a fully masked pair."""
    rng = np.random.default_rng(11)
    student, teacher = make_params(raw_dim=8, k=5, seed=12)
    masks = np.ones((2, 2, 3, 3), dtype=np.uint8)
    masks[0, 0, 0, 0] = 0
    masks[1, 1] = 0
    local = (0.2, 0.25, 0.6, 0.65)
    batch = make_batch(rng, [DISJOINT_BOXES, overlapping_boxes(2, 0) + [local]], masks=masks)
    targets, _ = loss.compute_targets(batch, teacher, student["prototypes"],
                                      None, epsilon=0.05, n_iters=3)
    worst, diag = fd_check(batch, student, targets)
    assert diag.n_empty_intersections == 2
    assert diag.n_fully_masked == 2
    assert diag.n_pairs_contributing == 4
    assert worst < 1e-4


def test_training_steps_match_per_image_reference(monkeypatch):
    """Twelve float32 optimizer steps with the queue active, one of them
    without attention: the batched step and the per-image reference give the
    same losses, queue and parameters."""
    rng = np.random.default_rng(14)
    raws = rng.normal(size=(8, 16, 10, 10)).astype(np.float32)
    attns = rng.uniform(size=(8, 2, 10, 10)).astype(np.float32)
    cfg = training.TrainConfig(
        epochs=3, batch_size=4, n_prototypes=8, queue_capacity=64, hidden_dim=32,
        out_dim=16, global_grid=5, local_grid=3, n_local=2, align_size=5,
        lr_head=1e-3, lr_encoder=1e-4, seed=11)
    batched = training.init_state(cfg, raw_dim=16)
    reference = training.init_state(cfg, raw_dim=16)
    got, want = [], []
    for step in range(12):
        idx = [(4 * step + i) % len(raws) for i in range(4)]
        seeds = [[cfg.seed, 13, step, i] for i in idx]
        batch = raws[idx], None if step == 5 else attns[idx]
        got.append(training.train_step(*batch, batched, cfg, 12, seeds))
        with monkeypatch.context() as patched:
            patched.setattr(training.loss_mod, "total_loss", reference_total_loss)
            want.append(training.train_step(*batch, reference, cfg, 12, seeds))
    assert batched.queue.fill == batched.queue.capacity == 64  # active since the first image
    np.testing.assert_allclose(got, want, rtol=1e-6)
    np.testing.assert_allclose(batched.queue.snapshot(), reference.queue.snapshot(),
                               atol=1e-6)
    for name, p in batched.student.items():
        assert rel_err(p, reference.student[name]) < 1e-5, name
