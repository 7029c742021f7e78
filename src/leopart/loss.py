"""Masked swapped-prediction loss over aligned crop pairs, for a whole batch.

Teacher assignments of each global crop are the targets; every other crop
of the same image predicts them inside the pairwise intersection, resampled
to a fixed resolution. One student forward and one backward cover every
crop of the batch; the pairs are scored as stacks, one per predictor grid
size. Gradients are accumulated by hand through the softmax cross-entropy,
the alignment resampling, the prototype scoring, the head and the token
encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, crops, model, sinkhorn

ALIGN_SIZE = 7


@dataclass
class CropBatch:
    """The crops of B images, stacked by kind.

    Views are numbered as :func:`crops.sample_crops` returns them: the G
    global crops first, then the L local ones. ``pred_boxes[b, j, i]`` and
    ``target_boxes[b, j, i]`` are the intersection of global crop j and view
    i of image b in view-i-local and crop-j-local coordinates
    (:func:`crops.pair_boxes`). ``masks`` weights the cells of each global
    crop (all ones for no foreground masking).
    """

    global_raw: np.ndarray    # (B, G, raw_dim, g, g)
    local_raw: np.ndarray     # (B, L, raw_dim, l, l)
    pred_boxes: np.ndarray    # (B, G, G + L, 4)
    target_boxes: np.ndarray  # (B, G, G + L, 4)
    masks: np.ndarray         # (B, G, g, g) in {0, 1}


@dataclass
class PairDiagnostics:
    n_pairs_total: int = 0
    n_pairs_contributing: int = 0


def softmax_cross_entropy_grid(logits: np.ndarray, targets: np.ndarray,
                               mask: np.ndarray, tau: float,
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell CE between temperature-softmaxed logits and target rows.

    ``logits``/``targets`` are (..., K, h, w); ``mask`` is (..., h, w) in
    {0, 1}. Each grid's loss is the mean over its cells with nonzero mask
    (0 when there are none); the returned gradient is with respect to
    ``logits`` and already includes that mean. Returns the losses, the
    gradient and the active cell counts, one per grid.
    """
    n_active = mask.sum(axis=(-2, -1))
    denom = np.maximum(n_active, 1)
    s = logits / tau
    s = s - s.max(axis=-3, keepdims=True)
    log_norm = np.log(np.exp(s).sum(axis=-3, keepdims=True))
    log_p = s - log_norm
    ce = -(targets * log_p).sum(axis=-3)
    loss = (ce * mask).sum(axis=(-2, -1)) / denom
    p = np.exp(log_p)
    g = (p - targets) * (mask / (tau * denom[..., None, None]))[..., None, :, :]
    return loss, g.astype(logits.dtype, copy=False), n_active.astype(np.int64)


def pair_loss(pred_logits: np.ndarray, target_q: np.ndarray,
              box_pred: np.ndarray, box_target: np.ndarray, fg_mask: np.ndarray,
              tau: float, out_size: int = ALIGN_SIZE,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked cross-entropy of a stack of (predictor, target) crop pairs.

    ``box_pred`` (..., 4) is each intersection in predictor-local
    coordinates, ``box_target`` (..., 4) the same region in target-local
    coordinates; ``pred_logits`` (..., K, h, w), ``target_q`` (..., K, g, g)
    and ``fg_mask`` (..., g, g), a binary grid at the target crop's
    resolution, broadcast against their leading dims. Returns per-pair
    losses, each pair's d loss / d pred_logits and the active cell counts.
    """
    out_hw = (out_size, out_size)
    pred_taps = crops.box_taps(box_pred, pred_logits.shape[-2:], out_hw)
    target_taps = crops.box_taps(box_target, target_q.shape[-2:], out_hw)
    aligned_pred = crops.resample(pred_logits, pred_taps)
    aligned_q = crops.resample(target_q, target_taps)
    mask = attention.resample_mask(fg_mask[..., None, :, :], target_taps)[..., 0, :, :]
    loss, g_aligned, n_active = softmax_cross_entropy_grid(
        aligned_pred, aligned_q, mask.astype(np.float64), tau)
    return loss, crops.resample_adjoint(g_aligned, pred_taps), n_active


def compute_targets(batch: CropBatch, teacher_params: dict[str, np.ndarray],
                    prototypes: np.ndarray, queue: sinkhorn.FeatureQueue | None,
                    epsilon: float, n_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinkhorn targets for every global crop, each image against the queue
    as it stands once the images before it were pushed.

    One teacher forward covers all global crops. In S = [queue snapshot,
    oldest first; the batch's rows], image b's queue rows are the L_b rows
    just before its own, L_b = min(fill + b * n, capacity) (0 while that is
    below half the capacity: ``FeatureQueue.window_lengths``). So every
    image's window is one span of S, one ``sinkhorn.assign`` call assigns
    them all on views of one kernel, and the batch's rows are pushed once.
    Returns (B, G, K, g, g) row-stochastic target grids and the
    (B, G * g * g, D) teacher rows.
    """
    n_img, n_glob, _, g, _ = batch.global_raw.shape
    raw = model.token_rows(batch.global_raw)
    rows = model.project(model.encoder_forward(raw, teacher_params), teacher_params)
    n = n_glob * g * g
    held = queue.snapshot() if queue is not None and queue.fill else rows[:0]
    lengths = (np.zeros(n_img, dtype=np.intp) if queue is None
               else queue.window_lengths(n_img, n))
    feats = sinkhorn.FeatureBatch(np.concatenate([held, rows], dtype=np.float64), n,
                                  len(held), lengths)
    q = sinkhorn.assign(feats, prototypes, epsilon=epsilon, n_iters=n_iters).q
    if queue is not None:
        queue.push(rows)
    q = model.token_grids(q, (n_img, n_glob, g, g))
    return q.astype(rows.dtype), rows.reshape(n_img, n, -1)


def loss_given_targets(batch: CropBatch, params: dict[str, np.ndarray],
                       targets: np.ndarray, tau: float, out_size: int = ALIGN_SIZE,
                       ) -> tuple[float, dict[str, np.ndarray], PairDiagnostics]:
    """Swapped-prediction loss and parameter gradients with fixed targets.

    Each image's loss sums over its ordered pairs (global target j,
    predictor i != j) and is normalized by its number of contributing
    pairs; the batch loss is the mean over images.
    """
    n_img, n_glob = batch.global_raw.shape[:2]
    logits, cache = model.forward_crop([batch.global_raw, batch.local_raw], params)

    # every image's (target j, predictor i != j) pairs as a (B, G, V - 1) grid:
    # the global predictors off the diagonal of a (B, G, G) grid, then the locals
    off_diag = ~np.eye(n_glob, dtype=bool)

    def off(grid):  # (B, G, G, ...) -> (B, G, G - 1, ...)
        return grid[:, off_diag].reshape(n_img, n_glob, n_glob - 1, *grid.shape[3:])

    glob_logits = np.broadcast_to(logits[0][:, None], (n_img, n_glob, *logits[0].shape[1:]))
    glob_loss, g_glob, glob_active = pair_loss(
        off(glob_logits), targets[:, :, None], off(batch.pred_boxes[:, :, :n_glob]),
        off(batch.target_boxes[:, :, :n_glob]), batch.masks[:, :, None], tau, out_size)
    local_loss, g_local, local_active = pair_loss(
        logits[1][:, None], targets[:, :, None], batch.pred_boxes[:, :, n_glob:],
        batch.target_boxes[:, :, n_glob:], batch.masks[:, :, None], tau, out_size)
    contributing = np.concatenate([glob_active, local_active], axis=2) > 0
    diag = PairDiagnostics(n_pairs_total=contributing.size,
                           n_pairs_contributing=int(contributing.sum()))
    per_image = np.maximum(contributing.sum(axis=(1, 2)), 1)
    # np.bincount adds each image's pair losses in grid order, target j then
    # predictor i; a pairwise .sum(axis=(1, 2)) would round them differently
    pair_losses = np.concatenate([glob_loss, local_loss], axis=2) * contributing
    image_loss = np.bincount(np.repeat(np.arange(n_img), contributing[0].size),
                             weights=pair_losses.ravel(), minlength=n_img) / per_image
    total = float(image_loss.mean())

    # d total / d pair loss = 1 / (pairs of its image * images); a predictor's
    # gradient sums over its targets, the diagonal of the global grid adding 0
    scale = contributing / (per_image[:, None, None] * n_img)
    scale = scale.astype(g_glob.dtype)[..., None, None, None]
    g_grid = np.zeros_like(glob_logits)
    g_grid[:, off_diag] = (g_glob * scale[:, :, :n_glob - 1]).reshape(n_img, -1, *g_glob.shape[3:])
    g_logits = [g_grid.sum(axis=1), (g_local * scale[:, :, n_glob - 1:]).sum(axis=1)]
    grads = model.backward_crop(g_logits, cache, params)
    return total, grads, diag


def total_loss(batch: CropBatch, student_params: dict[str, np.ndarray],
               teacher_params: dict[str, np.ndarray],
               queue: sinkhorn.FeatureQueue | None,
               tau: float, epsilon: float, n_iters: int,
               out_size: int = ALIGN_SIZE,
               ) -> tuple[float, dict[str, np.ndarray], PairDiagnostics]:
    """Full swapped-prediction step: Sinkhorn targets (no grad) + student loss.

    Each image is assigned against the queue as it stands once the images
    before it were pushed; the batch's teacher rows are then pushed onto
    *queue*.
    """
    targets, _ = compute_targets(batch, teacher_params, student_params["prototypes"],
                                 queue, epsilon, n_iters)
    loss, grads, diag = loss_given_targets(batch, student_params, targets, tau, out_size)
    return loss, grads, diag
