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
    global crops first, then the L local ones. ``boxes[b, i, j]`` is the
    intersection of views i and j of image b in view-i-local coordinates,
    NaN where they do not intersect (:func:`crops.pair_boxes`). ``masks``
    weights the cells of each global crop (all ones for no foreground
    masking).
    """

    global_raw: np.ndarray  # (B, G, raw_dim, g, g)
    local_raw: np.ndarray   # (B, L, raw_dim, l, l)
    boxes: np.ndarray       # (B, G + L, G + L, 4)
    masks: np.ndarray       # (B, G, g, g) in {0, 1}


@dataclass
class PairDiagnostics:
    n_pairs_total: int = 0
    n_pairs_contributing: int = 0
    n_empty_intersections: int = 0
    n_fully_masked: int = 0


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
    """Masked cross-entropy of a stack of P (predictor, target) crop pairs.

    ``pred_logits`` is (P, K, h, w), ``target_q`` (P, K, g, g) and
    ``fg_mask`` (P, g, g), a binary grid at the target crop's resolution.
    ``box_pred`` (P, 4) is each intersection in predictor-local
    coordinates, ``box_target`` (P, 4) the same region in target-local
    coordinates. Returns per-pair losses, d loss / d pred_logits and the
    active cell counts.
    """
    aligned_pred = crops.align(pred_logits, box_pred, out_size, out_size)
    aligned_q = crops.align(target_q, box_target, out_size, out_size)
    mask = attention.align_mask(fg_mask[:, None], box_target, out_size, out_size)[:, 0]
    mask = mask.astype(np.float64)
    loss, g_aligned, n_active = softmax_cross_entropy_grid(aligned_pred, aligned_q, mask, tau)
    h, w = pred_logits.shape[-2:]
    return loss, crops.align_backward(g_aligned, box_pred, h, w), n_active


def compute_targets(batch: CropBatch, teacher_params: dict[str, np.ndarray],
                    prototypes: np.ndarray, queue: sinkhorn.FeatureQueue | None,
                    epsilon: float, n_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinkhorn targets for every global crop, image by image.

    One teacher forward covers all global crops. Each image's rows are then
    assigned jointly with the queue and pushed onto it before the next
    image is assigned. Returns (B, G, K, g, g) row-stochastic target grids
    and the (B, G * g * g, D) teacher rows.
    """
    n_img, n_glob, raw_dim, g, _ = batch.global_raw.shape
    raw = batch.global_raw.transpose(0, 1, 3, 4, 2).reshape(-1, raw_dim)
    rows = model.project(model.encoder_forward(raw, teacher_params), teacher_params)
    rows = rows.reshape(n_img, n_glob * g * g, -1)
    targets = []
    for img_rows in rows:
        queue_rows = queue.active_rows() if queue is not None else None
        feats = sinkhorn.FeatureBatch.from_rows(img_rows, queue_rows)
        targets.append(sinkhorn.assign(feats, prototypes, epsilon=epsilon, n_iters=n_iters).q)
        if queue is not None:
            queue.push(img_rows.astype(np.float32))
    q = np.stack(targets).reshape(n_img, n_glob, g, g, -1).transpose(0, 1, 4, 2, 3)
    return q.astype(rows.dtype), rows


def loss_given_targets(batch: CropBatch, params: dict[str, np.ndarray],
                       targets: np.ndarray, tau: float, out_size: int = ALIGN_SIZE,
                       ) -> tuple[float, dict[str, np.ndarray], PairDiagnostics]:
    """Swapped-prediction loss and parameter gradients with fixed targets.

    Each image's loss sums over its ordered pairs (global target j,
    predictor i != j) and is normalized by its number of contributing
    pairs; the batch loss is the mean over images.
    """
    n_img, n_glob = batch.global_raw.shape[:2]
    stacks = [batch.global_raw, batch.local_raw]
    flat_logits, cache = model.forward_crop([v.reshape(-1, *v.shape[2:]) for v in stacks],
                                            params)
    logits = [f.reshape(v.shape[:2] + f.shape[1:]) for f, v in zip(flat_logits, stacks)]

    # every ordered (target j, predictor i != j) pair of every image, in that order
    off_diag = ~np.eye(batch.boxes.shape[1], dtype=bool)[:n_glob]
    img, tgt, pred = np.nonzero(np.broadcast_to(off_diag, (n_img, *off_diag.shape)))
    box_pred = batch.boxes[img, pred, tgt]
    box_target = batch.boxes[img, tgt, pred]
    present = ~np.isnan(box_pred[:, 0])
    diag = PairDiagnostics(n_pairs_total=len(img),
                           n_empty_intersections=int((~present).sum()))
    img, tgt, pred = img[present], tgt[present], pred[present]
    box_pred, box_target = box_pred[present], box_target[present]

    # one stack of pairs per predictor grid size: global, then local predictors
    pair_losses = np.zeros(len(img))
    n_active = np.zeros(len(img), dtype=np.int64)
    groups = []
    for kind, (sel, view) in enumerate([(pred < n_glob, pred), (pred >= n_glob, pred - n_glob)]):
        key = (img[sel], view[sel])
        loss, g_pred, active = pair_loss(
            logits[kind][key], targets[img[sel], tgt[sel]], box_pred[sel],
            box_target[sel], batch.masks[img[sel], tgt[sel]], tau, out_size)
        pair_losses[sel], n_active[sel] = loss, active
        groups.append((kind, sel, key, g_pred))

    contributing = n_active > 0
    diag.n_fully_masked = int((~contributing).sum())
    diag.n_pairs_contributing = int(contributing.sum())
    per_image = np.maximum(np.bincount(img[contributing], minlength=n_img), 1)
    image_loss = np.bincount(img, weights=pair_losses * contributing, minlength=n_img) / per_image
    total = float(image_loss.mean())

    # d total / d pair loss = 1 / (pairs of its image * images)
    scale = contributing / (per_image[img] * n_img)
    g_logits = [np.zeros_like(stack_logits) for stack_logits in logits]
    for kind, sel, key, g_pred in groups:
        np.add.at(g_logits[kind], key, g_pred * scale[sel, None, None, None].astype(g_pred.dtype))
    grads = model.backward_crop([g.reshape(-1, *g.shape[2:]) for g in g_logits], cache, params)
    return total, grads, diag


def total_loss(batch: CropBatch, student_params: dict[str, np.ndarray],
               teacher_params: dict[str, np.ndarray],
               queue: sinkhorn.FeatureQueue | None,
               tau: float, epsilon: float, n_iters: int,
               out_size: int = ALIGN_SIZE,
               ) -> tuple[float, dict[str, np.ndarray], PairDiagnostics]:
    """Full swapped-prediction step: Sinkhorn targets (no grad) + student loss.

    The teacher rows of each image are pushed onto *queue* right after that
    image's assignment.
    """
    targets, _ = compute_targets(batch, teacher_params, student_params["prototypes"],
                                 queue, epsilon, n_iters)
    loss, grads, diag = loss_given_targets(batch, student_params, targets, tau, out_size)
    return loss, grads, diag
