"""Training loop: crop sampling, teacher targets, student updates, EMA.

Determinism contract: every random draw is keyed by (seed, purpose, epoch,
image) so a run resumed from a checkpoint at any step boundary reproduces
the uninterrupted run bit-for-bit (single-threaded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import attention, crops, loss as loss_mod, model, optim, sinkhorn, tensor_io


@dataclass
class TrainConfig:
    temperature: float = 0.1
    lr_head: float = 1e-4
    lr_encoder: float = 1e-5
    weight_decay: float = 0.0
    epochs: int = 50
    batch_size: int = 32
    ema_start: float = optim.EMA_START
    n_prototypes: int = model.DEFAULT_PROTOTYPES
    epsilon: float = sinkhorn.DEFAULT_EPSILON
    sinkhorn_iters: int = sinkhorn.DEFAULT_ITERS
    queue_capacity: int = sinkhorn.QUEUE_CAPACITY
    fg_masking: str = "fg"  # "all", "fg" or "bg"
    hidden_dim: int = model.DEFAULT_HIDDEN
    out_dim: int = model.DEFAULT_OUT
    token_dim: int | None = None  # None: same as the raw token dim
    align_size: int = loss_mod.ALIGN_SIZE
    global_grid: int = 7
    local_grid: int = 5
    # the crops.CropSpec fields, flat so that the config hash keeps its form
    n_global: int = crops.CropSpec.n_global
    n_local: int = crops.CropSpec.n_local
    global_scale: tuple[float, float] = crops.CropSpec.global_scale
    local_scale: tuple[float, float] = crops.CropSpec.local_scale
    min_intersection: float = crops.CropSpec.min_intersection
    aspect: tuple[float, float] = crops.CropSpec.aspect
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.temperature < math.inf:  # NaN too
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if self.fg_masking not in ("all", "fg", "bg"):
            raise ValueError(f"unknown fg_masking mode {self.fg_masking!r}")
        for name in ("lr_head", "lr_encoder", "weight_decay"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN too
                raise ValueError(f"{name} must be finite and at least 0, got {value}")
        if not 0 <= self.ema_start <= 1:
            raise ValueError(f"ema_start must be in [0, 1], got {self.ema_start}")
        # the [sinkhorn] keys, under their config names
        if not self.epsilon >= sinkhorn.MIN_EPSILON:  # NaN too
            raise ValueError(f"epsilon must be at least sinkhorn.MIN_EPSILON = "
                             f"{sinkhorn.MIN_EPSILON:.6f}, got {self.epsilon}")
        if self.epsilon == math.inf:
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.sinkhorn_iters < 1:
            raise ValueError(f"n_iters must be at least 1, got {self.sinkhorn_iters}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be at least 1, got {self.queue_capacity}")
        for name in ("batch_size", "epochs", "hidden_dim", "out_dim", "n_prototypes",
                     "global_grid", "local_grid", "align_size", "token_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:  # token_dim None: the raw token dim
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.crop_spec()  # checks the crop ranges

    def crop_spec(self) -> crops.CropSpec:
        return crops.CropSpec(**{f.name: getattr(self, f.name) for f in fields(crops.CropSpec)})

    def hash(self) -> str:
        return tensor_io.config_hash(repr(sorted(asdict(self).items())))


def crop_masks(attn_stacks: np.ndarray, global_taps: tuple[np.ndarray, np.ndarray],
               cfg: TrainConfig) -> np.ndarray:
    """(n, G, g, g) foreground masks of the G global crops of n images.

    ``attn_stacks`` holds the images' (n, heads, H, W) attention and
    ``global_taps`` the :func:`crops.box_taps` pair of their G global boxes
    each, the one that resamples their feature grids: the loader checks
    attention against the feature grid, and that its entries are finite and
    non-negative. ``"bg"`` masking returns the background instead.
    """
    aligned = crops.resample(attn_stacks.astype(np.float64)[:, None], global_taps)
    fg = attention.foreground_mask(aligned)  # (n, G, g, g)
    return fg if cfg.fg_masking == "fg" else (1 - fg).astype(np.uint8)


def crop_batch(features: np.ndarray, attn_stacks: np.ndarray | None,
               crop_seeds: list[list[int]], cfg: TrainConfig) -> loss_mod.CropBatch:
    """Sample each image's crops from its seed; stack the crops of the
    (B, D, H, W) grids and the masks of the (B, heads, H, W) attention."""
    spec = cfg.crop_spec()
    coords = np.stack([crops.sample_crops(spec, np.random.default_rng(seed))
                       for seed in crop_seeds])  # (B, V, 4)
    raw = np.asarray(features, dtype=np.float32)[:, None]  # (B, 1, D, H, W)
    n_glob, g, l = cfg.n_global, cfg.global_grid, cfg.local_grid
    global_taps = crops.box_taps(coords[:, :n_glob], raw.shape[-2:], (g, g))
    local_taps = crops.box_taps(coords[:, n_glob:], raw.shape[-2:], (l, l))
    if cfg.fg_masking == "all" or attn_stacks is None:
        masks = np.ones((len(raw), n_glob, g, g), dtype=np.uint8)
    else:
        masks = crop_masks(attn_stacks, global_taps, cfg)
    return loss_mod.CropBatch(
        global_raw=crops.resample(raw, global_taps),
        local_raw=crops.resample(raw, local_taps),
        boxes=crops.pair_boxes(coords),
        masks=masks,
    )


@dataclass
class TrainState:
    student: dict[str, np.ndarray]
    teacher: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]  # Adam's moments, one per student parameter
    adam_v: dict[str, np.ndarray]
    queue: sinkhorn.FeatureQueue
    step: int = 0
    losses: list[tuple[int, float]] = field(default_factory=list)

    def scopes(self) -> dict[str, dict[str, np.ndarray]]:
        """The parameter dicts that a checkpoint saves, by the scope that
        prefixes their tensor names (``student/<name>`` and so on)."""
        return {"student": self.student, "teacher": self.teacher,
                "adam_m": self.adam_m, "adam_v": self.adam_v}


def init_state(cfg: TrainConfig, raw_dim: int) -> TrainState:
    dims = model.ModelDims(
        raw_dim=raw_dim,
        token_dim=cfg.token_dim or raw_dim,
        hidden_dim=cfg.hidden_dim,
        out_dim=cfg.out_dim,
        n_prototypes=cfg.n_prototypes,
    )
    rng = np.random.default_rng([cfg.seed, 7])
    student = model.init_params(dims, rng)
    teacher = {k: v.copy() for k, v in student.items() if not k.startswith("prototypes")}
    return TrainState(
        student=student,
        teacher=teacher,
        adam_m={k: np.zeros_like(v) for k, v in student.items()},
        adam_v={k: np.zeros_like(v) for k, v in student.items()},
        queue=sinkhorn.FeatureQueue(capacity=cfg.queue_capacity),
    )


def train_step(features: np.ndarray, attn_stacks: np.ndarray | None,
               state: TrainState, cfg: TrainConfig, total_steps: int,
               crop_seeds: list[list[int]]) -> float:
    """One optimizer step over a batch of (B, D, H, W) raw grids and their
    (B, heads, H, W) attention (None: unmasked crops).

    All crops of the batch go through one teacher forward, one student
    forward and one backward. Each image's Sinkhorn targets are assigned
    against the queue as it stands once the images before it were pushed,
    all in one call (``loss.compute_targets``).

    A floating-point overflow or invalid operation anywhere in the step
    means training has diverged: ``FloatingPointError`` names the step.
    """
    def diverged(kind: str, _flag: int) -> None:
        raise FloatingPointError(f"training diverged at step {state.step + 1}: "
                                 f"floating-point {kind}")

    with np.errstate(over="call", invalid="call", call=diverged):
        batch_loss, batch_grads, _ = loss_mod.total_loss(
            crop_batch(features, attn_stacks, crop_seeds, cfg), state.student, state.teacher,
            state.queue, tau=cfg.temperature, epsilon=cfg.epsilon, n_iters=cfg.sinkhorn_iters,
            out_size=cfg.align_size,
        )
        head_lr = optim.cosine_decay(cfg.lr_head, state.step, total_steps)
        encoder_lr = optim.cosine_decay(cfg.lr_encoder, state.step, total_steps)
        lr = {name: encoder_lr if name.startswith("encoder.") else head_lr
              for name in state.student}
        optim.adam_step(state.student, batch_grads, state.adam_m, state.adam_v,
                        state.step + 1, lr, cfg.weight_decay)
        optim.ema_update(state.teacher, state.student,
                         optim.cosine_decay(cfg.ema_start, state.step, total_steps, end=1.0))
    state.step += 1
    state.losses.append((state.step, batch_loss))
    return batch_loss


def train(manifest: tensor_io.DatasetManifest, cfg: TrainConfig,
          resume: tensor_io.Checkpoint | None = None,
          stop_after: int | None = None,
          ) -> tuple[tensor_io.Checkpoint, list[tuple[int, float]]]:
    """Full training run; returns the final checkpoint and the loss curve.

    The run is ``cfg.epochs`` epochs of ceil(images / batch size) steps. Step
    s is batch s mod steps-per-epoch of epoch s div steps-per-epoch: that
    epoch's image order and each image's crop seed depend only on the seed,
    the epoch and the image, so a run resumed from the checkpoint of any
    step continues the uninterrupted one exactly. ``stop_after`` ends the run
    once the state reaches that step (counted from step 0), leaving a
    resumable checkpoint; a state already there takes no step.
    """
    dataset = tensor_io.Dataset(manifest)
    features, attn_stacks = dataset.features, dataset.attn_stacks
    n_images, raw_dim = features.shape[:2]
    steps_per_epoch = (n_images + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    end = total_steps if stop_after is None else min(total_steps, stop_after)

    if resume is not None:
        state = state_from_checkpoint(resume, cfg, raw_dim)
    else:
        state = init_state(cfg, raw_dim)

    for step in range(state.step, end):
        epoch, batch_pos = divmod(step, steps_per_epoch)
        order = np.random.default_rng([cfg.seed, 11, epoch]).permutation(n_images)
        idxs = order[batch_pos * cfg.batch_size:(batch_pos + 1) * cfg.batch_size]
        seeds = [[cfg.seed, 13, epoch, int(i)] for i in idxs]
        train_step(features[idxs], None if attn_stacks is None else attn_stacks[idxs],
                   state, cfg, total_steps, seeds)
    return checkpoint_from_state(state, cfg), state.losses


def checkpoint_from_state(state: TrainState, cfg: TrainConfig) -> tensor_io.Checkpoint:
    tensors = {f"{scope}/{name}": p.astype(np.float32)
               for scope, params in state.scopes().items() for name, p in params.items()}
    queue_rows = state.queue.snapshot()
    if len(queue_rows):
        tensors["queue/rows"] = queue_rows.astype(np.float32)
    return tensor_io.Checkpoint(tensors=tensors, step=state.step, config_hash=cfg.hash())


def state_from_checkpoint(ckpt: tensor_io.Checkpoint, cfg: TrainConfig,
                          raw_dim: int) -> TrainState:
    """The training state saved in *ckpt*, which must hold exactly the
    tensors, shapes and dtypes that a run of *cfg* on *raw_dim*-dimensional
    tokens saves at its step; ``TensorFormatError`` names the first that differs."""
    if ckpt.config_hash != cfg.hash():
        raise ValueError("checkpoint config hash does not match the given config")
    state = init_state(cfg, raw_dim)
    tensors = dict(ckpt.tensors)
    rows = tensors.pop("queue/rows", None)  # any count up to the capacity
    if rows is not None and not (rows.ndim == 2 and rows.shape[0] <= cfg.queue_capacity
                                 and rows.shape[1] == cfg.out_dim and rows.dtype == np.float32):
        raise tensor_io.TensorFormatError(
            f"checkpoint tensor 'queue/rows' is {rows.dtype} {rows.shape}; this config "
            f"needs float32 (rows <= {cfg.queue_capacity}, {cfg.out_dim})")
    tensor_io.match_tensors(tensors, checkpoint_from_state(state, cfg).tensors,
                            "part of a training state",
                            f"this config and {raw_dim}-dimensional tokens need")
    if rows is not None:
        state.queue.push(rows)
    scopes = state.scopes()
    for name, t in tensors.items():
        scope, _, rest = name.partition("/")
        scopes[scope][rest] = t.copy()
    state.step = ckpt.step
    return state


def write_loss_curve(losses: list[tuple[int, float]], path) -> None:
    lines = ["step,loss"] + [f"{s},{v:.8f}" for s, v in losses]
    tensor_io.write_text(path, "\n".join(lines) + "\n")
