"""Training loop: crop sampling, teacher targets, student updates, EMA.

Determinism contract: every random draw is keyed by (seed, purpose, epoch,
image) so a run resumed from a checkpoint at any step boundary reproduces
the uninterrupted run bit-for-bit (single-threaded).
"""

from __future__ import annotations

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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.fg_masking not in ("all", "fg", "bg"):
            raise ValueError(f"unknown fg_masking mode {self.fg_masking!r}")
        # the [sinkhorn] keys, under their config names
        if not self.epsilon >= sinkhorn.MIN_EPSILON:  # NaN too
            raise ValueError(f"epsilon must be at least sinkhorn.MIN_EPSILON = "
                             f"{sinkhorn.MIN_EPSILON:.6f}, got {self.epsilon}")
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
    attention against the feature grid. ``"bg"`` masking returns the
    background instead.
    """
    aligned = crops.resample(attn_stacks.astype(np.float64)[:, None], global_taps)
    merged = attention.merge_heads(np.maximum(aligned, 0.0))  # (n, G, g, g)
    fg = attention.foreground_mask(merged[:, :, None])  # one head left per map
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
    if cfg.fg_masking == "all" or attn_stacks is None:
        masks = np.ones((len(raw), n_glob, g, g), dtype=np.uint8)
    else:
        masks = crop_masks(attn_stacks, global_taps, cfg)
    return loss_mod.CropBatch(
        global_raw=crops.resample(raw, global_taps),
        local_raw=crops.align(raw, coords[:, n_glob:], l, l),
        boxes=crops.pair_boxes(coords),
        masks=masks,
    )


@dataclass
class TrainState:
    student: dict[str, np.ndarray]
    teacher: dict[str, np.ndarray]
    adam: optim.AdamState
    queue: sinkhorn.FeatureQueue
    step: int = 0
    losses: list[tuple[int, float]] = field(default_factory=list)


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
        adam=optim.AdamState(),
        queue=sinkhorn.FeatureQueue(capacity=cfg.queue_capacity),
    )


def _lr_table(cfg: TrainConfig, step: int, total_steps: int) -> dict[str, float]:
    head_lr = optim.cosine_decay(cfg.lr_head, step, total_steps)
    enc_lr = optim.cosine_decay(cfg.lr_encoder, step, total_steps)
    return {"__head__": head_lr, "__encoder__": enc_lr}


def train_step(features: np.ndarray, attn_stacks: np.ndarray | None,
               state: TrainState, cfg: TrainConfig, total_steps: int,
               crop_seeds: list[list[int]]) -> float:
    """One optimizer step over a batch of (B, D, H, W) raw grids and their
    (B, heads, H, W) attention (None: unmasked crops).

    All crops of the batch go through one teacher forward, one student
    forward and one backward. Each image's Sinkhorn targets are assigned
    against the queue as it stands once the images before it were pushed,
    all in one call (``loss.compute_targets``).
    """
    batch_loss, batch_grads, _ = loss_mod.total_loss(
        crop_batch(features, attn_stacks, crop_seeds, cfg), state.student, state.teacher,
        state.queue,        tau=cfg.temperature, epsilon=cfg.epsilon, n_iters=cfg.sinkhorn_iters,
        out_size=cfg.align_size,
    )

    lrs = _lr_table(cfg, state.step, total_steps)
    lr = {name: lrs["__encoder__"] if name.startswith("encoder.") else lrs["__head__"]
          for name in state.student}
    optim.adam_step(state.student, batch_grads, state.adam, lr, cfg.weight_decay)
    optim.ema_update(state.teacher, state.student,
                     optim.ema_momentum(state.step, total_steps, cfg.ema_start))
    state.step += 1
    state.losses.append((state.step, batch_loss))
    return batch_loss


def train(manifest: tensor_io.DatasetManifest, cfg: TrainConfig,
          resume: tensor_io.Checkpoint | None = None,
          stop_after: int | None = None,
          ) -> tuple[tensor_io.Checkpoint, list[tuple[int, float]]]:
    """Full training run; returns the final checkpoint and the loss curve.

    ``stop_after`` interrupts the run once that many optimizer steps have
    completed (counted from step 0), leaving a resumable checkpoint.
    """
    dataset = tensor_io.load_dataset(manifest)
    features, attn_stacks = dataset.features, dataset.attn_stacks
    n_images, raw_dim = features.shape[:2]
    steps_per_epoch = (n_images + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    if resume is not None:
        state = state_from_checkpoint(resume, cfg, raw_dim)
    else:
        state = init_state(cfg, raw_dim)

    start_epoch = state.step // steps_per_epoch
    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng([cfg.seed, 11, epoch]).permutation(n_images)
        for b_start in range(0, n_images, cfg.batch_size):
            batch_pos = b_start // cfg.batch_size
            step_index = epoch * steps_per_epoch + batch_pos
            if step_index < state.step:
                continue  # already done before a resume
            if stop_after is not None and state.step >= stop_after:
                return checkpoint_from_state(state, cfg), state.losses
            idxs = order[b_start:b_start + cfg.batch_size]
            seeds = [[cfg.seed, 13, epoch, int(i)] for i in idxs]
            train_step(features[idxs], None if attn_stacks is None else attn_stacks[idxs],
                       state, cfg, total_steps, seeds)
    return checkpoint_from_state(state, cfg), state.losses


def checkpoint_from_state(state: TrainState, cfg: TrainConfig) -> tensor_io.Checkpoint:
    tensors: dict[str, np.ndarray] = {}
    for name, p in state.student.items():
        tensors[f"student/{name}"] = p.astype(np.float32)
    for name, p in state.teacher.items():
        tensors[f"teacher/{name}"] = p.astype(np.float32)
    for name, p in state.adam.m.items():
        tensors[f"adam_m/{name}"] = p.astype(np.float32)
    for name, p in state.adam.v.items():
        tensors[f"adam_v/{name}"] = p.astype(np.float32)
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
    if ckpt.step > 0:  # Adam moments exist from the first step on
        state.adam.ensure(state.student)
    expected = checkpoint_from_state(state, cfg).tensors
    missing = sorted(expected.keys() - ckpt.tensors.keys())
    if missing:
        raise tensor_io.TensorFormatError(f"checkpoint has no tensor {missing[0]!r}")
    for name, t in sorted(ckpt.tensors.items()):
        if name == "queue/rows":
            ok = t.ndim == 2 and t.shape[0] <= cfg.queue_capacity and t.shape[1] == cfg.out_dim
            want = f"(rows <= {cfg.queue_capacity}, {cfg.out_dim})"
        elif name in expected:
            ok = t.shape == expected[name].shape
            want = str(expected[name].shape)
        else:
            raise tensor_io.TensorFormatError(f"checkpoint tensor {name!r} is not part of "
                                              "a training state")
        if not ok or t.dtype != np.float32:
            raise tensor_io.TensorFormatError(
                f"checkpoint tensor {name!r} is {t.dtype} {t.shape}; this config and "
                f"{raw_dim}-dimensional tokens need float32 {want}")
    scopes = {"student": state.student, "teacher": state.teacher,
              "adam_m": state.adam.m, "adam_v": state.adam.v}
    for name, t in ckpt.tensors.items():
        scope, _, rest = name.partition("/")
        if scope == "queue":
            state.queue.push(t)
        else:
            scopes[scope][rest] = t.copy()
    state.adam.t = ckpt.step
    state.step = ckpt.step
    return state


def embed_features(raw_grid: np.ndarray, params: dict[str, np.ndarray],
                   use_head: bool) -> np.ndarray:
    """Encoder (optionally + head) features of one image grid, (D, H', W')."""
    _, h, w = raw_grid.shape
    raw = raw_grid.reshape(raw_grid.shape[0], h * w).T.astype(np.float32)
    tokens = model.encoder_forward(raw, params)
    if use_head:
        tokens = model.project(tokens, params)
    return tokens.T.reshape(-1, h, w)


def write_loss_curve(losses: list[tuple[int, float]], path) -> None:
    lines = ["step,loss"] + [f"{s},{v:.8f}" for s, v in losses]
    tensor_io.write_text(path, "\n".join(lines) + "\n")
