"""Adam with cosine schedules, prototype renormalization and the EMA teacher."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
EMA_START = 0.9995


def cosine_decay(base: float, step: int, total_steps: int, end: float = 0.0) -> float:
    """Cosine interpolation from *base* (step 0) to *end* (step total): the
    learning rates decay to 0 and the EMA momentum rises to ``end=1.0``."""
    if total_steps <= 0:
        return end
    frac = min(max(step / total_steps, 0.0), 1.0)
    return end + (base - end) * (float(np.cos(np.pi * frac)) + 1.0) / 2.0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              m: dict[str, np.ndarray], v: dict[str, np.ndarray], t: int,
              lr: dict[str, float] | float, weight_decay: float = 0.0) -> None:
    """In-place adaptive-moment update of *params* and their moments *m* and
    *v*, bias-corrected for the *t*-th update (t >= 1).

    ``lr`` may be a scalar or a per-parameter-name dict. Weight decay is
    decoupled. Prototype rows are renormalized to unit L2 after the update.
    """
    for name in sorted(params):
        if not np.all(np.isfinite(grads[name])):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        g = grads[name].astype(params[name].dtype, copy=False)
        step_lr = lr[name] if isinstance(lr, dict) else lr
        m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
        m_hat = m[name] / (1.0 - BETA1**t)
        v_hat = v[name] / (1.0 - BETA2**t)
        params[name] = params[name] - step_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if weight_decay > 0.0:
            params[name] = params[name] * (1.0 - step_lr * weight_decay)
    if "prototypes" in params:
        norms = np.linalg.norm(params["prototypes"], axis=1, keepdims=True)
        params["prototypes"] = params["prototypes"] / norms


def ema_update(teacher: dict[str, np.ndarray], student: dict[str, np.ndarray],
               momentum: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, in place, matching keys."""
    for name, t in teacher.items():
        s = student[name]
        if s.shape != t.shape:
            raise ValueError(f"shape mismatch for {name!r}: {t.shape} vs {s.shape}")
        teacher[name] = momentum * t + (1.0 - momentum) * s
