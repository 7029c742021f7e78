"""Token encoder, projection head and prototype scoring with manual backprop.

Parameters live in flat ``{name: array}`` dicts so the optimizer and the
finite-difference harness can treat them uniformly. Tokens are rows; all
forward functions return the caches their backward twins need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

NORM_GUARD = 1e-12
# Python floats, so that they keep the dtype of float32 activations
SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEFAULT_HIDDEN = 2048
DEFAULT_OUT = 256
DEFAULT_PROTOTYPES = 300


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of *x*, and its gate ``1 + erf(x / sqrt 2)`` (twice the standard
    normal CDF of *x*), which :func:`gelu_grad` reuses."""
    gate = 1.0 + erf(x / SQRT2)
    return 0.5 * x * gate, gate


def gelu_grad(x: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """d gelu / dx at *x*, given the gate that :func:`gelu` returned for *x*."""
    return 0.5 * gate + x * np.exp(-0.5 * x * x) * INV_SQRT_2PI


def l2_normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms < NORM_GUARD):
        raise FloatingPointError("degenerate pre-normalization vector (norm < 1e-12)")
    return x / norms, norms


def l2_normalize_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    return (g - y * np.sum(g * y, axis=1, keepdims=True)) / norms


@dataclass
class ModelDims:
    raw_dim: int
    token_dim: int
    hidden_dim: int = DEFAULT_HIDDEN
    out_dim: int = DEFAULT_OUT
    n_prototypes: int = DEFAULT_PROTOTYPES


def init_params(dims: ModelDims, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Student parameters: per-token affine encoder, 3-layer head, prototypes."""

    def affine(prefix: str, n_in: int, n_out: int) -> dict[str, np.ndarray]:
        w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out))
        return {f"{prefix}.w": w.astype(dtype), f"{prefix}.b": np.zeros(n_out, dtype=dtype)}

    params: dict[str, np.ndarray] = {}
    params.update(affine("encoder", dims.raw_dim, dims.token_dim))
    params.update(affine("head.l1", dims.token_dim, dims.hidden_dim))
    params.update(affine("head.l2", dims.hidden_dim, dims.hidden_dim))
    params.update(affine("head.l3", dims.hidden_dim, dims.out_dim))
    protos = rng.normal(size=(dims.n_prototypes, dims.out_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    params["prototypes"] = protos.astype(dtype)
    return params


def encoder_forward(raw: np.ndarray, params: dict[str, np.ndarray], prefix: str = "") -> np.ndarray:
    return raw @ params[f"{prefix}encoder.w"] + params[f"{prefix}encoder.b"]


def encoder_backward(g: np.ndarray, raw: np.ndarray, prefix: str = "") -> dict[str, np.ndarray]:
    return {f"{prefix}encoder.w": raw.T @ g, f"{prefix}encoder.b": g.sum(axis=0)}


def head_forward(tokens: np.ndarray, params: dict[str, np.ndarray],
                 prefix: str = "") -> tuple[np.ndarray, dict]:
    """Three affine layers with GELU gates, then a row-wise L2 bottleneck."""
    p = lambda name: params[f"{prefix}head.{name}"]
    h1 = tokens @ p("l1.w") + p("l1.b")
    a1, gate1 = gelu(h1)
    h2 = a1 @ p("l2.w") + p("l2.b")
    a2, gate2 = gelu(h2)
    h3 = a2 @ p("l3.w") + p("l3.b")
    z, norms = l2_normalize_rows(h3)
    cache = {"tokens": tokens, "h1": h1, "gate1": gate1, "a1": a1, "h2": h2,
             "gate2": gate2, "a2": a2, "norms": norms, "z": z}
    return z, cache


def head_backward(gz: np.ndarray, cache: dict, params: dict[str, np.ndarray],
                  prefix: str = "") -> tuple[np.ndarray, dict[str, np.ndarray]]:
    p = lambda name: params[f"{prefix}head.{name}"]
    gh3 = l2_normalize_rows_backward(gz, cache["z"], cache["norms"])
    grads = {
        f"{prefix}head.l3.w": cache["a2"].T @ gh3,
        f"{prefix}head.l3.b": gh3.sum(axis=0),
    }
    ga2 = gh3 @ p("l3.w").T
    gh2 = ga2 * gelu_grad(cache["h2"], cache["gate2"])
    grads[f"{prefix}head.l2.w"] = cache["a1"].T @ gh2
    grads[f"{prefix}head.l2.b"] = gh2.sum(axis=0)
    ga1 = gh2 @ p("l2.w").T
    gh1 = ga1 * gelu_grad(cache["h1"], cache["gate1"])
    grads[f"{prefix}head.l1.w"] = cache["tokens"].T @ gh1
    grads[f"{prefix}head.l1.b"] = gh1.sum(axis=0)
    g_tokens = gh1 @ p("l1.w").T
    return g_tokens, grads


def project(tokens: np.ndarray, params: dict[str, np.ndarray], prefix: str = "") -> np.ndarray:
    """Head forward without caches; rows come back unit-norm."""
    z, _ = head_forward(tokens, params, prefix)
    return z


def forward_crop(grids: list[np.ndarray], params: dict[str, np.ndarray],
                 prefix: str = "") -> tuple[list[np.ndarray], dict]:
    """Prototype logits of stacks of crops in one pass over all their tokens.

    Each entry of *grids* is an (N, raw_dim, h, w) stack of same-size raw
    crops; the result holds one (N, K, h, w) logits stack per entry, plus
    the caches :func:`backward_crop` needs.
    """
    raw = np.concatenate([g.transpose(0, 2, 3, 1).reshape(-1, g.shape[1]) for g in grids])
    tokens = encoder_forward(raw, params, prefix)
    z, cache = head_forward(tokens, params, prefix)
    logits = z @ params["prototypes"].T
    shapes = [g.shape[:1] + g.shape[2:] for g in grids]  # (N, h, w) per stack
    cache.update({"raw": raw, "shapes": shapes})
    out, start = [], 0
    for n, h, w in shapes:
        stop = start + n * h * w
        out.append(logits[start:stop].reshape(n, h, w, logits.shape[1]).transpose(0, 3, 1, 2))
        start = stop
    return out, cache


def backward_crop(g_logits: list[np.ndarray], cache: dict,
                  params: dict[str, np.ndarray], prefix: str = "") -> dict[str, np.ndarray]:
    """Backprop (N, K, h, w) logits gradients, one per stack given to
    :func:`forward_crop`, to encoder/head/prototype grads in one pass."""
    g = np.concatenate([gs.transpose(0, 2, 3, 1).reshape(-1, gs.shape[1]) for gs in g_logits])
    grads = {"prototypes": g.T @ cache["z"]}
    gz = g @ params["prototypes"]
    g_tokens, head_grads = head_backward(gz, cache, params, prefix)
    grads.update(head_grads)
    grads.update(encoder_backward(g_tokens, cache["raw"], prefix))
    return grads
