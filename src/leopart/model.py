"""Token encoder, projection head and prototype scoring with manual backprop.

Parameters live in flat ``{name: array}`` dicts so the optimizer and the
finite-difference harness can treat them uniformly. Tokens are rows; a
forward pass that has a backward twin caches exactly what the twin reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_GUARD = 1e-12
# Python floats, so that they keep the dtype of float32 activations
SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEFAULT_HIDDEN = 2048
DEFAULT_OUT = 256
DEFAULT_PROTOTYPES = 300

# Eigen's float32 erf: x * P(x^2) / Q(x^2) on [-4, 4], coefficients highest
# power first; beyond 4 the float32 erf rounds to +-1.
ERF_CLAMP = 4.0
ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                  -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                  -1.60960333262415e-02], dtype=np.float32)
ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                  -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
# elements per row block of an elementwise pass, whose temporaries then
# stay cache-sized and off a full-width layer's memory peak
BLOCK = 1 << 16


def _row_blocks(x: np.ndarray) -> list[slice]:
    """Slices of whole leading-axis rows of *x*, about BLOCK elements each."""
    step = max(1, BLOCK // max(1, math.prod(x.shape[1:])))
    return [slice(start, start + step) for start in range(0, len(x), step)]


def _horner(coeffs: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The polynomial with *coeffs*, highest power first, at *x2*."""
    acc = x2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= x2
    acc += coeffs[-1]
    return acc


def _erf32(x: np.ndarray) -> np.ndarray:
    """erf of float32 *x*, in place: within 8 ulp of the float64 erf on
    normal floats and 2 ulp on subnormals, exactly odd, exactly +-1 beyond 4
    and NaN at NaN."""
    for rows in _row_blocks(x):
        v = x[rows]
        np.clip(v, -ERF_CLAMP, ERF_CLAMP, out=v)
        x2 = v * v
        ratio = _horner(ERF_P, x2)
        ratio /= _horner(ERF_Q, x2)
        v *= ratio  # the ratio first: x * P first loses 36 ulp on subnormals
    return x


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of *x*, and its gate ``1 + erf(x / sqrt 2)`` (twice the standard
    normal CDF of *x*), which :func:`gelu_grad` reuses. A float32 gate takes
    :func:`_erf32`; any other keeps scipy's erf."""
    gate = x / SQRT2
    if gate.dtype == np.float32:
        _erf32(gate)
    else:
        # imported here: scipy.special costs a process about 25 MB and 0.2 s
        from scipy.special import erf

        erf(gate, out=gate)
    gate += 1.0
    act = 0.5 * x
    act *= gate
    return act, gate


def gelu_grad(x: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """d gelu / dx at *x*, written over the gate that :func:`gelu` returned
    for *x*, which it returns."""
    # 0.5 * gate + x * exp(-0.5 * x * x) / sqrt(2 pi), in that order
    for rows in _row_blocks(x):
        xb, d = x[rows], gate[rows]
        term = -0.5 * xb
        term *= xb
        np.exp(term, out=term)
        term *= xb
        term *= INV_SQRT_2PI
        d *= 0.5
        d += term
    return gate


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


def encoder_forward(raw: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    return raw @ params["encoder.w"] + params["encoder.b"]


def head_forward(tokens: np.ndarray, params: dict[str, np.ndarray],
                 cache: dict | None = None) -> np.ndarray:
    """Three affine layers with GELU gates, then a row-wise L2 bottleneck.

    Into *cache*, if given, go all that :func:`head_backward` reads: each
    GELU layer's output ``a`` and slope ``d``, its pre-activation and gate
    dropped once ``d`` exists, and the bottleneck's rows ``z`` and norms."""
    a = tokens
    for i in (1, 2):
        h = a @ params[f"head.l{i}.w"] + params[f"head.l{i}.b"]
        a, gate = gelu(h)
        if cache is not None:
            cache[f"a{i}"], cache[f"d{i}"] = a, gelu_grad(h, gate)
        del h, gate
    z, norms = l2_normalize_rows(a @ params["head.l3.w"] + params["head.l3.b"])
    if cache is not None:
        cache.update(z=z, norms=norms)
    return z


def head_backward(gz: np.ndarray, cache: dict,
                  params: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through :func:`head_forward`. The second layer's ``a2`` and
    ``d2`` leave *cache*: once read, their buffers hold ``gh2`` and ``gh1``."""
    p = lambda name: params[f"head.{name}"]
    gh3 = l2_normalize_rows_backward(gz, cache["z"], cache["norms"])
    grads = {"head.l3.w": cache["a2"].T @ gh3, "head.l3.b": gh3.sum(axis=0)}
    gh2 = np.matmul(gh3, p("l3.w").T, out=cache.pop("a2"))
    gh2 *= cache["d2"]
    grads["head.l2.w"] = cache["a1"].T @ gh2
    grads["head.l2.b"] = gh2.sum(axis=0)
    gh1 = np.matmul(gh2, p("l2.w").T, out=cache.pop("d2"))
    gh1 *= cache["d1"]
    grads["head.l1.w"] = cache["tokens"].T @ gh1
    grads["head.l1.b"] = gh1.sum(axis=0)
    g_tokens = gh1 @ p("l1.w").T
    return g_tokens, grads


def project(tokens: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """The head's unit-norm rows from a pass that keeps no cache and
    computes no GELU slope: the teacher's and every embedding's forward."""
    return head_forward(tokens, params)


def token_rows(grids) -> np.ndarray:
    """The tokens of (..., D, h, w) grids (any array-like) as (M, D) rows,
    image by image and row-major: the one conversion from grids to rows."""
    grids = np.asarray(grids)
    return np.moveaxis(grids, -3, -1).reshape(-1, grids.shape[-3])


def token_grids(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(M, D) rows as (..., D, h, w) grids, *shape* being (..., h, w): the
    inverse of :func:`token_rows`."""
    return np.moveaxis(rows.reshape(*shape, rows.shape[-1]), -1, -3)


def forward_crop(grids: list[np.ndarray],
                 params: dict[str, np.ndarray]) -> tuple[list[np.ndarray], dict]:
    """Prototype logits of stacks of crops in one pass over all their tokens.

    Each entry of *grids* is a (..., raw_dim, h, w) stack of same-size raw
    crops; the result holds one (..., K, h, w) logits stack per entry, plus
    the caches :func:`backward_crop` needs.
    """
    raw = np.concatenate([token_rows(g) for g in grids])
    tokens = encoder_forward(raw, params)
    cache = {"raw": raw, "tokens": tokens}
    z = head_forward(tokens, params, cache)
    logits = z @ params["prototypes"].T
    shapes = [g.shape[:-3] + g.shape[-2:] for g in grids]  # (..., h, w) per stack
    splits = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [token_grids(part, s) for part, s in zip(np.split(logits, splits), shapes)], cache


def backward_crop(g_logits: list[np.ndarray], cache: dict,
                  params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Backprop (..., K, h, w) logits gradients, one per stack given to
    :func:`forward_crop`, to encoder/head/prototype grads in one pass."""
    g = np.concatenate([token_rows(gs) for gs in g_logits])
    grads = {"prototypes": g.T @ cache["z"]}
    gz = g @ params["prototypes"]
    g_tokens, head_grads = head_backward(gz, cache, params)
    grads.update(head_grads)
    grads["encoder.w"] = cache["raw"].T @ g_tokens
    grads["encoder.b"] = g_tokens.sum(axis=0)
    return grads
