"""Forward oracles and finite-difference gradient checks for the model."""

import numpy as np
import pytest
from scipy.special import erf

from leopart import model


def fd_grad_params(fn, params, name, eps=1e-6):
    """Central-difference gradient of scalar fn(params) w.r.t. params[name]."""
    p = params[name]
    g = np.zeros_like(p, dtype=np.float64)
    flat = p.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(params)
        flat[i] = orig - eps
        down = fn(params)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def small_dims():
    return model.ModelDims(raw_dim=4, token_dim=4, hidden_dim=6, out_dim=5,
                           n_prototypes=3)


def f64_params(dims, seed=0):
    return model.init_params(dims, np.random.default_rng(seed), dtype=np.float64)


# ---------------------------------------------------------------- gelu


def test_gelu_known_values():
    assert model.gelu(np.array([0.0]))[0] == 0.0
    # For large |x| the gate saturates to the identity / zero.
    assert model.gelu(np.array([20.0]))[0] == pytest.approx(20.0, abs=1e-12)
    assert model.gelu(np.array([-20.0]))[0] == pytest.approx(0.0, abs=1e-12)
    # gelu(1) = 0.5 * (1 + erf(1/sqrt(2)))
    expected = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
    assert model.gelu(np.array([1.0]))[0] == pytest.approx(expected, rel=1e-12)


def test_gelu_grad_matches_finite_differences():
    xs = np.linspace(-4.0, 4.0, 33)
    eps = 1e-6
    fd = (model.gelu(xs + eps) - model.gelu(xs - eps)) / (2 * eps)
    assert np.allclose(model.gelu_grad(xs), fd, atol=1e-8)


# ---------------------------------------------------------------- l2 normalize


def test_l2_normalize_rows_unit_norm():
    x = np.random.default_rng(0).normal(size=(7, 5))
    y, norms = model.l2_normalize_rows(x)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)
    assert np.allclose(y * norms, x)


def test_l2_normalize_rejects_degenerate_rows():
    x = np.zeros((2, 3))
    x[0] = [1.0, 0.0, 0.0]
    with pytest.raises(FloatingPointError):
        model.l2_normalize_rows(x)


def test_l2_normalize_backward_matches_fd():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    g_out = rng.normal(size=(4, 6))

    def scalar(xv):
        y, _ = model.l2_normalize_rows(xv)
        return float((y * g_out).sum())

    y, norms = model.l2_normalize_rows(x)
    analytic = model.l2_normalize_rows_backward(g_out, y, norms)
    eps = 1e-6
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy(); xp[i, j] += eps
            xm = x.copy(); xm[i, j] -= eps
            fd[i, j] = (scalar(xp) - scalar(xm)) / (2 * eps)
    assert rel_err(analytic, fd) < 1e-7


# ---------------------------------------------------------------- head oracle


def test_head_forward_matches_scalar_oracle():
    dims = small_dims()
    params = f64_params(dims, seed=3)
    tokens = np.random.default_rng(4).normal(size=(3, dims.token_dim))
    z, _ = model.head_forward(tokens, params)

    def affine_row(row, w, b):
        return np.array([sum(row[i] * w[i, j] for i in range(len(row))) + b[j]
                         for j in range(w.shape[1])])

    for r in range(tokens.shape[0]):
        h1 = affine_row(tokens[r], params["head.l1.w"], params["head.l1.b"])
        a1 = np.array([0.5 * v * (1 + erf(v / np.sqrt(2))) for v in h1])
        h2 = affine_row(a1, params["head.l2.w"], params["head.l2.b"])
        a2 = np.array([0.5 * v * (1 + erf(v / np.sqrt(2))) for v in h2])
        h3 = affine_row(a2, params["head.l3.w"], params["head.l3.b"])
        expected = h3 / np.sqrt(sum(v * v for v in h3))
        assert np.allclose(z[r], expected, atol=1e-10)


def test_project_rows_are_unit_norm():
    dims = small_dims()
    params = f64_params(dims, seed=5)
    tokens = np.random.default_rng(6).normal(size=(9, dims.token_dim))
    z = model.project(tokens, params)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-10)


def test_init_params_shapes_and_prototype_norms():
    dims = small_dims()
    params = f64_params(dims, seed=7)
    assert params["encoder.w"].shape == (dims.raw_dim, dims.token_dim)
    assert params["head.l1.w"].shape == (dims.token_dim, dims.hidden_dim)
    assert params["head.l3.w"].shape == (dims.hidden_dim, dims.out_dim)
    assert params["prototypes"].shape == (dims.n_prototypes, dims.out_dim)
    assert np.allclose(np.linalg.norm(params["prototypes"], axis=1), 1.0, atol=1e-12)
    assert np.all(params["head.l1.b"] == 0.0)


# ---------------------------------------------------------------- grad checks


def test_forward_crop_gradients_match_fd():
    """Every parameter gradient through forward/backward_crop vs central FD,
    over two stacks of crops of different sizes."""
    dims = small_dims()
    params = f64_params(dims, seed=8)
    rng = np.random.default_rng(9)
    grids = [rng.normal(size=(2, dims.raw_dim, 3, 3)), rng.normal(size=(1, dims.raw_dim, 2, 2))]
    weights = [rng.normal(size=(2, dims.n_prototypes, 3, 3)),
               rng.normal(size=(1, dims.n_prototypes, 2, 2))]

    def scalar(ps):
        logits, _ = model.forward_crop(grids, ps)
        return float(sum((lg * wt).sum() for lg, wt in zip(logits, weights)))

    logits, cache = model.forward_crop(grids, params)
    assert [lg.shape for lg in logits] == [wt.shape for wt in weights]
    grads = model.backward_crop(weights, cache, params)
    for name in params:
        fd = fd_grad_params(scalar, params, name)
        assert rel_err(grads[name], fd) < 1e-6, name


def test_encoder_backward_matches_fd():
    dims = small_dims()
    params = f64_params(dims, seed=10)
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(5, dims.raw_dim))
    weights = rng.normal(size=(5, dims.token_dim))

    def scalar(ps):
        return float((model.encoder_forward(raw, ps) * weights).sum())

    grads = model.encoder_backward(weights, raw)
    for name in ("encoder.w", "encoder.b"):
        fd = fd_grad_params(scalar, params, name)
        assert rel_err(grads[name], fd) < 1e-7, name
