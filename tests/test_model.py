"""Forward oracles and finite-difference gradient checks for the model."""

import math

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
    def gelu(v):
        return model.gelu(np.array([v]))[0][0]

    assert gelu(0.0) == 0.0
    # For large |x| the gate saturates to the identity / zero.
    assert gelu(20.0) == pytest.approx(20.0, abs=1e-12)
    assert gelu(-20.0) == pytest.approx(0.0, abs=1e-12)
    # gelu(1) = 0.5 * (1 + erf(1/sqrt(2)))
    expected = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
    assert gelu(1.0) == pytest.approx(expected, rel=1e-12)


def test_gelu_grad_matches_finite_differences():
    xs = np.linspace(-4.0, 4.0, 33)
    eps = 1e-6
    fd = (model.gelu(xs + eps)[0] - model.gelu(xs - eps)[0]) / (2 * eps)
    assert np.allclose(model.gelu_grad(xs, model.gelu(xs)[1]), fd, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float64])
def test_gelu_gate_reuse_is_bit_identical(dtype):
    """The gate kept from the forward pass gives the bits of the formulas
    that called erf twice, so losses and checkpoints do not move. float32
    takes the rational erf, which the bound tests below check."""
    xs = np.random.default_rng(0).normal(scale=3.0, size=4096).astype(dtype)
    act, gate = model.gelu(xs)
    sqrt2, inv_sqrt_2pi = math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
    old_gelu = 0.5 * xs * (1.0 + erf(xs / sqrt2))
    old_grad = 0.5 * (1.0 + erf(xs / sqrt2)) + xs * np.exp(-0.5 * xs * xs) * inv_sqrt_2pi
    grad = model.gelu_grad(xs, gate)
    assert act.dtype == grad.dtype == dtype
    np.testing.assert_array_equal(act, old_gelu)
    np.testing.assert_array_equal(grad, old_grad)


def erf32_sample() -> np.ndarray:
    """Every 4096th float32 bit pattern in [0, 4], and the edge values."""
    f32 = np.finfo(np.float32)
    grid = np.arange(0, int(np.float32(4.0).view(np.uint32)) + 1, 4096,
                     dtype=np.uint32).view(np.float32)
    edges = np.array([0.0, -0.0, f32.smallest_subnormal, f32.tiny, 4.0,
                      np.nextafter(np.float32(4.0), np.float32(np.inf)), f32.max, -f32.max],
                     dtype=np.float32)
    return np.concatenate([grid, edges])


def test_float32_erf_is_within_8_ulp_of_the_float64_erf():
    xs = erf32_sample()
    got = model._erf32(xs.copy())
    assert got.dtype == np.float32
    want = erf(xs.astype(np.float64))
    _, exponent = np.frexp(np.abs(want))
    ulp = np.maximum(np.ldexp(1.0, exponent - 24), 2.0 ** -149)
    err = np.abs(got - want) / ulp
    subnormal = np.abs(xs) < np.finfo(np.float32).tiny
    assert subnormal.sum() >= 2 and err[subnormal].max() <= 2.0
    assert err[~subnormal].max() <= 8.0
    # exactly odd (signed zeros too), exactly +-1 beyond the clamp, NaN at NaN
    np.testing.assert_array_equal(model._erf32(-xs).view(np.uint32), (-got).view(np.uint32))
    beyond = xs[xs > 4.0]
    assert len(beyond) == 2
    np.testing.assert_array_equal(model._erf32(beyond.copy()), 1.0)
    np.testing.assert_array_equal(model._erf32(-beyond), -1.0)
    assert np.isnan(model._erf32(np.array([np.nan], dtype=np.float32))).all()


def test_float32_gelu_raises_no_floating_point_flag():
    """train_step reads any overflow or invalid flag as divergence."""
    xs = erf32_sample()
    with np.errstate(over="raise", invalid="raise"):
        for x in (xs, -xs, np.stack([xs, -xs], axis=1)):
            act, gate = model.gelu(x)
            assert act.dtype == gate.dtype == np.float32
            assert np.isfinite(act).all() and np.isfinite(gate).all()


def test_gelu_row_blocks_match_one_block(monkeypatch):
    """The row blocks change where temporaries live, not the bits."""
    x = np.random.default_rng(0).normal(scale=3.0, size=(37, 11)).astype(np.float32)
    act, gate = model.gelu(x)
    d = model.gelu_grad(x, gate.copy())
    monkeypatch.setattr(model, "BLOCK", 33)  # 3 rows a block, 1 in the last
    assert len(model._row_blocks(x)) == 13
    act_b, gate_b = model.gelu(x)
    np.testing.assert_array_equal(act_b, act)
    np.testing.assert_array_equal(gate_b, gate)
    np.testing.assert_array_equal(model.gelu_grad(x, gate_b), d)


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
    z = model.head_forward(tokens, params)

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


# ---------------------------------------------------------------- head cache


def reference_head_forward(tokens, params):
    """The straight-line head that cached each GELU layer's pre-activation
    ``h``, gate and output ``a``: the bit-identity oracle of the head that
    caches only ``a`` and the slope ``d``."""
    p = lambda name: params[f"head.{name}"]
    h1 = tokens @ p("l1.w") + p("l1.b")
    a1, gate1 = model.gelu(h1)
    h2 = a1 @ p("l2.w") + p("l2.b")
    a2, gate2 = model.gelu(h2)
    h3 = a2 @ p("l3.w") + p("l3.b")
    z, norms = model.l2_normalize_rows(h3)
    cache = {"tokens": tokens, "h1": h1, "gate1": gate1, "a1": a1, "h2": h2,
             "gate2": gate2, "a2": a2, "norms": norms, "z": z}
    return z, cache


def reference_head_backward(gz, cache, params):
    """The backward of :func:`reference_head_forward`, which calls
    ``gelu_grad`` on the cached pre-activations and gates."""
    p = lambda name: params[f"head.{name}"]
    gh3 = model.l2_normalize_rows_backward(gz, cache["z"], cache["norms"])
    grads = {"head.l3.w": cache["a2"].T @ gh3, "head.l3.b": gh3.sum(axis=0)}
    ga2 = gh3 @ p("l3.w").T
    gh2 = ga2 * model.gelu_grad(cache["h2"], cache["gate2"])
    grads["head.l2.w"] = cache["a1"].T @ gh2
    grads["head.l2.b"] = gh2.sum(axis=0)
    ga1 = gh2 @ p("l2.w").T
    gh1 = ga1 * model.gelu_grad(cache["h1"], cache["gate1"])
    grads["head.l1.w"] = cache["tokens"].T @ gh1
    grads["head.l1.b"] = gh1.sum(axis=0)
    return gh1 @ p("l1.w").T, grads


def two_stacks(dims, dtype, seed):
    """Parameters, two raw crop stacks of different grid sizes and a
    logits gradient for each stack."""
    rng = np.random.default_rng(seed)
    params = model.init_params(dims, rng, dtype=dtype)
    grids = [rng.normal(size=(4, dims.raw_dim, 5, 5)).astype(dtype),
             rng.normal(size=(6, dims.raw_dim, 3, 3)).astype(dtype)]
    g_logits = [rng.normal(size=(4, dims.n_prototypes, 5, 5)).astype(dtype),
                rng.normal(size=(6, dims.n_prototypes, 3, 3)).astype(dtype)]
    return params, grids, g_logits


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_crop_passes_are_bit_identical_to_the_straight_line_head(dtype):
    """Caching ``d`` in the forward instead of ``h`` and the gate moves no
    bit of the logits or of any gradient."""
    dims = model.ModelDims(raw_dim=8, token_dim=12, hidden_dim=32, out_dim=16, n_prototypes=10)
    params, grids, g_logits = two_stacks(dims, dtype, seed=12)
    logits, cache = model.forward_crop(grids, params)
    grads = model.backward_crop(g_logits, cache, params)

    raw = np.concatenate([model.token_rows(g) for g in grids])
    z, ref_cache = reference_head_forward(model.encoder_forward(raw, params), params)
    np.testing.assert_array_equal(np.concatenate([model.token_rows(lg) for lg in logits]),
                                  z @ params["prototypes"].T)
    g = np.concatenate([model.token_rows(gl) for gl in g_logits])
    g_tokens, ref_grads = reference_head_backward(g @ params["prototypes"], ref_cache, params)
    ref_grads.update({"prototypes": g.T @ z, "encoder.w": raw.T @ g_tokens,
                      "encoder.b": g_tokens.sum(axis=0)})
    assert grads.keys() == ref_grads.keys() == params.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == dtype, name
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


def test_forward_crop_caches_one_output_and_one_slope_per_gelu_layer():
    """Of the hidden-width arrays, the cache holds each GELU layer's output
    and slope and nothing else; ``project`` returns the rows alone."""
    dims = model.ModelDims(raw_dim=3, token_dim=4, hidden_dim=11, out_dim=5, n_prototypes=6)
    params, grids, _ = two_stacks(dims, np.float64, seed=13)
    _, cache = model.forward_crop(grids, params)
    _, ref = reference_head_forward(cache["tokens"], params)
    wide = {name for name, v in cache.items() if v.shape[-1] == dims.hidden_dim}
    assert wide == {"a1", "d1", "a2", "d2"}
    for i in (1, 2):
        np.testing.assert_array_equal(cache[f"a{i}"], ref[f"a{i}"])
        np.testing.assert_array_equal(cache[f"d{i}"],
                                      model.gelu_grad(ref[f"h{i}"], ref[f"gate{i}"]))
    z = model.project(cache["tokens"], params)
    assert isinstance(z, np.ndarray)
    np.testing.assert_array_equal(z, cache["z"])
