"""Closed-form checks for Adam, the cosine schedules and the EMA teacher."""

import numpy as np
import pytest

from leopart import optim


def zero_moments(params):
    """Adam's two moment dicts for *params*, both zero as at step 0."""
    return ({k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()})


def test_adam_first_step_closed_form():
    """At t=1 the bias-corrected update reduces to lr * g / (|g| + eps)."""
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 2.0])
    params = {"w": p.copy()}
    m, v = zero_moments(params)
    optim.adam_step(params, {"w": g}, m, v, 1, lr=0.01)
    expected = p - 0.01 * g / (np.abs(g) + optim.ADAM_EPS)
    assert np.allclose(params["w"], expected, atol=1e-12)
    assert np.array_equal(m["w"], (1 - optim.BETA1) * g)
    assert np.array_equal(v["w"], (1 - optim.BETA2) * g * g)


def test_adam_second_step_closed_form():
    rng = np.random.default_rng(0)
    p = rng.normal(size=4)
    g1, g2 = rng.normal(size=4), rng.normal(size=4)
    params = {"w": p.copy()}
    m_state, v_state = zero_moments(params)
    optim.adam_step(params, {"w": g1}, m_state, v_state, 1, lr=0.1)
    optim.adam_step(params, {"w": g2}, m_state, v_state, 2, lr=0.1)

    m = (1 - optim.BETA1) * (optim.BETA1 * g1 + g2) / (1 - optim.BETA1**2)
    v = (1 - optim.BETA2) * (optim.BETA2 * g1**2 + g2**2) / (1 - optim.BETA2**2)
    step1 = 0.1 * g1 / (np.abs(g1) + optim.ADAM_EPS)
    expected = p - step1 - 0.1 * m / (np.sqrt(v) + optim.ADAM_EPS)
    assert np.allclose(params["w"], expected, atol=1e-12)


def test_adam_per_parameter_learning_rates():
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    grads = {"a": np.ones(2), "b": np.ones(2)}
    optim.adam_step(params, grads, *zero_moments(params), 1, lr={"a": 0.1, "b": 0.0})
    assert np.all(params["a"] < 0.0)
    assert np.all(params["b"] == 0.0)


def test_adam_decoupled_weight_decay():
    """Zero gradient means the only change is the multiplicative decay."""
    params = {"w": np.array([2.0, -4.0])}
    optim.adam_step(params, {"w": np.zeros(2)}, *zero_moments(params), 1, lr=0.5,
                    weight_decay=0.1)
    assert np.allclose(params["w"], np.array([2.0, -4.0]) * (1 - 0.5 * 0.1))


def test_adam_renormalizes_prototypes():
    rng = np.random.default_rng(1)
    protos = rng.normal(size=(4, 3))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    params = {"prototypes": protos}
    optim.adam_step(params, {"prototypes": rng.normal(size=(4, 3))},
                    *zero_moments(params), 1, lr=0.05)
    assert np.allclose(np.linalg.norm(params["prototypes"], axis=1), 1.0, atol=1e-12)


def test_adam_rejects_non_finite_gradients():
    params = {"w": np.zeros(2)}
    with pytest.raises(FloatingPointError, match="w"):
        optim.adam_step(params, {"w": np.array([1.0, np.nan])},
                        *zero_moments(params), 1, lr=0.1)


def test_cosine_decay_endpoints_and_midpoint():
    assert optim.cosine_decay(1e-4, 0, 100) == pytest.approx(1e-4)
    assert optim.cosine_decay(1e-4, 100, 100) == pytest.approx(0.0, abs=1e-20)
    assert optim.cosine_decay(1e-4, 50, 100) == pytest.approx(5e-5)
    assert optim.cosine_decay(2.0, 25, 100, end=1.0) == pytest.approx(
        1.0 + (np.cos(np.pi * 0.25) + 1) / 2)


def test_cosine_decay_is_monotone():
    vals = [optim.cosine_decay(1.0, s, 200) for s in range(201)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ema_momentum_schedule():
    """The EMA momentum is cosine_decay rising to 1, bit for bit the closed
    form 1 - (1 - start)(cos(pi s/T) + 1)/2 (1 once T <= 0)."""
    for start in (0.0, 0.123456789, 0.5, 0.996, optim.EMA_START):
        for total in (0, 1, 2, 7, 13, 100):
            for step in range(total + 3):
                if total <= 0:
                    oracle = 1.0
                else:
                    frac = min(step / total, 1.0)
                    oracle = 1.0 - (1.0 - start) * (float(np.cos(np.pi * frac)) + 1.0) / 2.0
                assert optim.cosine_decay(start, step, total, end=1.0) == oracle, \
                    (start, step, total)
    vals = [optim.cosine_decay(optim.EMA_START, s, 100, end=1.0) for s in range(101)]
    assert vals[0] == optim.EMA_START and vals[-1] == 1.0
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_ema_update_endpoints_and_fixed_point():
    teacher = {"w": np.array([1.0, 1.0])}
    student = {"w": np.array([3.0, 5.0])}
    optim.ema_update(teacher, student, momentum=0.0)
    assert np.array_equal(teacher["w"], student["w"])

    teacher = {"w": np.array([1.0, 1.0])}
    optim.ema_update(teacher, student, momentum=1.0)
    assert np.array_equal(teacher["w"], np.array([1.0, 1.0]))

    teacher = {"w": np.array([3.0, 5.0])}
    optim.ema_update(teacher, student, momentum=0.4)
    assert np.array_equal(teacher["w"], student["w"])


def test_ema_update_convex_combination():
    teacher = {"w": np.array([0.0])}
    student = {"w": np.array([10.0])}
    optim.ema_update(teacher, student, momentum=0.75)
    assert teacher["w"][0] == pytest.approx(2.5)


def test_ema_update_shape_mismatch_raises():
    with pytest.raises(ValueError):
        optim.ema_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.5)
