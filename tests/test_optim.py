import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emgkin.optim import Adam, Sgdm, lr_at


def test_step_decay_schedule():
    # 90% drop every 10 epochs: constant within a period, /10 across it
    assert lr_at(1e-4, 0) == pytest.approx(1e-4)
    assert lr_at(1e-4, 9) == pytest.approx(1e-4)
    assert lr_at(1e-4, 10) == pytest.approx(1e-5)
    assert lr_at(1e-4, 19) == pytest.approx(1e-5)
    assert lr_at(1e-4, 20) == pytest.approx(1e-6)
    assert lr_at(1e-4, 45) == pytest.approx(1e-8)


@given(st.integers(0, 200))
def test_step_decay_piecewise_constant(epoch):
    assert lr_at(1e-3, epoch) == pytest.approx(1e-3 * 0.1 ** (epoch // 10))


def test_negative_epoch_rejected():
    with pytest.raises(ValueError):
        lr_at(1e-3, -1)


def test_sgdm_matches_hand_rolled_updates():
    w = np.array([1.0, -2.0])
    params = {"w": w}
    opt = Sgdm(params, 0.1)
    v_ref = np.zeros(2)
    w_ref = w.copy()
    rng = np.random.default_rng(0)
    for epoch in range(3):
        for _ in range(4):
            g = rng.standard_normal(2)
            opt.step(params, {"w": g}, epoch)
            lr = 0.1 * 0.1 ** (epoch // 10)
            v_ref = 0.9 * v_ref - lr * g
            w_ref = w_ref + v_ref
            np.testing.assert_allclose(params["w"], w_ref, rtol=1e-12)


def test_sgdm_momentum_accumulates():
    params = {"w": np.zeros(1)}
    opt = Sgdm(params, 1.0)
    g = {"w": np.ones(1)}
    opt.step(params, g, 0)  # v = -1                -> w = -1
    opt.step(params, g, 0)  # v = 0.9 * -1 - 1 = -1.9 -> w = -2.9
    np.testing.assert_allclose(params["w"], [-2.9])


def test_adam_matches_hand_rolled_updates():
    w = np.array([0.5, 1.5, -0.3])
    params = {"w": w}
    opt = Adam(params, 1e-3)
    m_ref = np.zeros(3)
    v_ref = np.zeros(3)
    w_ref = w.copy()
    rng = np.random.default_rng(1)
    for t in range(1, 8):
        g = rng.standard_normal(3)
        opt.step(params, {"w": g}, epoch=0)
        m_ref = 0.9 * m_ref + 0.1 * g
        v_ref = 0.999 * v_ref + 0.001 * g * g
        m_hat = m_ref / (1 - 0.9**t)
        v_hat = v_ref / (1 - 0.999**t)
        w_ref = w_ref - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], w_ref, rtol=1e-12)


def test_adam_first_step_size_is_lr():
    # bias correction makes the very first step exactly lr * sign(g)
    params = {"w": np.zeros(4)}
    opt = Adam(params, 1e-3)
    g = np.array([3.0, -0.5, 10.0, -2e-4])
    opt.step(params, {"w": g}, epoch=0)
    np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-4)


def test_optimizers_update_in_place():
    w = np.ones(2)
    params = {"w": w}
    Sgdm(params, 0.1).step(params, {"w": np.ones(2)}, 0)
    assert params["w"] is w  # same buffer object, mutated
    assert not np.array_equal(w, np.ones(2))


def test_schedule_applies_inside_optimizer():
    params = {"w": np.zeros(1)}
    opt = Sgdm(params, 1.0)
    opt.step(params, {"w": np.ones(1)}, epoch=10)  # lr 0.1: v = -0.1 -> w = -0.1
    np.testing.assert_allclose(params["w"], [-0.1])
    opt.step(params, {"w": np.ones(1)}, epoch=20)  # lr 0.01: v = -0.09 - 0.01
    np.testing.assert_allclose(params["w"], [-0.2])


def test_missing_gradient_key_rejected():
    params = {"w": np.zeros(1), "b": np.zeros(1)}
    opt = Sgdm(params, 0.1)
    with pytest.raises(KeyError):
        opt.step(params, {"w": np.ones(1)}, 0)


def test_adam_time_step_shared_across_tensors():
    # one optimizer step advances t once, not once per tensor
    params = {"a": np.zeros(1), "b": np.zeros(1)}
    opt = Adam(params, 1.0)
    opt.step(params, {"a": np.ones(1), "b": np.ones(1)}, 0)
    np.testing.assert_allclose(params["a"], params["b"])
    np.testing.assert_allclose(params["a"], [-1.0], rtol=1e-6)
