import numpy as np
import pytest

from dctm.errors import NumericalError
from dctm.optim import Adam
from dctm.tensor import Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_zero_grad_leaves_params_unchanged():
    p = make_param([1.0, -2.0])
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert opt.t == 1
    assert p.data.tolist() == [1.0, -2.0]


def test_single_step_hand_oracle():
    # fresh state, g=1: m_hat = v_hat = 1, update = -lr / (1 + eps)
    p = make_param(0.0)
    opt = Adam([("p", p)], lr=0.1, eps=1e-8)
    p.grad = np.asarray(1.0)
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def test_two_steps_match_manual_recurrence():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = make_param(0.5)
    opt = Adam([("p", p)], lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta, m, v = 0.5, 0.0, 0.0
    for t, g in [(1, 0.3), (2, -0.7)]:
        p.grad = np.asarray(g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, theta, rtol=1e-12)


def test_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        p = make_param(rng.standard_normal(4))
        opt = Adam([("p", p)], lr=1e-2)
        for _ in range(25):
            p.grad = rng.standard_normal(4)
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_nan_gradient_names_parameter():
    p = make_param([1.0])
    opt = Adam([("layer.weight", p)])
    p.grad = np.asarray([np.nan])
    with pytest.raises(NumericalError, match="layer.weight"):
        opt.step()


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_gradient_names_parameter_and_step(bad):
    p = make_param([1.0, 1.0, 1.0])
    opt = Adam([("layer.weight", p)])
    p.grad = np.asarray([1.0, 0.0, 0.0])
    opt.step()
    before = p.data.copy()
    p.grad = np.asarray([1.0, bad, 0.0])
    with pytest.raises(NumericalError, match=r"'layer\.weight' at step 2"):
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_non_finite_gradient_aborts_before_any_update():
    a, b = make_param([1.0, 1.0]), make_param([1.0, 1.0])
    opt = Adam([("a", a), ("b", b)], lr=0.1)
    a.grad, b.grad = np.asarray([1.0, 1.0]), np.asarray([1.0, np.inf])
    with pytest.raises(NumericalError, match=r"'b' at step 1"):
        opt.step()
    assert a.data.tolist() == [1.0, 1.0]
    assert opt.t == 0
    assert all(not np.any(s) for s in opt.m + opt.v)


def test_missing_grad_treated_as_zero():
    p = make_param([3.0])
    opt = Adam([("p", p)], lr=0.1)
    opt.step()
    assert p.data.tolist() == [3.0]
    assert opt.t == 1
