import numpy as np
import pytest

from dctm.errors import NumericalError
from dctm.optim import CHUNK, Adam
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


class PerTensorAdam:
    """Per-tensor Adam, one NumPy expression per moment and parameter: the
    oracle for the flat optimizer's arithmetic."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in params]
        self.v = [np.zeros_like(p.data) for _, p in params]

    def step(self):
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for _, p in self.params]
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, ((_, p), g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)


# (CHUNK + 7,) spans two update chunks; the last parameter never gets a gradient
SHAPES = [(), (3,), (4, 5), (2, 3, 4), (CHUNK + 7,), (2, 2)]


def make_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"p{i}", Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True))
            for i, s in enumerate(SHAPES)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_state_matches_per_tensor_oracle_bytewise(dtype):
    ours, ref = make_params(dtype), make_params(dtype)
    opt, oracle = Adam(ours, lr=1e-2), PerTensorAdam(ref, lr=1e-2)
    rng = np.random.default_rng(1)
    for _ in range(25):
        for (_, a), (_, b) in zip(ours[:-1], ref[:-1]):
            a.grad = rng.standard_normal(a.shape).astype(dtype)
            b.grad = a.grad.copy()
        opt.step()
        oracle.step()
    for (name, a), (_, b), m, v, rm, rv in zip(ours, ref, opt.m, opt.v, oracle.m, oracle.v):
        assert a.data.dtype == dtype and m.dtype == dtype and v.dtype == dtype, name
        assert a.data.tobytes() == b.data.tobytes(), name
        assert m.tobytes() == rm.tobytes() and v.tobytes() == rv.tobytes(), name


@pytest.mark.parametrize("k", range(1, len(SHAPES)))
@pytest.mark.parametrize("where", ["first of k", "last of k-1"])
def test_non_finite_names_parameter_at_slice_boundary(k, where):
    params = make_params(np.float64)
    opt = Adam(params, lr=1e-2)
    for _, p in params:
        p.grad = np.zeros(p.shape)
    bad = k if where == "first of k" else k - 1
    flat = params[bad][1].grad.reshape(-1)
    flat[0 if bad == k else -1] = np.nan
    with pytest.raises(NumericalError, match=rf"'p{bad}' at step 1"):
        opt.step()


def test_moments_are_views_of_flat_state():
    params = make_params(np.float32)
    opt = Adam(params, lr=1e-2)
    for (_, p), m, v in zip(params, opt.m, opt.v):
        assert m.shape == p.shape and v.shape == p.shape
        assert np.shares_memory(m, opt._m) and np.shares_memory(v, opt._v)
    for _, p in params:
        p.grad = np.ones(p.shape, dtype=np.float32)
    data = [p.data for _, p in params]
    opt.step()
    # state is updated in place, and parameters are never rebound
    assert all(np.shares_memory(m, opt._m) for m in opt.m)
    assert all(p.data is d for (_, p), d in zip(params, data))
    assert all(np.all(m != 0) for m in opt.m)


def test_mixed_parameter_dtypes_rejected():
    params = [("a", Tensor(np.zeros(2), requires_grad=True)),
              ("b", Tensor(np.zeros(2, dtype=np.float32), requires_grad=True))]
    with pytest.raises(TypeError, match="one dtype"):
        Adam(params)
