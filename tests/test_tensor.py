import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctm.errors import ShapeError
from dctm.tensor import (Tensor, _Node, _toposort, attention_block, cat, layer_norm, linear,
                         no_grad)
from dctm.verify import TOL, gradient_error


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# Python's operator hooks: numeric (direct, reflected, in-place), unary and indexing
OPERATOR_HOOKS = {f"__{p}{op}__" for p in ("", "r", "i") for op in (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
    "lshift", "rshift", "and", "xor", "or")} | {
    "__neg__", "__pos__", "__abs__", "__invert__", "__getitem__"}


def test_public_surface_is_the_production_vocabulary():
    """Tensor keeps only what a production path or ``dctm verify``'s gradient
    probe, ``(out * probe).sum()``, calls, so adding a member means editing
    this set on purpose."""
    surface = {n for n in vars(Tensor) if not n.startswith("_") or n in OPERATOR_HOOKS}
    assert surface == {
        "__add__", "__mul__",
        "tanh", "sigmoid", "relu", "sum", "reshape", "transpose",
        "item", "backward", "shape", "ndim", "dtype",
    }


class TestElementwise:
    def test_tanh_zero(self):
        assert t64(0.0).tanh().item() == 0.0

    def test_sigmoid_zero(self):
        assert t64(0.0).sigmoid().item() == 0.5

    def test_mul_hand(self):
        out = t64([1.0, 2.0, 3.0]) * t64([4.0, 5.0, 6.0])
        assert out.data.tolist() == [4.0, 10.0, 18.0]

    def test_broadcast_mismatch(self):
        with pytest.raises(ShapeError):
            t64(np.zeros(3)) + t64(np.zeros(4))

    def test_scalar_keeps_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x * 2.5).dtype == np.float32
        assert (x + 1.0).dtype == np.float32
        # full reductions return numpy scalars, which must not widen
        assert x.sum().dtype == np.float32

    def test_sigmoid_extreme_is_finite(self):
        out = t64([-1000.0, 1000.0]).sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


def identity_projections(D):
    """``attention_block``'s packed q|k|v and output projections, all identities."""
    return t64(np.tile(np.eye(D), 3)), t64(np.zeros(3 * D)), t64(np.eye(D)), t64(np.zeros(D))


def softmax_rows(x):
    """``attention_block``'s weights with each row of ``x`` as one query's scores.

    One query of ones against single-feature keys (head dim 1, so the
    scale is 1) through identity projections makes the score row exactly
    the row of ``x``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, weights = attention_block(t64(np.ones((x.shape[0], 1, 1))), t64(x[:, :, None]),
                                 *identity_projections(1), heads=1)
    return weights[:, 0, 0, :]


class TestSoftmax:
    """The max-shifted softmax inside ``attention_block``."""

    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows([0.0, 0.0, 0.0]), [[1 / 3] * 3])

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 7))
        np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + 17.3), atol=1e-12)

    def test_closed_form(self):
        out = softmax_rows(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_rows_sum_to_one_nonnegative(self, values):
        out = softmax_rows(values)
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out >= 0)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = t64([[5.0, 5.0, 5.0]])
        out = layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_pass_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        want = (x - mu) / np.sqrt(var + 1e-5)
        got = layer_norm(t64(x), t64(np.ones(3)), t64(np.zeros(3))).data
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_zero_gain_gives_bias(self, rng):
        x = t64(rng.standard_normal((2, 5)))
        bias = rng.standard_normal(5)
        out = layer_norm(x, t64(np.zeros(5)), t64(bias))
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (2, 5)))


class TestBackward:
    def test_sum_of_squares(self):
        w = t64([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        assert w.grad.tolist() == [2.0, 4.0]

    def test_reuse_accumulates(self):
        x = t64(3.0, requires_grad=True)
        (x + x).backward()
        assert x.grad == 2.0

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (x * x).backward()

    def test_no_grad_suppresses_graph(self):
        x = t64([1.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert y._node is None

    def test_walk_visits_only_op_nodes(self):
        # leaves are left out of the order; their gradients still arrive
        w = t64([1.0, 2.0], requires_grad=True)
        c = t64([3.0, 4.0])
        h = (w * c).tanh()
        loss = (h * h + w).sum()
        order = _toposort(loss)
        assert all(isinstance(node, _Node) for node in order)
        assert order[-1] is loss._node and len(order) == 5
        assert order.index(h._node) < len(order) - 1
        loss.backward()
        expected = 2 * np.tanh([3.0, 8.0]) * (1 - np.tanh([3.0, 8.0]) ** 2) * [3.0, 4.0] + 1
        np.testing.assert_allclose(w.grad, expected, rtol=1e-15)
        assert c.grad is None

    def test_backward_releases_the_graph(self):
        """Each op node drops its closure, parents and gradient once its
        closure has run, so the forward arrays it saved are freed; leaf
        gradients stay."""
        w = t64([0.5, -1.0, 2.0], requires_grad=True)
        c = t64([3.0, 4.0, 5.0])
        h = (w * c).tanh()
        loss = (h * w).sum()
        inner = _toposort(loss)[:-1]
        nodes = [weakref.ref(n) for n in inner]
        saved = weakref.ref(h.data)   # tanh's output, which its backward reads
        assert len(nodes) == 3 and saved() is not None
        del h, inner
        assert saved() is not None
        loss.backward()
        assert all(r() is None for r in nodes + [saved])
        assert loss.grad is None and loss._node.parents == ()
        t = np.tanh(w.data * c.data)
        np.testing.assert_allclose(w.grad, t + w.data * (1 - t * t) * c.data, rtol=1e-15)

    def test_second_backward_raises(self):
        w = t64([1.0, 2.0], requires_grad=True)
        h = w * w
        loss = h.sum()
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already released"):
            (h * 3.0).sum().backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_no_grad_is_per_thread(self):
        """A graph built on one thread records while another holds no_grad open."""
        entered, leave = threading.Event(), threading.Event()
        seen = []

        def hold_no_grad():
            with no_grad():
                entered.set()
                seen.append((t64([1.0], requires_grad=True) * 2.0)._node)
                leave.wait(timeout=10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            w = t64([1.0, 2.0], requires_grad=True)
            loss = (w * w).sum()
        finally:
            leave.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [None]
        assert loss._node is not None
        loss.backward()
        assert w.grad.tolist() == [2.0, 4.0]

    def test_unused_parameter_stays_none(self):
        used = t64([1.0], requires_grad=True)
        unused = t64([1.0], requires_grad=True)
        (used * 2.0).sum().backward()
        assert unused.grad is None


# per primitive: input shapes, the op over Tensors and its NumPy forward
PRIMITIVES = {
    "add": ([(3, 4), (3, 4)], lambda ts: ts[0] + ts[1], lambda z: z[0] + z[1]),
    "mul": ([(3, 4), (3, 4)], lambda ts: ts[0] * ts[1], lambda z: z[0] * z[1]),
    "bias_add": ([(3, 4, 5), (5,)], lambda ts: ts[0] + ts[1], lambda z: z[0] + z[1]),
    "tanh": ([(2, 6)], lambda ts: ts[0].tanh(), lambda z: np.tanh(z[0])),
    "sigmoid": ([(2, 6)], lambda ts: ts[0].sigmoid(), lambda z: 1.0 / (1.0 + np.exp(-z[0]))),
    "relu": ([(2, 6)], lambda ts: ts[0].relu(), lambda z: z[0] * (z[0].real > 0)),
    "reshape": ([(3, 4, 5)], lambda ts: ts[0].reshape(12, 5), lambda z: z[0].reshape(12, 5)),
    "transpose": ([(3, 4, 5)], lambda ts: ts[0].transpose(2, 0, 1),
                  lambda z: z[0].transpose(2, 0, 1)),
    "cat": ([(2, 3), (2, 4)], lambda ts: cat([ts[0], ts[1]], axis=1),
            lambda z: np.concatenate(z, axis=1)),
}


class TestGradcheck:
    @pytest.mark.parametrize("name", list(PRIMITIVES))
    def test_matches_complex_step(self, name, rng):
        """Output and gradients against complex step, in float64 and float32."""
        shapes, op, reference = PRIMITIVES[name]
        for _ in range(5):
            arrays = [2.0 * rng.standard_normal(shape) for shape in shapes]
            arrays = [a + 0.1 * np.sign(a) for a in arrays]  # relu: stay off the kink
            for dtype, tol in TOL.items():
                assert gradient_error(arrays, op, reference, dtype, rng) <= tol, dtype


class TestDeterminism:
    def test_repeated_graph_bitwise_identical(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w, b = t64(rng.standard_normal((8, 8))), t64(rng.standard_normal(8))

        projections = [t64(rng.standard_normal(shape)) for shape in ((8, 24), (24,), (8, 8), (8,))]

        def run():
            t = t64(x, requires_grad=True)
            loss = (attention_block(linear(t, w, b), t, *projections, heads=2)[0].tanh()
                    * t).sum()
            loss.backward()
            return loss.item(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
