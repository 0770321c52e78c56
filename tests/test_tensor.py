import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctm.errors import ShapeError
from dctm.fusion import GatedFusion
from dctm.layers import Arena
from dctm.tensor import (Tensor, _Node, _toposort, attention_block, cat, linear, no_grad,
                         residual_norm)
from dctm.transformer import RegressionHead
from dctm.verify import TOL, gradient_error, probed


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# Python's operator hooks: numeric (direct, reflected, in-place), unary and indexing
OPERATOR_HOOKS = {f"__{p}{op}__" for p in ("", "r", "i") for op in (
    "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
    "lshift", "rshift", "and", "xor", "or")} | {
    "__neg__", "__pos__", "__abs__", "__invert__", "__getitem__"}


def test_public_surface_is_the_production_vocabulary():
    """Tensor keeps only the tape: every op is a free function (or an inline
    ``Tensor._op``), so adding a member means editing this set on purpose."""
    surface = {n for n in vars(Tensor) if not n.startswith("_") or n in OPERATOR_HOOKS}
    assert surface == {"item", "backward", "shape", "ndim", "dtype"}


def squares(w):
    """``sum(w * w)`` as one node: the probe is ``w``'s own values."""
    return probed(w, w.data)


class TestElementwise:
    """The inline pointwise nodes: the gated fusion's single-modality tanh,
    the head's sigmoid and ``dctm verify``'s probe."""

    def test_tanh_zero(self, rng):
        fuse = GatedFusion([3], hidden=4, rng=rng)
        out = fuse([t64(np.zeros((1, 2, 3)))], ["voice"])
        assert out.data.tolist() == [[[0.0] * 4] * 2]

    def test_sigmoid_zero(self, rng):
        # the head's projection starts at zero
        assert RegressionHead(4, rng)(t64(rng.standard_normal((1, 3, 4)))).data.tolist() \
            == [[0.5] * 3]

    def test_mul_hand(self):
        assert probed(t64([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])).item() == 32.0

    def test_scalar_keeps_dtype(self):
        # np.sum returns a numpy scalar, which must not widen
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = probed(x, np.full(3, 2.5, np.float32))
        assert loss.dtype == np.float32 and loss.item() == 7.5
        loss.backward()
        assert x.grad.dtype == np.float32

    def test_sigmoid_extreme_is_finite(self, rng):
        head = RegressionHead(1, rng)
        Arena(head.named_parameters())
        head.out.weight.data[...] = 1.0
        out = head(t64([[[-1000.0], [1000.0]]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)


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


def layer_norm(x, gain, bias):
    """The norm alone: ``residual_norm`` with a zero branch."""
    return residual_norm(x, t64(np.zeros(x.shape)), None, gain, bias)


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
        squares(w).backward()
        assert w.grad.tolist() == [1.0, 2.0]   # the probe, which holds w's values

    def test_reuse_accumulates(self):
        x = t64([3.0], requires_grad=True)
        probed(cat([x, x]), np.array([1.0, 2.0])).backward()
        assert x.grad.tolist() == [3.0]

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            cat([x, x]).backward()

    def test_no_grad_suppresses_graph(self):
        x = t64([1.0], requires_grad=True)
        with no_grad():
            y = squares(x)
        assert y._node is None

    def test_walk_visits_only_op_nodes(self):
        # leaves are left out of the order; their gradients still arrive
        x = t64(np.arange(6.0).reshape(3, 2), requires_grad=True)
        w, b = t64([[1.0, -1.0], [2.0, 0.5]], requires_grad=True), t64([0.0, 1.0])
        h = linear(x, w, b)
        loss = probed(cat([h, x], axis=1), np.ones((3, 4)))
        order = _toposort(loss)
        assert all(isinstance(node, _Node) for node in order)
        assert order[-1] is loss._node and len(order) == 3
        assert order.index(h._node) < len(order) - 1
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)) @ w.data.T + 1.0)
        np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((3, 2)))
        assert b.grad is None

    def test_backward_releases_the_graph(self):
        """Each op node drops its closure, parents and gradient once its
        closure has run, so the forward arrays it saved are freed; leaf
        gradients stay."""
        x = t64(np.arange(6.0).reshape(3, 2))
        w, b = t64([[1.0, -1.0], [2.0, 0.5]], requires_grad=True), t64([0.0, 1.0])
        h = linear(x, w, b)
        probe = np.full((3, 2), 2.0)
        loss = probed(h, probe)
        inner = _toposort(loss)[:-1]
        nodes = [weakref.ref(n) for n in inner]
        saved = weakref.ref(probe)   # the probe, which the loss's backward reads
        assert len(nodes) == 1
        del h, inner, probe
        assert saved() is not None
        loss.backward()
        assert all(r() is None for r in nodes + [saved])
        assert loss.grad is None and loss._node.parents == ()
        np.testing.assert_array_equal(w.grad, x.data.T @ np.full((3, 2), 2.0))

    def test_second_backward_raises(self):
        w = t64([1.0, 2.0], requires_grad=True)
        h = cat([w, w])
        loss = probed(h, np.ones(4))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already released"):
            probed(h, np.ones(4)).backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_no_grad_is_per_thread(self):
        """A graph built on one thread records while another holds no_grad open."""
        entered, leave = threading.Event(), threading.Event()
        seen = []

        def hold_no_grad():
            with no_grad():
                entered.set()
                seen.append(squares(t64([1.0], requires_grad=True))._node)
                leave.wait(timeout=10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            w = t64([1.0, 2.0], requires_grad=True)
            loss = squares(w)
        finally:
            leave.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [None]
        assert loss._node is not None
        loss.backward()
        assert w.grad.tolist() == [1.0, 2.0]

    def test_unused_parameter_stays_none(self):
        used = t64([1.0], requires_grad=True)
        unused = t64([1.0], requires_grad=True)
        probed(used, np.array([2.0])).backward()
        assert unused.grad is None


# per primitive: input shapes, the op over Tensors and its NumPy forward
PRIMITIVES = {
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
            for dtype, tol in TOL.items():
                assert gradient_error(arrays, op, reference, dtype, rng) <= tol, dtype


class TestDeterminism:
    def test_repeated_graph_bitwise_identical(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w, b = t64(rng.standard_normal((8, 8))), t64(rng.standard_normal(8))

        projections = [t64(rng.standard_normal(shape)) for shape in ((8, 24), (24,), (8, 8), (8,))]

        def run():
            t = t64(x, requires_grad=True)
            loss = probed(attention_block(linear(t, w, b), t, *projections, heads=2)[0], x)
            loss.backward()
            return loss.item(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
