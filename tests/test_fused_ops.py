"""The fused ops ``linear``, ``feed_forward``, ``layer_norm``,
``residual_norm``, ``attention_block``, ``gated_unit``, ``dilated_conv1d``
and ``ccc_loss`` against numpy, loop, composed-op and complex-step
references, in float64 and float32.

Each op is one tape node with a hand-written backward, so these tests pin
its forward to an independent formula, its backward to a reference
gradient, and its dtype: a float32 input gives a float32 output and
float32 gradients. The ``feed_forward``, ``layer_norm``,
``attention_block``, ``gated_unit``, ``dilated_conv1d`` and ``ccc_loss``
references differentiate plain NumPy forwards by complex step, which is
exact to rounding; both live in ``dctm.reference``, which ``dctm verify``
shares. The kernels write into buffers they allocate; no
forward or backward may write into an input's ``.data``.
"""

import inspect
import textwrap

import numpy as np
import pytest

import dctm.metrics
import dctm.tensor
from dctm.cli import EXIT_VERIFY, main
from dctm.config import ConvConfig, DctmConfig, FusionConfig
from dctm.conv import dilated_conv1d
from dctm.errors import ShapeError
from dctm.layers import LayerNorm, dropout_mask
from dctm.metrics import ccc_loss
from dctm.model import DctmModel
from dctm.reference import (attention_single_head_loop, complex_step_grads, numpy_attention_block,
                            numpy_ccc_loss, numpy_conv1d, numpy_feed_forward, numpy_gated_unit,
                            numpy_layer_norm)
from dctm.tensor import (Tensor, attention_block, feed_forward, gated_unit, layer_norm, linear,
                         residual_norm)
from dctm.transformer import TransformerSettings
from dctm.verify import TOL

DTYPES = list(TOL)

# (B, T) per case; "transposed" feeds a non-contiguous (B, D, T) -> (B, T, D) view
CASES = {"batched": (3, 4), "single": (1, 1), "transposed": (2, 5)}


def draw_input(rng, case, D, dtype):
    B, T = CASES[case]
    if case == "transposed":
        x = rng.standard_normal((B, D, T)).transpose(0, 2, 1)
        x = x.astype(dtype)  # order "K" keeps the transposed layout
        assert not x.flags.c_contiguous
        return x
    return rng.standard_normal((B, T, D)).astype(dtype)


def grads_of(op, arrays, probe):
    """Forward value and every input's gradient of ``sum(op(...) * probe)``."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(ts)
    (out * Tensor(probe.astype(out.dtype))).sum().backward()
    return out, [t.grad for t in ts]


def assert_close(got, want, dtype):
    tol = TOL[dtype]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def assert_dtype(out, grads, dtype):
    assert out.dtype == dtype
    for g in grads:
        assert g is not None and g.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(CASES))
def test_linear_matches_numpy(rng, case, dtype):
    D, O = 6, 5
    x = draw_input(rng, case, D, dtype)
    w = rng.standard_normal((D, O)).astype(dtype)
    b = rng.standard_normal(O).astype(dtype)
    probe = rng.standard_normal(x.shape[:-1] + (O,))
    out, (gx, gw, gb) = grads_of(lambda ts: linear(*ts), [x, w, b], probe)
    assert_dtype(out, (gx, gw, gb), dtype)

    x64, w64, g64 = x.astype(np.float64), w.astype(np.float64), probe.astype(dtype)
    assert_close(out.data, x64 @ w64 + b, dtype)
    assert_close(gx, g64 @ w64.T, dtype)
    assert_close(gw, np.einsum("btd,bto->do", x64, g64), dtype)
    assert_close(gb, g64.sum(axis=(0, 1)), dtype)


def test_linear_rejects_feature_mismatch():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 6\)"):
        linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 6))), Tensor(np.zeros(6)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(CASES))
def test_layer_norm_matches_numpy_and_composed_backward(rng, case, dtype):
    D = 7
    x = draw_input(rng, case, D, dtype)
    gain = rng.standard_normal(D).astype(dtype)
    bias = rng.standard_normal(D).astype(dtype)
    probe = rng.standard_normal(x.shape)
    out, grads = grads_of(lambda ts: layer_norm(*ts), [x, gain, bias], probe)
    assert_dtype(out, grads, dtype)

    arrays64 = [a.astype(np.float64) for a in (x, gain, bias)]
    assert_close(out.data, numpy_layer_norm(*arrays64), dtype)
    want = complex_step_grads(lambda z: (numpy_layer_norm(*z) * probe).sum(), arrays64)
    for got, ref in zip(grads, want):
        assert_close(got, ref, dtype)


def test_complex_step_reference_sees_a_1e9_layer_norm_error(monkeypatch, capsys):
    """An input gradient off by 1e-9 relative fails ``dctm verify``'s float64
    comparison in the two ops that share ``_layer_norm_backward``, and only
    there; central differences at relative 1e-4 could not see it."""
    true_backward = dctm.tensor._layer_norm_backward

    def skewed(*args):
        gx, ggain, gbias = true_backward(*args)
        return gx * (1.0 + 1e-9), ggain, gbias

    monkeypatch.setattr(dctm.tensor, "_layer_norm_backward", skewed)
    assert main(["verify"]) == EXIT_VERIFY
    assert "FAILED (2/18): grad/layer_norm, grad/residual_norm\n" in capsys.readouterr().out


def pairs(ts):
    """Consecutive (weight, bias) pairs of a flat parameter list."""
    return list(zip(ts[0::2], ts[1::2]))


# (B, Tq, Tk): self-attention, cross-attention and a single frame
ATTN_CASES = {"self": (2, 4, 4), "cross": (3, 2, 5), "single": (1, 1, 1)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(ATTN_CASES))
class TestAttention:
    heads, D = 2, 6

    def draw(self, rng, case, dtype, transposed=False):
        """(x, memory or None, the four projection arrays: w_in, b_in, w_out, b_out)."""
        B, Tq, Tk = ATTN_CASES[case]
        x = rng.standard_normal((B, Tq, self.D)).astype(dtype)
        if transposed:
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert not x.flags.c_contiguous
        memory = rng.standard_normal((B, Tk, self.D)).astype(dtype) if case == "cross" else None
        params = [(0.5 * rng.standard_normal(shape)).astype(dtype)
                  for shape in ((self.D, 3 * self.D), (3 * self.D,), (self.D, self.D), (self.D,))]
        return x, memory, params

    def op(self, memory):
        if memory is None:
            return lambda ts: attention_block(ts[0], None, *ts[1:], self.heads)[0]
        return lambda ts: attention_block(*ts, self.heads)[0]

    def test_matches_single_head_loop(self, rng, case, dtype):
        x, memory, params = self.draw(rng, case, dtype)
        out, weights = attention_block(Tensor(x), None if memory is None else Tensor(memory),
                                       *[Tensor(a) for a in params], self.heads)
        B, Tq, Tk = ATTN_CASES[case]
        assert out.dtype == dtype and weights.dtype == dtype
        assert weights.shape == (B, self.heads, Tq, Tk)
        w_in, b_in, wo, bo = (a.astype(np.float64) for a in params)
        x64 = x.astype(np.float64)
        source = x64 if memory is None else memory.astype(np.float64)
        q, k, v = (a @ w_in[:, i * self.D:(i + 1) * self.D] + b_in[i * self.D:(i + 1) * self.D]
                   for i, a in enumerate((x64, source, source)))
        d = self.D // self.heads
        ctx = np.empty((B, Tq, self.D))
        for b in range(B):
            for h in range(self.heads):
                cols = slice(h * d, (h + 1) * d)
                ctx[b, :, cols] = attention_single_head_loop(q[b, :, cols], k[b, :, cols],
                                                             v[b, :, cols])
        assert_close(out.data, ctx @ wo + bo, dtype)
        assert_close(weights.sum(axis=-1), np.ones((B, self.heads, Tq)), dtype)

    def test_gradients_match_complex_step(self, rng, case, dtype):
        x, memory, params = self.draw(rng, case, dtype)
        arrays = [x] + ([] if memory is None else [memory]) + params
        probe = rng.standard_normal(x.shape)
        out, grads = grads_of(self.op(memory), arrays, probe)
        assert_dtype(out, grads, dtype)

        def f(z):
            mem, rest = (None, z[1:]) if memory is None else (z[1], z[2:])
            return (numpy_attention_block(z[0], mem, *rest, self.heads) * probe).sum()

        arrays64 = [a.astype(np.float64) for a in arrays]
        assert_close(out.data, numpy_attention_block(
            arrays64[0], None if memory is None else arrays64[1],
            *arrays64[-4:], self.heads), dtype)
        for got, ref in zip(grads, complex_step_grads(f, arrays64)):
            assert_close(got, ref, dtype)

    def test_concatenates_nothing(self, rng, case, dtype, monkeypatch):
        """The packed q|k|v projection is read through column views: neither
        the forward nor the backward copies weights or biases together."""
        x, memory, params = self.draw(rng, case, dtype)
        arrays = [x] + ([] if memory is None else [memory]) + params

        def refuse(*args, **kwargs):
            raise AssertionError("attention_block called np.concatenate")

        monkeypatch.setattr(np, "concatenate", refuse)
        out, grads = grads_of(self.op(memory), arrays, rng.standard_normal(x.shape))
        assert_dtype(out, grads, dtype)
        assert grads[-4].shape == (self.D, 3 * self.D) and grads[-3].shape == (3 * self.D,)

    def test_gradients_match_contiguous_float64(self, rng, case, dtype):
        x, memory, params = self.draw(rng, case, dtype, transposed=case != "single")
        arrays = [x] + ([] if memory is None else [memory]) + params
        probe = rng.standard_normal(x.shape)
        out, grads = grads_of(self.op(memory), arrays, probe)
        assert_dtype(out, grads, dtype)
        _, want = grads_of(self.op(memory),
                           [np.ascontiguousarray(a, dtype=np.float64) for a in arrays], probe)
        for got, ref in zip(grads, want):
            assert_close(got, ref, dtype)


def test_attention_rejects_mismatched_shapes():
    x = Tensor(np.zeros((2, 3, 4)))
    w_in, b_in, w_out, b_out = (Tensor(np.zeros(s)) for s in ((4, 12), (12,), (4, 4), (4,)))
    with pytest.raises(ShapeError, match="attention"):
        attention_block(x, Tensor(np.zeros((3, 5, 4))), w_in, b_in, w_out, b_out, heads=2)
    with pytest.raises(ShapeError, match="attention"):
        attention_block(x, Tensor(np.zeros((2, 5, 6))), w_in, b_in, w_out, b_out, heads=2)
    with pytest.raises(ShapeError, match="attention"):
        attention_block(x, None, w_in, b_in, Tensor(np.zeros((4, 5))), b_out, heads=2)
    # three (D, D) blocks stacked by rows are not the packed (D, 3D) projection
    with pytest.raises(ShapeError, match="attention"):
        attention_block(x, None, Tensor(np.zeros((12, 4))), b_in, w_out, b_out, heads=2)
    with pytest.raises(ShapeError, match="3 heads"):
        attention_block(x, None, w_in, b_in, w_out, b_out, heads=3)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(CASES))
def test_feed_forward_matches_numpy_and_complex_step(rng, case, dtype):
    D, F = 5, 7
    x = draw_input(rng, case, D, dtype)
    params = [rng.standard_normal(shape).astype(dtype) for shape in ((D, F), (F,), (F, D), (D,))]
    probe = rng.standard_normal(x.shape)
    out, grads = grads_of(lambda ts: feed_forward(*ts), [x] + params, probe)
    assert_dtype(out, grads, dtype)

    arrays64 = [a.astype(np.float64) for a in [x] + params]
    assert_close(out.data, numpy_feed_forward(*arrays64), dtype)
    want = complex_step_grads(lambda z: (numpy_feed_forward(*z) * probe).sum(), arrays64)
    for got, ref in zip(grads, want):
        assert_close(got, ref, dtype)


def test_feed_forward_rejects_mismatched_weights():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="feed_forward"):
        feed_forward(x, Tensor(np.zeros((5, 6))), Tensor(np.zeros(6)),
                     Tensor(np.zeros((6, 4))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="feed_forward"):
        feed_forward(x, Tensor(np.zeros((4, 6))), Tensor(np.zeros(6)),
                     Tensor(np.zeros((7, 4))), Tensor(np.zeros(4)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(CASES))
def test_gated_unit_matches_numpy_and_complex_step(rng, case, dtype):
    d1, d2, O = 4, 3, 5
    x1 = draw_input(rng, case, d1, dtype)
    x2 = rng.standard_normal(x1.shape[:-1] + (d2,)).astype(dtype)
    params = [rng.standard_normal(shape).astype(dtype)
              for shape in ((d1, O), (O,), (d2, O), (O,), (d1 + d2, O), (O,))]
    probe = rng.standard_normal(x1.shape[:-1] + (O,))
    gate = []

    def op(ts):
        out, z = gated_unit(ts[0], ts[1], pairs(ts[2:]))
        gate.append(z)
        return out

    out, grads = grads_of(op, [x1, x2] + params, probe)
    assert_dtype(out, grads, dtype)
    arrays64 = [a.astype(np.float64) for a in [x1, x2] + params]
    assert_close(out.data, numpy_gated_unit(*arrays64), dtype)
    s = np.concatenate(arrays64[:2], axis=-1) @ arrays64[6] + arrays64[7]
    assert gate[0].dtype == dtype and gate[0].shape == out.shape
    assert_close(gate[0], 1.0 / (1.0 + np.exp(-s)), dtype)
    want = complex_step_grads(lambda z: (numpy_gated_unit(*z) * probe).sum(), arrays64)
    for got, ref in zip(grads, want):
        assert_close(got, ref, dtype)


def test_gated_unit_gate_is_finite_when_saturated():
    x = Tensor(np.full((1, 2, 1), 1000.0))
    w, b = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
    out, z = gated_unit(x, Tensor(-x.data), [(w, b), (w, b), (Tensor(np.ones((2, 1))), b)])
    assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(z))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_residual_norm_matches_composed_dropout_add_norm(rng, dtype, training):
    B, T, D, rate = 3, 5, 6, 0.3
    x, y = (rng.standard_normal((B, T, D)).astype(dtype) for _ in range(2))
    gain, bias = (rng.standard_normal(D).astype(dtype) for _ in range(2))
    probe = rng.standard_normal((B, T, D))
    drop = dropout_mask(Tensor(x), rate, np.random.default_rng(5), training)
    assert (drop is None) == (not training)

    def composed(ts):
        if drop is None:
            return layer_norm(ts[0] + ts[1], ts[2], ts[3])
        keep, scale = drop
        multiplier = keep.astype(ts[1].dtype) * np.asarray(scale, ts[1].dtype)
        return layer_norm(ts[0] + ts[1] * Tensor(multiplier), ts[2], ts[3])

    out, grads = grads_of(lambda ts: residual_norm(ts[0], ts[1], drop, ts[2], ts[3]),
                          [x, y, gain, bias], probe)
    assert_dtype(out, grads, dtype)
    # inverted dropout as a separate multiply, from the same draw: bit-identical
    drawn = np.random.default_rng(5).random(x.shape) >= rate
    dropped = y * (drawn.astype(dtype) / np.asarray(1.0 - rate, dtype)) if training else y
    want = layer_norm(Tensor(x + dropped), Tensor(gain), Tensor(bias)).data
    assert np.array_equal(out.data, want)

    _, ref = grads_of(composed, [a.astype(np.float64) for a in (x, y, gain, bias)], probe)
    for got, r in zip(grads, ref):
        assert_close(got, r, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_dropout_mask_is_a_byte_a_cell(dtype):
    """The keep mask is bool, from the same draw as a float multiplier would
    be, with the scale beside it in the tensor's dtype."""
    shape, rate = (3, 5, 6), 0.3
    keep, scale = dropout_mask(Tensor(np.zeros(shape, dtype)), rate,
                               np.random.default_rng(5), True)
    assert keep.dtype == np.bool_ and keep.itemsize == 1
    assert np.array_equal(keep, np.random.default_rng(5).random(shape) >= rate)
    assert scale.dtype == dtype
    assert scale == np.asarray(1.0, dtype) / np.asarray(1.0 - rate, dtype)


def test_layer_norm_module_routes_the_residual_through_one_node(rng):
    norm = LayerNorm(4)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    out = norm(x, y, None)
    assert out._node.parents == (x, y, norm.gain, norm.bias)
    assert np.array_equal(out.data, norm(x + y).data)


# (B, C_in, C_out, T, K, dilation); "short" cases have T below the padding of 8
CONV_CASES = {"dilated": (2, 3, 4, 9, 3, 2), "undilated": (2, 3, 2, 6, 5, 1),
              "short_1": (2, 2, 3, 1, 5, 4), "short_7": (1, 3, 2, 7, 5, 4)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(CONV_CASES))
def test_dilated_conv1d_matches_direct_sum_and_complex_step(rng, case, dtype):
    B, C_in, C_out, T, K, dilation = CONV_CASES[case]
    x = rng.standard_normal((B, C_in, T)).astype(dtype)
    w = rng.standard_normal((C_out, C_in, K)).astype(dtype)
    b = rng.standard_normal(C_out).astype(dtype)
    probe = rng.standard_normal((B, C_out, T))
    out, grads = grads_of(lambda ts: dilated_conv1d(*ts, dilation), [x, w, b], probe)
    assert_dtype(out, grads, dtype)

    arrays64 = [a.astype(np.float64) for a in (x, w, b)]
    assert_close(out.data, numpy_conv1d(*arrays64, dilation), dtype)
    want = complex_step_grads(lambda z: (numpy_conv1d(*z, dilation) * probe).sum(), arrays64)
    for got, ref in zip(grads, want):
        assert_close(got, ref, dtype)


def attention_op(self_attention):
    """``attention_block`` over (x, memory, parameters), or over (x, parameters)."""
    if self_attention:
        return lambda ts: attention_block(ts[0], None, *ts[1:], heads=2)
    return lambda ts: attention_block(*ts, heads=2)


def residual_norm_op(dropout):
    """``residual_norm`` without dropout, or with the ``KEEP`` dropout of the inputs' dtype."""
    return lambda ts: residual_norm(ts[0], ts[1], KEEP[ts[0].dtype.type] if dropout else None,
                                    ts[2], ts[3])


KEEP = {dtype: dropout_mask(Tensor(np.zeros((2, 3, 4), dtype)), 0.5,
                            np.random.default_rng(3), True) for dtype in DTYPES}

# op over a list of tensors (returning its output, or (output, weights)) and input shapes
NO_MUTATION = {
    "linear": (lambda ts: linear(*ts), [(2, 3, 4), (4, 5), (5,)]),
    "layer_norm": (lambda ts: layer_norm(*ts), [(2, 3, 4), (4,), (4,)]),
    "residual_norm": (residual_norm_op(False), [(2, 3, 4), (2, 3, 4), (4,), (4,)]),
    "residual_norm_dropout": (residual_norm_op(True), [(2, 3, 4), (2, 3, 4), (4,), (4,)]),
    "feed_forward": (lambda ts: feed_forward(*ts), [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)]),
    "self_attention": (attention_op(True), [(2, 5, 4), (4, 12), (12,), (4, 4), (4,)]),
    "cross_attention": (attention_op(False), [(2, 3, 4), (2, 5, 4), (4, 12), (12,), (4, 4), (4,)]),
    "gated_unit": (lambda ts: gated_unit(ts[0], ts[1], pairs(ts[2:]))[0],
                   [(2, 3, 4), (2, 3, 2), (4, 5), (5,), (2, 5), (5,), (6, 5), (5,)]),
    "dilated_conv1d": (lambda ts: dilated_conv1d(*ts, 2), [(2, 3, 6), (4, 3, 3), (4,)]),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(NO_MUTATION))
def test_forward_and_backward_leave_inputs_unwritten(rng, name, dtype):
    op, shapes = NO_MUTATION[name]
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    before = [a.tobytes() for a in arrays]
    keep_before = KEEP[dtype][0].tobytes()
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    result = op(ts)
    out, weights = result if isinstance(result, tuple) else (result, None)
    assert out.dtype == dtype
    (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
    assert [t.data.tobytes() for t in ts] == before
    assert KEEP[dtype][0].tobytes() == keep_before
    if weights is not None:
        B, Tq = out.shape[:2]
        Tk = ts[1].shape[1] if ts[1].ndim == 3 else Tq
        assert weights.shape == (B, 2, Tq, Tk)
        assert_close(weights.sum(axis=-1), np.ones((B, 2, Tq)), dtype)


# B, T and D of the gradient-sum case: 512 frames, as in an ablate_tiny batch
SUM_SHAPE = (8, 64, 16)


def column_sum_case(rng, name, dtype):
    """(op, input arrays, probe ``g``, sums) for op ``name``. ``sums`` maps
    the index of each input whose gradient under ``g`` is a sum over all
    frames to the (frames, P) float64 terms of that sum."""
    B, T, D = SUM_SHAPE

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)
    if name == "dilated_conv1d":
        g = draw(B, D, T).astype(np.float64)
        op, arrays = lambda ts: dilated_conv1d(*ts, 4), [draw(B, 8, T), draw(D, 8, 5), draw(D)]
        return op, arrays, g, {2: g.transpose(0, 2, 1).reshape(-1, D)}
    g = draw(B, T, D).astype(np.float64)
    if name == "linear":
        op, arrays = lambda ts: linear(*ts), [draw(B, T, 6), draw(6, D), draw(D)]
        return op, arrays, g, {2: g.reshape(-1, D)}
    unit = np.ones(D), np.zeros(D)
    if name == "layer_norm":
        op, arrays = lambda ts: layer_norm(*ts), [draw(B, T, D), draw(D), draw(D)]
        xhat = numpy_layer_norm(arrays[0].astype(np.float64), *unit)
    else:
        op = residual_norm_op(False)
        arrays = [draw(B, T, D), draw(B, T, D), draw(D), draw(D)]
        xhat = numpy_layer_norm(arrays[0].astype(np.float64) + arrays[1], *unit)
    n = len(arrays)
    return op, arrays, g, {n - 2: (g * xhat).reshape(-1, D), n - 1: g.reshape(-1, D)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["linear", "dilated_conv1d", "layer_norm", "residual_norm"])
def test_parameter_gradient_sums_match_numpy_column_sums(rng, name, dtype):
    """Bias and gain gradients, summed over all frames by a ones-vector
    product, equal plain NumPy column sums to the dtype's tolerance relative
    to the sum of the terms' magnitudes, and keep the input dtype."""
    op, arrays, g, sums = column_sum_case(rng, name, dtype)
    _, grads = grads_of(op, arrays, g)
    for i, terms in sums.items():
        assert grads[i].dtype == dtype
        err = np.abs(grads[i] - terms.sum(axis=0))
        assert np.all(err <= TOL[dtype] * np.abs(terms).sum(axis=0)), (i, err.max())


# window lengths that are not multiples of a BLAS row block, so the
# windows' rows sit at every offset of one
@pytest.mark.parametrize("W", [13, 29])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("fusion", ["sa", "gmu"])
@pytest.mark.parametrize("conv", ["dilated", "none"])
def test_window_scores_do_not_depend_on_batch_row(precision, fusion, conv, W):
    """A window's scores are bit-identical alone and at the first, a middle or
    the last row of batches of 2, 5 and 33 windows: no per-frame reduction
    goes through BLAS, whose rounding depends on the row's position."""
    cfg = DctmConfig(conv=ConvConfig(kind=conv, channels=8), fusion=FusionConfig(kind=fusion),
                     transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                                     decoder_layers=1, ff_dim=32),
                     precision=precision)
    dims = {"head": 4, "pose": 5, "voice": 3}
    model = DctmModel(cfg, dims, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _, p in model.named_parameters():   # the zero-initialised output projections too
        p.data[...] = p.data + 0.1 * rng.standard_normal(p.shape)
    pool = {m: rng.standard_normal((33, d, W)) for m, d in dims.items()}

    def scores(rows):
        return model({m: a[rows] for m, a in pool.items()}, None).data

    probe = 0
    alone = scores([probe])[0]
    for n in (2, 5, 33):
        for row in (0, n // 2, n - 1):
            rows = list(range(1, n))
            rows.insert(row, probe)
            assert np.array_equal(scores(rows)[row], alone), (n, row)


def partial_mask(rng, B, W):
    """Random (B, W) mask; every window keeps at least 2 frames, one keeps exactly 2."""
    mask = rng.random((B, W)) < 0.6
    for row in mask:
        row[rng.choice(W, size=2, replace=False)] = True
    mask[0] = False
    mask[0, [1, W - 1]] = True
    return mask


class TestCccLoss:
    B, W = 4, 9

    def draw(self, rng, dtype):
        pred = rng.random((self.B, self.W)).astype(dtype)
        return pred, rng.random((self.B, self.W)), partial_mask(rng, self.B, self.W)

    def assert_gradient_matches(self, loss_fn, rng, dtype):
        pred, target, partial = self.draw(rng, dtype)
        for mask in (partial, None):   # None: the unmasked default
            p = Tensor(pred, requires_grad=True)
            loss = loss_fn(p, target, mask)
            assert len(loss._node.parents) == 1 and loss._node.parents[0] is p
            (loss * 3.0).backward()
            assert p.grad.dtype == dtype
            [ref] = complex_step_grads(lambda z: numpy_ccc_loss(z[0], target, mask),
                                       [pred.astype(np.float64)])
            assert_close(p.grad, 3.0 * ref, dtype)
            assert mask is None or not np.any(p.grad[~mask])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_value_is_the_composed_formula_bit_for_bit(self, rng, dtype):
        pred, target, mask = self.draw(rng, dtype)
        got = ccc_loss(Tensor(pred), target, mask)
        want = numpy_ccc_loss(pred, target, mask)
        assert got.dtype == dtype and got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradient_matches_composed_graph(self, rng, dtype):
        self.assert_gradient_matches(ccc_loss, rng, dtype)

    def test_reference_sees_a_gradient_without_its_gap_term(self, rng):
        """``ccc_loss`` with ``gap_b * m`` dropped from its backward fails."""
        source = textwrap.dedent(inspect.getsource(dctm.metrics.ccc_loss))
        assert "(dp + gap * m)" in source
        namespace = dict(vars(dctm.metrics))
        exec(source.replace("(dp + gap * m)", "dp"), namespace)
        with pytest.raises(AssertionError):
            self.assert_gradient_matches(namespace["ccc_loss"], rng, np.float64)

    def test_unmasked_default_matches_all_ones_mask(self, rng):
        pred, target, _ = self.draw(rng, np.float64)
        a, b = Tensor(pred, requires_grad=True), Tensor(pred, requires_grad=True)
        ccc_loss(a, target).backward()
        ccc_loss(b, target, np.ones(pred.shape, dtype=bool)).backward()
        assert np.array_equal(a.grad, b.grad)

    def test_window_with_one_frame_rejected(self, rng):
        pred, target, mask = self.draw(rng, np.float64)
        mask[2] = False
        mask[2, 4] = True
        with pytest.raises(ValueError, match="at least 2"):
            ccc_loss(Tensor(pred), target, mask)
