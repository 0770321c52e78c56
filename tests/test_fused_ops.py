"""The fused ops ``linear``, ``layer_norm`` and ``attention`` against numpy
and loop references, in float64 and float32.

Each op is one tape node with a hand-written backward, so these tests pin
its forward to an independent formula, its backward to the same math
composed from primitive ops, and its dtype: a float32 input gives a float32
output and float32 gradients.
"""

import numpy as np
import pytest

from dctm.errors import ShapeError
from dctm.reference import attention_single_head_loop
from dctm.tensor import Tensor, attention, layer_norm, linear

TOL = {np.float64: 1e-12, np.float32: 1e-5}
DTYPES = [np.float64, np.float32]

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


def composed_layer_norm(x, gain, bias):
    """LayerNorm from primitive tape ops: the reference for the fused backward."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + 1e-5) ** -0.5 * gain + bias


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

    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=-1, keepdims=True)
    assert_close(out.data, (x64 - mu) / np.sqrt(var + 1e-5) * gain + bias, dtype)

    arrays64 = [a.astype(np.float64) for a in (x, gain, bias)]
    _, want = grads_of(lambda ts: composed_layer_norm(*ts), arrays64, probe)
    for got, ref in zip(grads, want):
        assert_close(got, ref, dtype)


# (B, Tq, Tk): self-attention, cross-attention and a single frame
ATTN_CASES = {"self": (2, 4, 4), "cross": (3, 2, 5), "single": (1, 1, 1)}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(ATTN_CASES))
class TestAttention:
    heads, D = 2, 6

    def draw(self, rng, case, dtype, transposed=False):
        B, Tq, Tk = ATTN_CASES[case]
        q = rng.standard_normal((B, Tq, self.D)).astype(dtype)
        if transposed:
            q = np.ascontiguousarray(q.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert not q.flags.c_contiguous
        k = rng.standard_normal((B, Tk, self.D)).astype(dtype)
        v = rng.standard_normal((B, Tk, self.D)).astype(dtype)
        return q, k, v

    def test_matches_single_head_loop(self, rng, case, dtype):
        q, k, v = self.draw(rng, case, dtype)
        ctx, weights = attention(Tensor(q), Tensor(k), Tensor(v), self.heads)
        B, Tq, Tk = ATTN_CASES[case]
        assert ctx.dtype == dtype and weights.dtype == dtype
        assert weights.shape == (B, self.heads, Tq, Tk)
        d = self.D // self.heads
        for b in range(B):
            for h in range(self.heads):
                cols = slice(h * d, (h + 1) * d)
                want = attention_single_head_loop(*(a[b, :, cols].astype(np.float64)
                                                    for a in (q, k, v)))
                assert_close(ctx.data[b, :, cols], want, dtype)
        assert_close(weights.sum(axis=-1), np.ones((B, self.heads, Tq)), dtype)

    def test_gradients_match_contiguous_float64(self, rng, case, dtype):
        arrays = self.draw(rng, case, dtype, transposed=case != "single")
        probe = rng.standard_normal(arrays[0].shape)
        op = lambda ts: attention(ts[0], ts[1], ts[2], self.heads)[0]  # noqa: E731
        out, grads = grads_of(op, list(arrays), probe)
        assert_dtype(out, grads, dtype)
        _, want = grads_of(op, [np.ascontiguousarray(a, dtype=np.float64) for a in arrays],
                           probe)
        for got, ref in zip(grads, want):
            assert_close(got, ref, dtype)


def test_attention_rejects_mismatched_shapes():
    q = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="attention"):
        attention(q, Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 6, 4))), heads=2)
    with pytest.raises(ShapeError, match="3 heads"):
        attention(q, q, q, heads=3)
