import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctm.conv import ConvLayerSpec, ConvStack, dilated_conv1d, receptive_field
from dctm.errors import ConfigError, ShapeError
from dctm.reference import conv1d_direct, conv1d_flip
from dctm.tensor import Tensor


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def conv(x, w, bias=None, dilation=1):
    # a zero bias adds +0.0, which is exact: the bias-free equalities stay exact
    b = np.zeros(np.shape(w)[0]) if bias is None else bias
    return dilated_conv1d(t64(x), t64(w), t64(b), dilation).data


class TestDilatedConv:
    def test_center_tap_identity(self, rng):
        x = rng.standard_normal((2, 1, 9))
        w = np.array([[[0.0, 1.0, 0.0]]])
        for dil in (1, 2, 3):
            np.testing.assert_array_equal(conv(x, w, dilation=dil), x)

    def test_worked_example(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
        w = np.array([[[1.0, 1.0, 1.0]]])
        out = conv(x, w, dilation=2)
        assert out[0, 0].tolist() == [4.0, 6.0, 9.0, 6.0, 8.0]

    def test_matches_direct_summation(self, rng):
        for _ in range(50):
            B = int(rng.integers(1, 3))
            C_in = int(rng.integers(1, 4))
            C_out = int(rng.integers(1, 4))
            T = int(rng.integers(1, 12))
            K = int(rng.choice([1, 3, 5]))
            dil = int(rng.integers(1, 4))
            x = rng.standard_normal((B, C_in, T))
            w = rng.standard_normal((C_out, C_in, K))
            bias = rng.standard_normal(C_out)
            np.testing.assert_allclose(
                conv(x, w, bias, dil), conv1d_direct(x, w, bias, dil), atol=1e-12)

    def test_dilation_one_equals_plain_convolution(self, rng):
        # numpy convolve flips the kernel, so cross-correlation needs k reversed
        x = rng.standard_normal((1, 1, 16))
        w = rng.standard_normal((1, 1, 5))
        got = conv(x, w, dilation=1)[0, 0]
        want = np.convolve(x[0, 0], w[0, 0, ::-1], mode="same")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_flip_equivalence_exact(self):
        # integer-valued data keeps float ops exact: reversed-kernel
        # cross-correlation must equal flip-convolution bit for bit
        rng = np.random.default_rng(5)
        x = rng.integers(-4, 5, size=(2, 3, 10)).astype(np.float64)
        w = rng.integers(-4, 5, size=(2, 3, 5)).astype(np.float64)
        for dil in (1, 2):
            got = conv(x, w[:, :, ::-1].copy(), dilation=dil)
            want = conv1d_flip(x, w, dil)
            np.testing.assert_array_equal(got, want)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channel"):
            conv(np.zeros((1, 3, 4)), np.zeros((2, 2, 3)))

    def test_linearity_without_bias(self, rng):
        f1 = rng.standard_normal((1, 2, 8))
        f2 = rng.standard_normal((1, 2, 8))
        w = rng.standard_normal((3, 2, 5))
        lhs = conv(2.0 * f1 - 3.0 * f2, w, dilation=2)
        rhs = 2.0 * conv(f1, w, dilation=2) - 3.0 * conv(f2, w, dilation=2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(T=st.integers(1, 40), K=st.sampled_from([1, 3, 5, 7]), dil=st.integers(1, 5))
    def test_length_preserved(self, T, K, dil):
        out = conv(np.ones((1, 1, T)), np.ones((1, 1, K)), dilation=dil)
        assert out.shape == (1, 1, T)


class TestSpecValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ConvLayerSpec(1, 1, kernel_size=4)

    def test_zero_dilation_rejected(self):
        with pytest.raises(ConfigError, match="dilation"):
            ConvLayerSpec(1, 1, kernel_size=3, dilation=0)


def default_specs(c_in=4, channels=8, dilations=(4, 4, 4)):
    return [
        ConvLayerSpec(c_in, channels, 5, dilations[0]),
        ConvLayerSpec(channels, channels, 5, dilations[1]),
        ConvLayerSpec(channels, channels, 3, dilations[2]),
    ]


class TestConvStack:
    def test_default_stack_preserves_length_64(self, rng):
        stack = ConvStack(default_specs(), rng)
        x = Tensor(rng.standard_normal((2, 4, 64)).astype(np.float32))
        assert stack(x).shape == (2, 8, 64)

    def test_single_identity_layer_passthrough(self, rng):
        stack = ConvStack([ConvLayerSpec(1, 1, 3, 2)], rng, activation="none")
        stack.layers[0].weight.data = np.array([[[0.0, 1.0, 0.0]]], dtype=np.float32)
        x = Tensor(rng.standard_normal((1, 1, 10)).astype(np.float32))
        np.testing.assert_array_equal(stack(x).data, x.data)

    def test_channel_chain_validated(self, rng):
        with pytest.raises(ConfigError, match="channels"):
            ConvStack([ConvLayerSpec(2, 4, 3), ConvLayerSpec(5, 4, 3)], rng)

    def test_receptive_field_values(self):
        assert receptive_field(default_specs()) == 41
        assert receptive_field(default_specs(dilations=(1, 1, 1))) == 11
        assert receptive_field([ConvLayerSpec(1, 1, 3, 1)]) == 3

    def test_perturbation_probe(self, rng):
        # inside the 41-frame receptive field influence is nonzero,
        # outside it the output is bitwise unchanged
        stack = ConvStack(default_specs(c_in=3), rng, activation="relu")
        x = rng.standard_normal((1, 3, 64))
        base = stack(Tensor(x)).data
        xp = x.copy()
        xp[0, :, 0] += 1.0
        out = stack(Tensor(xp)).data
        assert np.max(np.abs(out[0, :, 60] - base[0, :, 60])) == 0.0
        assert np.max(np.abs(out[0, :, 21] - base[0, :, 21])) == 0.0  # distance 21 > RF half-width
        assert np.max(np.abs(out[0, :, 20] - base[0, :, 20])) > 1e-12
        assert np.max(np.abs(out[0, :, 0] - base[0, :, 0])) > 1e-12
