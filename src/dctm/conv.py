"""Length-preserving dilated 1-D convolution stacks.

Indexing is centered cross-correlation over a zero-padded input:

    y[b, o, p] = bias[o] + sum_{c, t} xpad[b, c, p + l*(t - (K-1)/2)] * w[o, c, t]

which equals flip-convolution with the kernel reversed. Kernel size must
be odd so the symmetric padding l*(K-1)/2 keeps the output length equal
to the input length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import Module, ModuleList
from .tensor import Tensor, xavier_uniform, zeros


@dataclass(frozen=True)
class ConvLayerSpec:
    in_channels: int
    out_channels: int
    kernel_size: int
    dilation: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError(f"channel counts must be positive, got {self}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be a positive odd integer, got {self.kernel_size}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")


def dilated_conv1d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int) -> Tensor:
    """Apply one dilated conv layer.

    x: (B, C_in, T), weight: (C_out, C_in, K), bias: (C_out,); a bias-free
    kernel takes zeros, which add exactly. Returns (B, C_out, T). Tap k
    reads the padded slice at dilation*k, so the forward is K accumulated
    GEMMs and the backward keeps only the padded input.
    """
    B, C_in, T = x.shape
    C_out, C_w, K = weight.shape
    if C_w != C_in:
        raise ShapeError(f"conv channel mismatch: input {x.shape} vs kernel {weight.shape}")
    pad = dilation * (K - 1) // 2
    xpad = np.zeros((B, C_in, T + 2 * pad), dtype=x.dtype)
    xpad[:, :, pad:pad + T] = x.data
    w, input_grad = weight.data, x.requires_grad
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (K, C_out, C_in)
    out = taps[0] @ xpad[:, :, :T]
    for k in range(1, K):
        out += taps[k] @ xpad[:, :, dilation * k:dilation * k + T]
    out += bias.data[:, None]

    def bw(g):
        gx = _conv_input_grad(g, w, dilation, (B, C_in, T), pad) if input_grad else None
        g2 = g.transpose(1, 0, 2).reshape(C_out, B * T)
        gw = np.empty_like(w)
        for k in range(K):
            xs = xpad[:, :, dilation * k:dilation * k + T]
            gw[:, :, k] = g2 @ xs.transpose(1, 0, 2).reshape(C_in, B * T).T
        return gx, gw, g2 @ np.ones(B * T, g.dtype)

    return Tensor._op(out, (x, weight, bias), bw)


def _conv_input_grad(g: np.ndarray, w: np.ndarray, dilation: int,
                     x_shape: tuple, pad: int) -> np.ndarray:
    """Scatter the output gradient back through the taps: K GEMM
    accumulations into the padded slices the forward read."""
    B, C_in, T = x_shape
    taps_t = np.ascontiguousarray(w.transpose(2, 1, 0))  # (K, C_in, C_out)
    gpad = np.zeros((B, C_in, T + 2 * pad), dtype=g.dtype)
    for k in range(w.shape[2]):
        gpad[:, :, dilation * k:dilation * k + T] += taps_t[k] @ g
    return gpad[:, :, pad:pad + T] if pad else gpad


class ConvLayer(Module):
    def __init__(self, spec: ConvLayerSpec, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        fan_in = spec.in_channels * spec.kernel_size
        fan_out = spec.out_channels * spec.kernel_size
        self.weight = xavier_uniform(
            rng, (spec.out_channels, spec.in_channels, spec.kernel_size),
            fan_in=fan_in, fan_out=fan_out)
        self.bias = zeros((spec.out_channels,))

    def __call__(self, x: Tensor) -> Tensor:
        return dilated_conv1d(x, self.weight, self.bias, self.spec.dilation)


class ConvStack(Module):
    """Sequential dilated conv layers with an activation between layers.

    The activation sits strictly between layers (none after the last);
    a single-layer stack is therefore purely linear.
    """

    def __init__(self, specs: list[ConvLayerSpec], rng: np.random.Generator,
                 activation: str = "relu"):
        super().__init__()
        if not specs:
            raise ConfigError("ConvStack needs at least one layer")
        for a, b in zip(specs, specs[1:]):
            if a.out_channels != b.in_channels:
                raise ConfigError(
                    f"adjacent conv layers disagree on channels: {a.out_channels} -> {b.in_channels}")
        if activation not in ("relu", "tanh", "none"):
            raise ConfigError(f"unknown conv activation '{activation}'")
        self.activation = activation
        self.layers = ModuleList([ConvLayer(s, rng) for s in specs])

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                if self.activation == "relu":
                    x = x.relu()
                elif self.activation == "tanh":
                    x = x.tanh()
        return x


def receptive_field(specs: list[ConvLayerSpec]) -> int:
    """Width of the input span that can influence one output frame."""
    return 1 + sum(s.dilation * (s.kernel_size - 1) for s in specs)
