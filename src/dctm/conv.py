"""Length-preserving dilated 1-D convolution stacks.

Indexing is centered cross-correlation over a zero-padded input:

    y[b, o, p] = bias[o] + sum_{c, t} xpad[b, c, p + l*(t - (K-1)/2)] * w[o, c, t]

which equals flip-convolution with the kernel reversed. Kernel size must
be odd so the symmetric padding l*(K-1)/2 keeps the output length equal
to the input length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def conv_stack(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]],
               dilations: Sequence[int]) -> Tensor:
    """A stack of dilated conv layers as one tape node, with a relu between
    layers and none after the last.

    x: (B, C_in, T); ``layers`` holds each layer's weight (C_out, C_in, K)
    and bias (C_out,); a bias-free kernel takes zeros, which add exactly.
    Returns the last layer's (B, C_out, T) output as its (B, T, C_out)
    transposed view: channels-last tokens. Each layer copies its input into
    a zeroed padded buffer (a hidden layer's relu writes straight into it)
    and tap k reads the padded slice at dilation*k, so the forward is K
    accumulated GEMMs per layer. The backward keeps only the padded inputs,
    whose positive cells are the relu masks; it scatters no gradient into
    an ``x`` that takes none.
    """
    B, _, T = x.shape
    h, saved = x.data, []
    for i, ((weight, bias), dilation) in enumerate(zip(layers, dilations)):
        w = weight.data
        C_out, C_in, K = w.shape
        if h.shape[1] != C_in:
            raise ShapeError(f"conv channel mismatch: input {h.shape} vs kernel {w.shape}")
        pad = dilation * (K - 1) // 2
        xpad = np.zeros((B, C_in, T + 2 * pad), dtype=x.dtype)
        if i:   # the relu between layers
            np.maximum(h, 0, out=xpad[:, :, pad:pad + T])
        else:
            xpad[:, :, pad:pad + T] = h
        taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (K, C_out, C_in)
        h = taps[0] @ xpad[:, :, :T]
        for k in range(1, K):
            h += taps[k] @ xpad[:, :, dilation * k:dilation * k + T]
        h += bias.data[:, None]
        saved.append((xpad, w, dilation, pad))
    input_grad = x.requires_grad

    def bw(g):
        g, grads = g.transpose(0, 2, 1), []
        for i in reversed(range(len(saved))):
            xpad, w, dilation, pad = saved[i]
            C_out, C_in, K = w.shape
            gx = (_conv_input_grad(g, w, dilation, (B, C_in, T), pad)
                  if i or input_grad else None)
            g2 = g.transpose(1, 0, 2).reshape(C_out, B * T)
            gw = np.empty_like(w)
            for k in range(K):
                xs = xpad[:, :, dilation * k:dilation * k + T]
                gw[:, :, k] = g2 @ xs.transpose(1, 0, 2).reshape(C_in, B * T).T
            grads[:0] = [gw, g2 @ np.ones(B * T, g.dtype)]
            g = gx * (xpad[:, :, pad:pad + T] > 0) if i else gx
        return (g, *grads)

    return Tensor._op(h.transpose(0, 2, 1), (x, *(p for pair in layers for p in pair)), bw)


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


class ConvStack(Module):
    """Sequential dilated conv layers with a relu strictly between layers
    (none after the last), run as one `conv_stack` node; a single-layer
    stack is therefore purely linear. Takes (B, C_in, T) features and
    returns (B, T, C_out) tokens."""

    def __init__(self, specs: list[ConvLayerSpec], rng: np.random.Generator):
        super().__init__()
        if not specs:
            raise ConfigError("ConvStack needs at least one layer")
        for a, b in zip(specs, specs[1:]):
            if a.out_channels != b.in_channels:
                raise ConfigError(
                    f"adjacent conv layers disagree on channels: {a.out_channels} -> {b.in_channels}")
        self.layers = ModuleList([ConvLayer(s, rng) for s in specs])

    def __call__(self, x: Tensor) -> Tensor:
        return conv_stack(x, [(layer.weight, layer.bias) for layer in self.layers],
                          [layer.spec.dilation for layer in self.layers])
