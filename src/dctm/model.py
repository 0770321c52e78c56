"""The frame-wise engagement regressor: per-modality dilated conv stacks,
modality fusion, a non-autoregressive encoder-decoder, and a sigmoid head.

Input is a dict of (B, C_m, W) feature blocks keyed by modality; output
is a (B, W) score matrix in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DctmConfig
from .conv import ConvLayerSpec, ConvStack
from .errors import ConfigError, ShapeError
from .fusion import ConcatFusion, GatedFusion
from .layers import Arena, Module, capture
from .tensor import Tensor, no_grad
from .transformer import EncoderDecoder, RegressionHead


def conv_specs(cfg: DctmConfig, in_channels: int) -> list[ConvLayerSpec]:
    """Layer specs for one modality's stack under the configured conv kind."""
    dilations = cfg.conv.effective_dilations()
    specs = []
    c_in = in_channels
    for k, d in zip(cfg.conv.kernels, dilations):
        specs.append(ConvLayerSpec(c_in, cfg.conv.channels, k, d))
        c_in = cfg.conv.channels
    return specs


@dataclass
class Inspection:
    """An evaluation forward's scores, its (B, H, T_q, T_k) attention
    weights by role in layer order, its GMU gates ``z`` in fusion order,
    and the top gate's mean weight on the last modality (None for sa)."""
    scores: np.ndarray
    attention: dict[str, list[np.ndarray]]
    gates: list[np.ndarray]
    gate_toward_last_modality: float | None


class DctmModel(Module):
    """Assembled regressor; architecture is fixed by (config, feature dims).

    ``rng`` draws the initial weights. With None nothing is drawn and every
    parameter is zero, for a model whose parameters come from a checkpoint:
    the model then owns no parameter memory but its arena, whose pages are
    first touched when `load_checkpoint` reads into it. Every parameter's
    ``.data`` is a view of one flat buffer, ``arena``, which `Adam` updates
    and `fit` snapshots."""

    def __init__(self, cfg: DctmConfig, feature_dims: dict[str, int],
                 rng: np.random.Generator | None):
        super().__init__()
        self.cfg = cfg
        self.modalities = list(cfg.data.modalities)
        for m in self.modalities:
            if m not in feature_dims:
                raise ConfigError(f"no feature dimension given for modality {m!r}")
        self.feature_dims = {m: feature_dims[m] for m in self.modalities}

        self.stacks = {}
        if cfg.conv.kind == "none":
            fused_dims = [self.feature_dims[m] for m in self.modalities]
        else:
            for m in self.modalities:
                stack = ConvStack(conv_specs(cfg, self.feature_dims[m]), rng)
                setattr(self, f"conv_{m}", stack)
                self.stacks[m] = stack
            fused_dims = [cfg.conv.channels for _ in self.modalities]

        hidden = cfg.transformer.hidden
        if cfg.fusion.kind == "sa":
            self.fusion = ConcatFusion(fused_dims, hidden, rng)
        else:
            self.fusion = GatedFusion(fused_dims, hidden, rng)
        self.core = EncoderDecoder(cfg.transformer, rng)
        self.head = RegressionHead(hidden, rng)
        # The one place parameters take the configured precision: modules
        # draw in float64, and packing casts, so float32 and float64 models
        # hold the same initial values from the same rng draws. Without
        # draws every parameter is a zero-stride constant (`zeros`, `ones`)
        # and nothing is copied.
        self.arena = Arena(self.named_parameters(), cfg.dtype, fill=rng is not None)

    def __call__(self, features: dict[str, np.ndarray], rng,
                 training: bool = False) -> Tensor:
        streams = []
        for m in self.modalities:
            if m not in features:
                raise ShapeError(f"batch is missing modality {m!r}")
            block = features[m]
            if block.ndim != 3 or block.shape[1] != self.feature_dims[m]:
                raise ShapeError(
                    f"modality {m!r} expects (B, {self.feature_dims[m]}, W) "
                    f"features, got {block.shape}")
            x = np.asarray(block, dtype=self.cfg.dtype)
            # with no conv the tokens are a view of the features, which take no gradient
            streams.append(self.stacks[m](Tensor(x)) if self.stacks
                           else Tensor(x.transpose(0, 2, 1)))
        tokens = self.fusion(streams, self.modalities)
        decoded = self.core(tokens, rng, training=training)
        return self.head(decoded)

    def inspect(self, features: dict[str, np.ndarray]) -> Inspection:
        """Score ``features`` on the calling thread, without dropout or a
        graph, and return what the forward exposed. Other forwards keep
        none of it."""
        with no_grad(), capture() as seen:
            scores = self(features, None).data
        attention = {"encoder_self": [seen[layer.attn] for layer in self.core.encoder],
                     "decoder_self": [seen[layer.self_attn] for layer in self.core.decoder],
                     "decoder_cross": [seen[layer.cross_attn] for layer in self.core.decoder]}
        if not isinstance(self.fusion, GatedFusion):
            return Inspection(scores, attention, [], None)
        return Inspection(scores, attention, [seen[unit] for unit in self.fusion.units],
                          self.fusion.top_gate_toward_last(seen))
