"""Frame-wise transformer regressor.

Non-autoregressive encoder-decoder: both sides consume the same fused
token sequence, the decoder additionally cross-attends to encoder
memory, and a sigmoid head maps each decoded frame to a score in (0,1).
Post-norm residual blocks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .layers import Linear, LayerNorm, Module, ModuleList, dropout_mask
from .tensor import Tensor, attention


@dataclass(frozen=True)
class TransformerSettings:
    hidden: int = 128
    heads: int = 8
    encoder_layers: int = 4
    decoder_layers: int = 4
    ff_dim: int = 512
    dropout: float = 0.1
    use_positional: bool = True

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@lru_cache(maxsize=8)
def _pe_table(T: int, D: int, dtype_name: str) -> np.ndarray:
    pos = np.arange(T, dtype=np.float64)[:, None]
    i = np.arange(0, D, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, i / D)
    table = np.zeros((T, D))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table.astype(dtype_name)


def positional_encoding(T: int, D: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal table; row p interleaves sin/cos of p at D/2 frequencies."""
    if D % 2 != 0:
        raise ConfigError(f"positional encoding needs even hidden size, got {D}")
    return _pe_table(T, D, np.dtype(dtype).name)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``heads`` parallel subspaces.

    ``last_attn`` keeps the most recent (B, H, T_q, T_k) weight array for
    inspection; it references the forward buffer, no extra copy is made.
    """

    def __init__(self, hidden: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if hidden % heads != 0:
            raise ConfigError(f"hidden={hidden} not divisible by heads={heads}")
        self.heads = heads
        self.wq = Linear(hidden, hidden, rng)
        self.wk = Linear(hidden, hidden, rng)
        self.wv = Linear(hidden, hidden, rng)
        # Zero output projection: each attention block starts as a no-op on
        # the residual stream, which keeps the post-norm stack trainable at
        # learning rates around 1e-3 (random init collapses to a constant).
        self.wo = Linear(hidden, hidden, rng, zero_init=True)
        self.last_attn: np.ndarray | None = None

    def __call__(self, x: Tensor, memory: Tensor | None = None) -> Tensor:
        source = x if memory is None else memory
        ctx, self.last_attn = attention(self.wq(x), self.wk(source), self.wv(source),
                                        self.heads)
        return self.wo(ctx)


class FeedForward(Module):
    def __init__(self, hidden: int, ff_dim: int, rng: np.random.Generator):
        super().__init__()
        self.expand = Linear(hidden, ff_dim, rng)
        # Zero contraction for the same reason as the attention output
        # projection: the block contributes nothing until trained.
        self.contract = Linear(ff_dim, hidden, rng, zero_init=True)

    def __call__(self, x: Tensor) -> Tensor:
        return self.contract(self.expand(x).relu())


class EncoderLayer(Module):
    def __init__(self, cfg: TransformerSettings, rng: np.random.Generator):
        super().__init__()
        self.attn = MultiHeadAttention(cfg.hidden, cfg.heads, rng)
        self.norm1 = LayerNorm(cfg.hidden)
        self.ff = FeedForward(cfg.hidden, cfg.ff_dim, rng)
        self.norm2 = LayerNorm(cfg.hidden)
        self.rate = cfg.dropout

    def __call__(self, x: Tensor, rng, training: bool) -> Tensor:
        x = self.norm1(x, self.attn(x), dropout_mask(x, self.rate, rng, training))
        x = self.norm2(x, self.ff(x), dropout_mask(x, self.rate, rng, training))
        return x


class DecoderLayer(Module):
    def __init__(self, cfg: TransformerSettings, rng: np.random.Generator):
        super().__init__()
        self.self_attn = MultiHeadAttention(cfg.hidden, cfg.heads, rng)
        self.norm1 = LayerNorm(cfg.hidden)
        self.cross_attn = MultiHeadAttention(cfg.hidden, cfg.heads, rng)
        self.norm2 = LayerNorm(cfg.hidden)
        self.ff = FeedForward(cfg.hidden, cfg.ff_dim, rng)
        self.norm3 = LayerNorm(cfg.hidden)
        self.rate = cfg.dropout

    def __call__(self, x: Tensor, memory: Tensor, rng, training: bool) -> Tensor:
        x = self.norm1(x, self.self_attn(x), dropout_mask(x, self.rate, rng, training))
        x = self.norm2(x, self.cross_attn(x, memory=memory),
                       dropout_mask(x, self.rate, rng, training))
        x = self.norm3(x, self.ff(x), dropout_mask(x, self.rate, rng, training))
        return x


class EncoderDecoder(Module):
    """Auto-encoding regressor core: both stacks read the same tokens."""

    def __init__(self, cfg: TransformerSettings, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.encoder = ModuleList([EncoderLayer(cfg, rng) for _ in range(cfg.encoder_layers)])
        self.decoder = ModuleList([DecoderLayer(cfg, rng) for _ in range(cfg.decoder_layers)])

    def __call__(self, tokens: Tensor, rng, training: bool = False) -> Tensor:
        B, T, D = tokens.shape
        if self.cfg.use_positional:
            tokens = tokens + Tensor(positional_encoding(T, D, tokens.dtype))
        memory = tokens
        for layer in self.encoder:
            memory = layer(memory, rng, training)
        x = tokens
        for layer in self.decoder:
            x = layer(x, memory, rng, training)
        return x

    def attention_maps(self) -> dict[str, list[np.ndarray]]:
        """Attention weights from the most recent forward pass, grouped by role."""
        return {
            "encoder_self": [l.attn.last_attn for l in self.encoder
                             if l.attn.last_attn is not None],
            "decoder_self": [l.self_attn.last_attn for l in self.decoder
                             if l.self_attn.last_attn is not None],
            "decoder_cross": [l.cross_attn.last_attn for l in self.decoder
                              if l.cross_attn.last_attn is not None],
        }


class RegressionHead(Module):
    """Per-frame linear map to a scalar, squashed into (0,1) by a sigmoid."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__()
        # Starts at sigmoid(0) = 0.5 everywhere; avoids saturated outputs
        # (and vanishing sigmoid gradients) at the start of training.
        self.out = Linear(hidden, 1, rng, zero_init=True)

    def __call__(self, decoded: Tensor) -> Tensor:
        B, T, _ = decoded.shape
        return self.out(decoded).sigmoid().reshape(B, T)
