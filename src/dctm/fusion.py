"""Modality fusion: channel concatenation vs hierarchical gated units.

Both strategies take per-modality token sequences shaped (B, T, C_m)
and emit one fused token sequence (B, T, hidden).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import Linear, Module, ModuleList
from .tensor import Tensor, cat, gated_unit


def _check_aligned(streams: list[Tensor], names: list[str]) -> None:
    b0, t0 = streams[0].shape[:2]
    for s, name in zip(streams, names):
        if s.shape[:2] != (b0, t0):
            raise ShapeError(
                f"modality '{name}' is misaligned: {s.shape} vs expected (B={b0}, T={t0}, *)")


class ConcatFusion(Module):
    """Per-frame channel concatenation followed by a linear projection.

    The attention layers downstream do the actual cross-modal mixing; the
    projection only exists to land on the transformer hidden size.
    """

    def __init__(self, in_dims: list[int], hidden: int, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(sum(in_dims), hidden, rng)

    def __call__(self, streams: list[Tensor], names: list[str]) -> Tensor:
        _check_aligned(streams, names)
        merged = cat(streams, axis=-1) if len(streams) > 1 else streams[0]
        return self.proj(merged)


class GmuUnit(Module):
    """Two-input gated unit.

    h1 = tanh(W1 x1), h2 = tanh(W2 x2), z = sigmoid(Wz [x1; x2]);
    output z * h1 + (1 - z) * h2, a per-coordinate convex mix. One
    ``gated_unit`` node; the three ``Linear`` children hold its parameters.
    ``z`` goes to an open `capture`.
    """

    def __init__(self, d1: int, d2: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.d1, self.d2 = d1, d2
        self.transform1 = Linear(d1, out_dim, rng)
        self.transform2 = Linear(d2, out_dim, rng)
        self.gate = Linear(d1 + d2, out_dim, rng)

    def fuse(self, x1: Tensor, x2: Tensor, names=("first", "second")) -> Tensor:
        if x1.shape[-1] != self.d1:
            raise ShapeError(f"gmu input '{names[0]}' has dim {x1.shape[-1]}, expected {self.d1}")
        if x2.shape[-1] != self.d2:
            raise ShapeError(f"gmu input '{names[1]}' has dim {x2.shape[-1]}, expected {self.d2}")
        out, z = gated_unit(
            x1, x2, [(p.weight, p.bias) for p in (self.transform1, self.transform2, self.gate)])
        self.expose(z)
        return out

    __call__ = fuse


class GatedFusion(Module):
    """Hierarchical gated fusion over an ordered list of modalities.

    Modalities are folded left to right: unit_0(m0, m1), then each later
    unit gates the running fusion against the next modality. The last
    unit's gate is the top-level one; ``1 - z`` there is the weight on
    the final (by default: voice) branch.
    """

    def __init__(self, in_dims: list[int], hidden: int, rng: np.random.Generator):
        super().__init__()
        if not in_dims:
            raise ConfigError("gated fusion needs at least one modality")
        if len(in_dims) == 1:
            # degenerate single-modality case: plain tanh transform
            self.solo = Linear(in_dims[0], hidden, rng)
            self.units = ModuleList([])
        else:
            units = [GmuUnit(in_dims[0], in_dims[1], hidden, rng)]
            for d in in_dims[2:]:
                units.append(GmuUnit(hidden, d, hidden, rng))
            self.units = ModuleList(units)

    def __call__(self, streams: list[Tensor], names: list[str]) -> Tensor:
        _check_aligned(streams, names)
        if len(streams) == 1:
            h = self.solo(streams[0])
            out = np.tanh(h.data)
            return Tensor._op(out, (h,), lambda g: (g * (1.0 - out * out),))
        acc = self.units[0].fuse(streams[0], streams[1], names=(names[0], names[1]))
        label = f"{names[0]}+{names[1]}"
        for unit, tok, name in zip(list(self.units)[1:], streams[2:], names[2:]):
            acc = unit.fuse(acc, tok, names=(label, name))
            label = f"{label}+{name}"
        return acc

    def top_gate_toward_last(self, seen: dict) -> float:
        """Mean weight the top unit assigns to the last-fused modality in
        the forward that ``seen`` (a `capture`) recorded."""
        if len(self.units) == 0:
            return 1.0
        z = seen.get(self.units[len(self.units) - 1])
        if z is None:
            raise RuntimeError("the capture recorded no forward pass through this fusion")
        return float(np.mean(1.0 - z))
