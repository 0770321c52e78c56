"""Small module system: parameter registration plus the basic layers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, layer_norm, linear, residual_norm, xavier_uniform, zeros, ones


class Module:
    """Tracks parameters and submodules in attribute-assignment order.

    The resulting ``named_parameters()`` order is the checkpoint record
    order, so it must be deterministic for a given architecture.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield f"{prefix}{name}", p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._items = []
        for i, m in enumerate(modules):
            setattr(self, str(i), m)
            self._items.append(m)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


class Linear(Module):
    """y = x @ W + b with Xavier-uniform W.

    ``zero_init`` starts W at zero instead — used for residual-branch
    output projections and the scoring head, so deep post-norm stacks
    begin as identity maps and stay stable at large learning rates.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 zero_init: bool = False):
        super().__init__()
        if zero_init:
            self.weight = zeros((in_dim, out_dim))
        else:
            self.weight = xavier_uniform(rng, (in_dim, out_dim))
        self.bias = zeros((out_dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gain = ones((dim,))
        self.bias = zeros((dim,))

    def __call__(self, x: Tensor, branch: Tensor | None = None,
                 keep: np.ndarray | None = None) -> Tensor:
        """``norm(x)``, or the post-norm residual ``norm(x + branch * keep)``."""
        if branch is None:
            return layer_norm(x, self.gain, self.bias)
        return residual_norm(x, branch, keep, self.gain, self.bias)


def dropout_mask(like: Tensor, rate: float, rng: np.random.Generator,
                 training: bool) -> np.ndarray | None:
    """Inverted-dropout multiplier shaped like ``like``: 0 or 1 / (1 - rate)
    per cell. None (no dropout) when not training or rate == 0."""
    if not training or rate <= 0.0:
        return None
    keep = (rng.random(like.shape) >= rate).astype(like.dtype)
    return keep / np.asarray(1.0 - rate, dtype=like.dtype)
