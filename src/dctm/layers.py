"""Small module system: parameter registration plus the basic layers."""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .tensor import Tensor, linear, residual_norm, xavier_uniform, zeros, ones


_capture = threading.local()


@contextlib.contextmanager
def capture():
    """{module: array} of what modules `expose` (attention weights, GMU
    gates) in forwards on this thread inside the block. Forwards outside
    one keep none, and free them with their other buffers."""
    outer = getattr(_capture, "seen", None)
    _capture.seen = seen = {}
    try:
        yield seen
    finally:
        _capture.seen = outer


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

    def expose(self, array: np.ndarray) -> None:
        """Hand ``array`` to this thread's open `capture`, if there is one."""
        seen = getattr(_capture, "seen", None)
        if seen is not None:
            seen[self] = array


class Arena:
    """Named parameters packed into one flat buffer, ``flat``, of one dtype.

    Each parameter's ``.data`` becomes the contiguous view of ``flat`` at
    its offset, in the given order: for a model, ``named_parameters()``,
    the checkpoint record order. This is the one place that binds
    ``.data``; everything else writes into the views, so they stay views.
    ``dtype`` casts the values (as ``astype`` would); without it the
    parameters must share one. A parameter made by `zeros` or `ones` is a
    read-only zero-stride view until it is packed here. ``fill=False``
    leaves every value zero, for parameters a checkpoint will supply: the
    buffer's pages are first touched when the checkpoint is read into it."""

    def __init__(self, named, dtype=None, fill: bool = True):
        self.params = list(named)
        if dtype is None:
            dtypes = {p.data.dtype for _, p in self.params}
            if len(dtypes) > 1:
                raise TypeError(f"an arena needs parameters of one dtype, "
                                f"got {sorted(map(str, dtypes))}")
            dtype = dtypes.pop() if dtypes else np.float64
        self.starts = np.cumsum([0] + [p.data.size for _, p in self.params])
        self.flat = np.zeros(int(self.starts[-1]), dtype)
        for (_, p), view in zip(self.params, self.views(self.flat)):
            if fill:
                view[...] = p.data
            p.data = view

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's slice of ``flat``, a buffer in this layout, in its shape."""
        return [flat[s:e].reshape(p.data.shape)
                for s, e, (_, p) in zip(self.starts, self.starts[1:], self.params)]

    def locate(self, index: int) -> tuple[str, tuple[int, ...]]:
        """The name of the parameter holding flat element ``index``, and the
        element's index in that parameter."""
        i = int(np.searchsorted(self.starts, index, side="right")) - 1
        name, p = self.params[i]
        return name, tuple(map(int, np.unravel_index(index - self.starts[i], p.data.shape)))


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

    def __call__(self, x: Tensor, branch: Tensor, drop: tuple | None) -> Tensor:
        """The post-norm residual ``norm(x + dropout(branch))`` with ``drop``
        from ``dropout_mask``."""
        return residual_norm(x, branch, drop, self.gain, self.bias)


def dropout_mask(like: Tensor, rate: float, rng: np.random.Generator,
                 training: bool) -> tuple[np.ndarray, np.generic] | None:
    """Inverted dropout for a tensor shaped like ``like``: a ``(keep, scale)``
    pair of a bool mask, true for the cells kept, and ``1 / (1 - rate)`` in
    ``like``'s dtype. None (no dropout) when not training or rate == 0. The
    mask is a byte a cell; ``residual_norm`` applies it as ``(y * scale) *
    keep``."""
    if not training or rate <= 0.0:
        return None
    keep = rng.random(like.shape) >= rate
    return keep, np.asarray(1.0, like.dtype) / np.asarray(1.0 - rate, like.dtype)
