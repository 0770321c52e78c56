"""Dense tensor with reverse-mode automatic differentiation.

Values live in numpy arrays. Parameter factories create float64
arrays; ``DctmModel`` casts its parameters once to the configured
precision, and every op keeps its inputs' dtype, so a float32 model
computes its loss, gradients and optimizer state in float32. Every op
records its parents and a backward closure on the output tensor;
``backward()`` on a scalar walks the graph once in reverse topological
order and accumulates gradients into ``.grad``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Sequence

import numpy as np

from .errors import ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a_shape: tuple, b_shape: tuple, op: str) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a_shape} and {b_shape} do not broadcast") from None


class Tensor:
    """n-d array plus optional gradient buffer and graph linkage."""

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        # a full reduction yields an np.generic: keep its dtype, so a float32
        # loss stays float32; plain Python numbers become float64
        self.data = data if isinstance(data, np.ndarray) else np.asarray(
            data, dtype=getattr(data, "dtype", np.float64))
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # scalars follow this tensor's dtype so float32 graphs stay float32
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        if _grad_enabled and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
        return Tensor(data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``requires_grad`` tensor."""
        if self.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "add")
        out = self.data + other.data
        a, b = self, other
        return Tensor._op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "sub")
        out = self.data - other.data
        a, b = self, other
        return Tensor._op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "mul")
        out = self.data * other.data
        a, b = self, other
        return Tensor._op(
            out, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "div")
        out = self.data / other.data
        a, b = self, other

        def bw(g):
            return (_unbroadcast(g / b.data, a.shape),
                    _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._op(out, (a, b), bw)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        a = self
        return Tensor._op(-self.data, (a,), lambda g: (-g,))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        out = self.data ** p
        return Tensor._op(out, (a,), lambda g: (g * p * a.data ** (p - 1),))

    # -- pointwise nonlinearities -------------------------------------------

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        a = self
        return Tensor._op(out, (a,), lambda g: (g * (1.0 - out * out),))

    def sigmoid(self) -> "Tensor":
        x = self.data
        # stable form; exp only ever sees non-positive arguments
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, e) / (1.0 + e)
        a = self
        return Tensor._op(out, (a,), lambda g: (g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0)
        a = self
        return Tensor._op(out, (a,), lambda g: (g * (a.data > 0),))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = self.data.sum(axis=axis, keepdims=keepdims)
        axes = _normalize_axes(axis, self.ndim)

        def bw(g):
            gg = g
            if not keepdims and axes is not None:
                gg = np.expand_dims(g, axes)
            return (np.broadcast_to(gg, a.shape),)

        return Tensor._op(out, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = self.data.mean(axis=axis, keepdims=keepdims)
        axes = _normalize_axes(axis, self.ndim)
        n = self.size if axes is None else int(np.prod([self.shape[i] for i in axes]))

        def bw(g):
            gg = g
            if not keepdims and axes is not None:
                gg = np.expand_dims(g, axes)
            return (np.broadcast_to(gg, a.shape) / n,)

        return Tensor._op(out, (a,), bw)

    # -- linear algebra -----------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
        _check_broadcast(a.shape[:-2], b.shape[:-2], "matmul batch dims")
        out = a.data @ b.data

        def bw(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb

        return Tensor._op(out, (a, b), bw)

    # -- shape manipulation -------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out = self.data.reshape(shape)
        return Tensor._op(out, (a,), lambda g: (g.reshape(a.shape),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = tuple(np.argsort(axes))
        out = self.data.transpose(axes)
        return Tensor._op(out, (a,), lambda g: (g.transpose(inv),))


def _normalize_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _toposort(root: Tensor) -> list:
    """Iterative DFS post-order; inputs of an op always precede it."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# -- free functions ---------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x``.

    ``x`` is flattened to (N, D), so the forward and both backward
    products are single 2-D GEMMs; the weight gradient needs no
    broadcast sum over leading axes.
    """
    D, O = weight.shape
    if x.shape[-1] != D:
        raise ShapeError(f"linear: input {x.shape} does not match weight {weight.shape}")
    x2 = x.data.reshape(-1, D)
    out = (x2 @ weight.data + bias.data).reshape(*x.shape[:-1], O)

    def bw(g):
        g2 = g.reshape(-1, O)
        return (g2 @ weight.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return Tensor._op(out, (x, weight, bias), bw)


def _layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + 1e-5) ** -0.5
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    gxh = g * gain
    gx = inv * (gxh - gxh.mean(axis=-1, keepdims=True)
                - xhat * (gxh * xhat).mean(axis=-1, keepdims=True))
    g2 = g.reshape(-1, g.shape[-1])
    return gx, (g * xhat).reshape(g2.shape).sum(axis=0), g2.sum(axis=0)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    Population variance with eps 1e-5. One tape node; the backward is the
    closed form of Ba et al. 2016 (arXiv 1607.06450) in terms of the saved
    normalized input ``xhat`` and inverse deviation ``inv``.
    """
    out, xhat, inv = _layer_norm_forward(x.data, gain.data, bias.data)
    return Tensor._op(out, (x, gain, bias),
                      lambda g: _layer_norm_backward(g, xhat, inv, gain.data))


def residual_norm(x: Tensor, y: Tensor, keep: np.ndarray | None, gain: Tensor,
                  bias: Tensor) -> Tensor:
    """``layer_norm(x + y * keep)`` as one tape node: a post-norm residual.

    ``keep`` is the inverted-dropout multiplier of branch ``y`` (0 or
    1 / (1 - rate) per cell), or None for no dropout. The backward is
    ``layer_norm``'s; ``x`` receives its input gradient and ``y`` that
    gradient times ``keep``.
    """
    s = x.data + (y.data if keep is None else y.data * keep)
    out, xhat, inv = _layer_norm_forward(s, gain.data, bias.data)

    def bw(g):
        gs, ggain, gbias = _layer_norm_backward(g, xhat, inv, gain.data)
        return gs, (gs if keep is None else gs * keep), ggain, gbias

    return Tensor._op(out, (x, y, gain, bias), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` is (B, Tq, D) and ``k``, ``v`` are (B, Tk, D), already projected;
    each is split into ``heads`` subspaces of D / heads. Returns the merged
    context (B, Tq, D) and the softmax weights (B, heads, Tq, Tk). The
    1/sqrt(d) scale is applied to ``q`` rather than to the scores, and the
    max-shifted softmax runs in place on the score buffer. The backward is
    the softmax Jacobian-vector product ``p * (gp - sum(gp * p))``.
    """
    B, Tq, D = q.shape
    Tk = k.shape[1]
    if k.shape != v.shape or k.shape[0] != B or k.shape[2] != D or D % heads:
        raise ShapeError(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape} with {heads} heads")
    d = D // heads

    def split(a, T):
        return a.reshape(B, T, heads, d).transpose(0, 2, 1, 3)

    def merge(a, T):
        return a.transpose(0, 2, 1, 3).reshape(B, T, D)

    scale = 1.0 / math.sqrt(d)
    qh = split(q.data * scale, Tq)
    kh, vh = split(k.data, Tk), split(v.data, Tk)
    p = qh @ kh.transpose(0, 1, 3, 2)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh, Tq)

    def bw(g):
        gh = split(g, Tq)
        gv = p.transpose(0, 1, 3, 2) @ gh
        gs = gh @ vh.transpose(0, 1, 3, 2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = (gs @ kh) * scale
        return merge(gq, Tq), merge(gs.transpose(0, 1, 3, 2) @ qh, Tk), merge(gv, Tk)

    return Tensor._op(out, (q, k, v), bw), p


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient."""
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return Tensor._op(out, tensors, bw)


# -- parameter creation -----------------------------------------------------


def xavier_uniform(rng: np.random.Generator, shape: tuple, fan_in: int | None = None,
                   fan_out: int | None = None) -> Tensor:
    """Xavier/Glorot uniform init; default fans come from the trailing two dims."""
    if fan_in is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    if fan_out is None:
        fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
