"""Dense tensor with reverse-mode automatic differentiation.

Values live in numpy arrays. Parameter factories create float64
arrays; ``DctmModel`` casts its parameters once to the configured
precision, and every op keeps its inputs' dtype, so a float32 model
computes its loss, gradients and optimizer state in float32.

The tape holds nodes, not tensors. Every op that records gives its
output tensor a ``_Node``: the backward closure, the nodes of its inputs
and, during the walk, the gradient of its output. A leaf that takes a
gradient is its own node, so its gradient lands in its ``.grad``. A
closure captures the arrays it reads (a saved activation, a weight's
``.data``, a shape), never a ``Tensor``, so an op's output array lives
only as long as a tensor or a closure references it: a branch output
that the residual norm has consumed is freed at once, not at
``backward()``. ``backward()`` on a scalar walks the nodes once in reverse
topological order, accumulates gradients into the leaves' ``.grad`` and
releases each node as it passes, so the arrays its closure saved are
freed during the walk. ``no_grad`` switches recording off for the
calling thread only.

Each layer of the model is one fused op with a closed-form backward:
``linear``, ``feed_forward``, ``layer_norm``, ``residual_norm``,
``attention_block`` and ``gated_unit`` here, ``dilated_conv1d`` in
``conv.py`` and ``ccc_loss`` in ``metrics.py``. A fused op is one tape
node, whatever number of GEMMs it runs.

The fused kernels reduce short axes two ways. A per-frame reduction (a
row mean, the softmax denominator, a one-column projection) is an
``einsum``, which gives each row the same value wherever it sits in the
batch and however long the padded axis is. A sum over all frames into a
parameter gradient is a product with a ones vector, which BLAS computes
faster; its rounding is fixed for a given BLAS thread count but depends
on row position, which a gradient total may and a frame's score may not.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Sequence

import numpy as np

from .errors import ShapeError


class _GradMode(threading.local):
    """Whether ops record a graph, kept per thread."""
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording on the calling thread inside the block
    (evaluation mode). Graphs built on other threads keep recording."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _released(g):
    raise RuntimeError("backward() reached a graph node that an earlier backward() "
                       "already released; build the graph again to differentiate it")


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


class _Node:
    """One recorded op: its backward closure, the nodes of its inputs (None
    for an input that takes no gradient) and, during ``backward()``, the
    gradient of its output. It references no tensor, so it keeps no forward
    array alive beyond those its closure captured."""
    __slots__ = ("backward", "parents", "grad", "__weakref__")

    def __init__(self, backward, parents: tuple):
        self.backward = backward
        self.parents = parents
        self.grad: np.ndarray | None = None


class Tensor:
    """n-d array plus optional gradient buffer and the node of the op that
    made it (``_node``; None for a leaf or when no graph was recorded)."""

    def __init__(self, data, requires_grad: bool = False, _node: _Node | None = None):
        # a full reduction yields an np.generic: keep its dtype, so a float32
        # loss stays float32; plain Python numbers become float64
        self.data = data if isinstance(data, np.ndarray) else np.asarray(
            data, dtype=getattr(data, "dtype", np.float64))
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node = _node

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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
        """The output of an op on ``parents``. ``backward(g)`` returns one
        gradient (or None) per parent and must not capture a parent tensor."""
        if _grad_mode.enabled:
            # the gradient of a parent flows into the node of the op that
            # made it, or into the parent itself if it is a leaf taking one
            nodes = tuple(p._node if p._node is not None else p if p.requires_grad else None
                          for p in parents)
            if any(n is not None for n in nodes):
                return Tensor(data, True, _Node(backward, nodes))
        return Tensor(data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``requires_grad`` tensor.

        The graph is released as the walk passes it: once a node's closure
        has run, the node drops its closure (and with it the forward arrays
        the closure saved), its parents and its gradient. Only leaf
        gradients remain. A second ``backward()`` through a released node
        raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {self.shape}")
        if self._node is None:
            self.grad = np.ones_like(self.data)
            return
        order = _toposort(self)
        self._node.grad = np.ones_like(self.data)
        for node in reversed(order):
            grads = node.backward(node.grad)
            for parent, g in zip(node.parents, grads):
                if g is None or parent is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            node.backward, node.parents, node.grad = _released, (), None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "add")
        out = self.data + other.data
        a_shape, b_shape = self.shape, other.shape
        return Tensor._op(out, (self, other),
                          lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))

    def __mul__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape, "mul")
        a, b = self.data, other.data
        out = a * b
        return Tensor._op(
            out, (self, other),
            lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)),
        )

    # -- pointwise nonlinearities -------------------------------------------

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return Tensor._op(out, (self,), lambda g: (g * (1.0 - out * out),))

    def sigmoid(self) -> "Tensor":
        x = self.data
        # stable form; exp only ever sees non-positive arguments
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return Tensor._op(out, (self,), lambda g: (g * out * (1.0 - out),))

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0)
        # the backward keeps the sign mask (a byte a cell), not the input
        positive = self.data > 0
        return Tensor._op(out, (self,), lambda g: (g * positive,))

    # -- reduction and shape manipulation ------------------------------------

    def sum(self) -> "Tensor":
        """Sum of every element, as a 0-d tensor of the same dtype."""
        shape = self.shape
        return Tensor._op(self.data.sum(), (self,), lambda g: (np.broadcast_to(g, shape),))

    def reshape(self, *shape) -> "Tensor":
        old = self.shape
        out = self.data.reshape(shape)
        return Tensor._op(out, (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes) -> "Tensor":
        inv = tuple(np.argsort(axes))
        out = self.data.transpose(axes)
        return Tensor._op(out, (self,), lambda g: (g.transpose(inv),))


def _toposort(root: Tensor) -> list:
    """Iterative DFS post-order over the op nodes below ``root``'s node;
    the nodes of an op's inputs always precede it. Leaves are not visited:
    ``backward()`` accumulates their gradients from their ops."""
    order, visited, stack = [], set(), [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if type(p) is _Node and id(p) not in visited:
                stack.append((p, False))
    return order


# -- free functions ---------------------------------------------------------


def _rows_at(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for (N, K) rows ``a``. A single output column is a per-frame
    dot product, which BLAS would run as a GEMV whose rounding depends on the
    row's position in ``a``, so it is an ``einsum`` instead."""
    return np.einsum("nd,do->no", a, w) if w.shape[1] == 1 else a @ w


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` over the last axis of ``x``.

    ``x`` is flattened to (N, D), so the forward and both backward
    products are single 2-D GEMMs; the weight gradient needs no
    broadcast sum over leading axes, and the bias gradient is a ones-vector
    product.
    """
    D, O = weight.shape
    if x.shape[-1] != D:
        raise ShapeError(f"linear: input {x.shape} does not match weight {weight.shape}")
    x_shape, w = x.shape, weight.data
    x2 = x.data.reshape(-1, D)
    out = _rows_at(x2, w)
    out += bias.data

    def bw(g):
        g2 = g.reshape(-1, O)
        return ((g2 @ w.T).reshape(x_shape), x2.T @ g2, np.ones(len(g2), g2.dtype) @ g2)

    return Tensor._op(out.reshape(*x.shape[:-1], O), (x, weight, bias), bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` over the last axis of ``x``, one tape node.

    The relu runs in place on the hidden buffer, which the backward keeps:
    its positive cells are the relu's mask.
    """
    D, F = w1.shape
    if x.shape[-1] != D or w2.shape[0] != F:
        raise ShapeError(f"feed_forward: input {x.shape} does not match weights "
                         f"{w1.shape} and {w2.shape}")
    O = w2.shape[1]
    x_shape, wa, wb = x.shape, w1.data, w2.data
    x2 = x.data.reshape(-1, D)
    h = _rows_at(x2, wa)
    h += b1.data
    np.maximum(h, 0, out=h)
    out = _rows_at(h, wb)
    out += b2.data

    def bw(g):
        g2 = g.reshape(-1, O)
        ones = np.ones(len(g2), g2.dtype)
        gh = g2 @ wb.T
        gh *= h > 0
        return ((gh @ wa.T).reshape(x_shape), x2.T @ gh, ones @ gh, h.T @ g2, ones @ g2)

    return Tensor._op(out.reshape(*x.shape[:-1], O), (x, w1, b1, w2, b2), bw)


def _layer_norm_forward(c: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """(out, xhat, inv) of centred rows ``c``, a buffer the calling op owns:
    ``c`` is scaled in place into ``xhat``."""
    inv = (np.einsum("...i,...i->...", c, c)[..., None] / c.shape[-1] + 1e-5) ** -0.5
    c *= inv
    out = c * gain
    out += bias
    return out, c, inv


def _row_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keeping it as length 1. An ``einsum``
    reduction, not BLAS, so a row's mean does not depend on the other rows."""
    return np.einsum("...i->...", a)[..., None] / a.shape[-1]


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    gxh = g * gain
    D = g.shape[-1]
    gx = inv * (gxh - _row_mean(gxh)
                - xhat * (np.einsum("...i,...i->...", gxh, xhat)[..., None] / D))
    g2 = g.reshape(-1, D)
    ones = np.ones(len(g2), g.dtype)
    return gx, ones @ (g * xhat).reshape(g2.shape), ones @ g2


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    Population variance with eps 1e-5. One tape node; the backward is the
    closed form of Ba et al. 2016 (arXiv 1607.06450) in terms of the saved
    normalized input ``xhat`` and inverse deviation ``inv``.
    """
    c = x.data - _row_mean(x.data)
    gn = gain.data
    out, xhat, inv = _layer_norm_forward(c, gn, bias.data)
    return Tensor._op(out, (x, gain, bias), lambda g: _layer_norm_backward(g, xhat, inv, gn))


def residual_norm(x: Tensor, y: Tensor, drop: tuple | None, gain: Tensor,
                  bias: Tensor) -> Tensor:
    """``layer_norm(x + dropout(y))`` as one tape node: a post-norm residual.

    ``drop`` is the inverted dropout of branch ``y``: a ``(keep, scale)``
    pair of a bool mask shaped like ``y`` and ``1 / (1 - rate)`` in y's
    dtype (see ``layers.dropout_mask``), or None for no dropout. The branch
    is ``(y * scale) * keep``, which rounds exactly as ``y`` times the float
    multiplier ``keep * scale`` would, signed zeros included. The backward
    is ``layer_norm``'s; ``x`` receives its input gradient ``gs`` and ``y``
    ``(gs * scale) * keep``. The node keeps the mask, not ``y``.
    """
    if drop is None:
        s = x.data + y.data
    else:
        keep, scale = drop
        s = y.data * scale
        s *= keep
        s += x.data
    s -= _row_mean(s)
    gn = gain.data
    out, xhat, inv = _layer_norm_forward(s, gn, bias.data)

    def bw(g):
        gs, ggain, gbias = _layer_norm_backward(g, xhat, inv, gn)
        if drop is None:
            return gs, gs, ggain, gbias
        gy = gs * scale
        gy *= keep
        return gs, gy, ggain, gbias

    return Tensor._op(out, (x, y, gain, bias), bw)


def attention_block(x: Tensor, memory: Tensor | None, w_in: Tensor, b_in: Tensor,
                    w_out: Tensor, b_out: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """A multi-head attention block as one tape node: the q/k/v projections,
    scaled dot-product attention in ``heads`` subspaces of D / heads, and the
    output projection.

    ``x`` is (B, Tq, D) and ``memory`` (B, Tk, D), or None for
    self-attention. ``w_in`` (D, 3D) and ``b_in`` (3D,) are the packed q|k|v
    projection, in that column order; ``w_out`` (D, D) and ``b_out`` (D,) the
    output projection. Returns the output (B, Tq, D) and the softmax weights
    (B, heads, Tq, Tk).

    Self-attention projects ``x`` through ``w_in`` in one GEMM;
    cross-attention projects q from ``x`` through the column view
    ``w_in[:, :D]`` and k|v from ``memory`` through ``w_in[:, D:]``. Nothing
    is copied to pack them. Heads are strided views of the projections,
    and the 1/sqrt(d) scale is applied to q in place. The scores are built
    transposed, (B, heads, Tk, Tq), so the in-place softmax reduces over
    axis -2: the max with NumPy, vectorised along the contiguous query axis,
    and the denominator with an ``einsum``; the weights are its transposed
    view. The context is written into a (B, Tq, heads, d) buffer, so the
    output projection reads it as (B·Tq, D) with no head-merge copy.

    The backward runs the softmax Jacobian-vector product
    ``p * (gp - sum(gp * p))`` in the same layout, and writes the q, k and
    v gradients into one buffer laid out like the packed projection. For
    self-attention the input gradient and the (D, 3D) weight gradient are
    then one GEMM each; for cross-attention the q and k|v parts write the
    column blocks of the weight gradient.
    """
    source = x if memory is None else memory
    if (x.ndim != 3 or source.ndim != 3 or source.shape[0] != x.shape[0]
            or source.shape[2] != x.shape[2] or x.shape[2] % heads
            or w_in.shape != (x.shape[2], 3 * x.shape[2]) or w_out.shape != (x.shape[2],) * 2):
        raise ShapeError(f"attention: x {x.shape}, memory {source.shape}, weights "
                         f"{w_in.shape} and {w_out.shape} with {heads} heads")
    B, Tq, D = x.shape
    Tk = source.shape[1]
    d = D // heads
    scale = 1.0 / math.sqrt(d)
    cross, w, w_o = memory is not None, w_in.data, w_out.data
    x2 = x.data.reshape(-1, D)
    # each input's rows, and the columns of w_in they project through
    parts = [(x2, slice(None))] if not cross else [
        (x2, slice(None, D)), (memory.data.reshape(-1, D), slice(D, None))]
    proj = []
    for rows, cols in parts:
        proj.append(rows @ w[:, cols])
        proj[-1] += b_in.data[cols]
    q, kv = proj if cross else (proj[0][:, :D], proj[0][:, D:])
    q *= scale
    dtype = q.dtype

    def split(a, T):
        """(B·T, D) rows, possibly strided, as a (B, heads, T, d) view."""
        return a.reshape(B, T, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q, Tq), split(kv[:, :D], Tk), split(kv[:, D:], Tk)
    st = kh @ qh.transpose(0, 1, 3, 2)
    st -= st.max(axis=-2, keepdims=True)
    np.exp(st, out=st)
    st /= np.einsum("bhkq->bhq", st)[..., None, :]
    p = st.transpose(0, 1, 3, 2)
    ctx = np.empty((B, Tq, heads, d), dtype)
    np.matmul(p, vh, out=ctx.transpose(0, 2, 1, 3))
    ctx2 = ctx.reshape(-1, D)
    out = _rows_at(ctx2, w_o)
    out += b_out.data

    def bw(g):
        g2 = g.reshape(-1, D)
        gh = split(g2 @ w_o.T, Tq)
        if not cross:
            g_in = np.empty((B, Tq, 3, heads, d), dtype)
            gq, g_kv = g_in[:, :, 0], g_in[:, :, 1:]
        else:
            gq = np.empty((B, Tq, heads, d), dtype)
            g_kv = np.empty((B, Tk, 2, heads, d), dtype)
        np.matmul(st, gh, out=g_kv[:, :, 1].transpose(0, 2, 1, 3))
        gst = vh @ gh.transpose(0, 1, 3, 2)
        gst -= np.einsum("bhkq,bhkq->bhq", gst, st)[..., None, :]
        gst *= st
        gqh = gq.transpose(0, 2, 1, 3)
        np.matmul(gst.transpose(0, 1, 3, 2), kh, out=gqh)
        gqh *= scale
        np.matmul(gst, qh, out=g_kv[:, :, 0].transpose(0, 2, 1, 3))
        g_parts = [gq.reshape(-1, D), g_kv.reshape(-1, 2 * D)] if cross else [
            g_in.reshape(len(x2), -1)]
        gw, gb, g_inputs = np.empty((D, 3 * D), dtype), np.empty(3 * D, dtype), []
        for (rows, cols), gp in zip(parts, g_parts):
            np.matmul(rows.T, gp, out=gw[:, cols])
            gb[cols] = np.ones(len(gp), dtype) @ gp
            g_inputs.append((gp @ w[:, cols].T).reshape(B, -1, D))
        return (*g_inputs, gw, gb, ctx2.T @ g2, np.ones(len(g2), dtype) @ g2)

    parents = (x, memory) if cross else (x,)
    return Tensor._op(out.reshape(B, Tq, D), parents + (w_in, b_in, w_out, b_out), bw), p


def gated_unit(x1: Tensor, x2: Tensor, projections: Sequence[tuple]) -> tuple[Tensor, np.ndarray]:
    """A gated multimodal unit as one tape node:
    ``z * tanh(x1 W1 + b1) + (1 - z) * tanh(x2 W2 + b2)`` with
    ``z = sigmoid([x1; x2] Wz + bz)``, per coordinate over the last axis.

    ``projections`` holds the (weight, bias) pairs of the two transforms and
    the gate. Returns the output and the gate ``z``. The sigmoid is the
    stable form, whose ``exp`` only ever sees non-positive arguments.
    """
    (w1, b1), (w2, b2), (wz, bz) = projections
    d1, d2 = x1.shape[-1], x2.shape[-1]
    O = w1.shape[1]
    if (x1.shape[:-1] != x2.shape[:-1] or w1.shape[0] != d1 or w2.shape != (d2, O)
            or wz.shape != (d1 + d2, O)):
        raise ShapeError(f"gated_unit: inputs {x1.shape} and {x2.shape} do not match "
                         f"weights {w1.shape}, {w2.shape} and {wz.shape}")
    shape1, shape2, wa, wb, wg = x1.shape, x2.shape, w1.data, w2.data, wz.data
    a1, a2 = x1.data.reshape(-1, d1), x2.data.reshape(-1, d2)
    xc = np.concatenate((a1, a2), axis=1)
    h1 = _rows_at(a1, wa)
    h1 += b1.data
    np.tanh(h1, out=h1)
    h2 = _rows_at(a2, wb)
    h2 += b2.data
    np.tanh(h2, out=h2)
    s = _rows_at(xc, wg)
    s += bz.data
    e = np.exp(-np.abs(s))
    z = np.where(s >= 0, 1.0, e) / (1.0 + e)
    rest = 1.0 - z
    out = z * h1
    out += rest * h2

    def bw(g):
        g2 = g.reshape(-1, O)
        ones = np.ones(len(g2), g2.dtype)
        g1 = g2 * z
        g1 *= 1.0 - h1 * h1
        gb = g2 * rest
        gb *= 1.0 - h2 * h2
        gs = g2 * (h1 - h2)
        gs *= z
        gs *= rest
        gxc = gs @ wg.T
        gx1 = g1 @ wa.T
        gx1 += gxc[:, :d1]
        gx2 = gb @ wb.T
        gx2 += gxc[:, d1:]
        return (gx1.reshape(shape1), gx2.reshape(shape2), a1.T @ g1, ones @ g1,
                a2.T @ gb, ones @ gb, xc.T @ gs, ones @ gs)

    lead = x1.shape[:-1]
    return (Tensor._op(out.reshape(*lead, O), (x1, x2, w1, b1, w2, b2, wz, bz), bw),
            z.reshape(*lead, O))


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


def xavier_uniform(rng: np.random.Generator | None, shape: tuple, fan_in: int | None = None,
                   fan_out: int | None = None) -> Tensor:
    """Xavier/Glorot uniform init; default fans come from the trailing two dims.

    Without ``rng`` the weight is zeros and nothing is drawn: the shape of a
    parameter whose values a checkpoint supplies."""
    if rng is None:
        return zeros(shape)
    if fan_in is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    if fan_out is None:
        fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _constant(shape, value: float) -> Tensor:
    """A parameter holding ``value`` everywhere, as a read-only zero-stride
    view of one float64 scalar: it owns no buffer until an `Arena` packs it.
    (``np.broadcast_to`` builds the same view at three times the cost.)"""
    return Tensor(np.ndarray(shape, np.float64, np.float64(value).tobytes(),
                             strides=(0,) * len(shape)), requires_grad=True)


def zeros(shape) -> Tensor:
    return _constant(shape, 0.0)


def ones(shape) -> Tensor:
    return _constant(shape, 1.0)
