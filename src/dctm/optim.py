"""Adam optimizer with bias correction over flat state buffers."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .tensor import Tensor

# Elements per pass of the in-place update. Whole-buffer passes at the
# default architecture (about 2M parameters) spill out of cache and run
# slower than the per-tensor loop they replace.
CHUNK = 1 << 15


class Adam:
    """Standard Adam: m/v moment tracking, bias-corrected update.

    Parameters are (name, tensor) pairs of one dtype; names surface in
    non-finite gradient aborts and keep checkpoint/state ordering stable.
    A missing ``.grad`` counts as an all-zero gradient.

    The moments and a gradient buffer are three flat arrays in the
    parameters' dtype, updated in place ``CHUNK`` elements at a time;
    ``m[i]`` and ``v[i]`` are views of parameter i's slice of them.
    """

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-6,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.params}
        if len(dtypes) > 1:
            raise TypeError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        sizes = [p.data.size for _, p in self.params]
        self._starts = np.cumsum([0] + sizes)[:-1]
        total = sum(sizes)
        self._grad, self._m, self._v = (np.zeros(total, dtype) for _ in range(3))
        self._scratch = tuple(np.empty(min(total, CHUNK), dtype) for _ in range(2))

        def views(flat):
            return [flat[s:s + p.data.size].reshape(p.data.shape)
                    for s, (_, p) in zip(self._starts, self.params)]

        self._grad_views = views(self._grad)
        self.m = views(self._m)
        self.v = views(self._v)

    def step(self) -> None:
        """One update; a non-finite gradient aborts before any state changes."""
        for (_, p), g in zip(self.params, self._grad_views):
            g[...] = 0 if p.grad is None else p.grad
        finite = np.isfinite(self._grad)
        if not finite.all():
            first = int(np.argmin(finite))
            name = self.params[int(np.searchsorted(self._starts, first, side="right")) - 1][0]
            raise NumericalError(f"non-finite gradient in parameter '{name}' at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        # Per element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
        # update = lr * (m/bc1) / (sqrt(v/bc2) + eps), rounded once per
        # operation in that order, as a per-tensor expression would be. The
        # update overwrites the gradient buffer.
        for s in range(0, self._grad.size, CHUNK):
            g, m, v = (a[s:s + CHUNK] for a in (self._grad, self._m, self._v))
            a, b = (buf[:g.size] for buf in self._scratch)
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(a, b, out=g)
        for (_, p), u in zip(self.params, self._grad_views):
            p.data -= u
