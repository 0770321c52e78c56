"""Adam optimizer with bias correction over a parameter arena."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .layers import Arena

# Elements per pass of the in-place update. Whole-buffer passes at the
# default architecture (about 2M parameters) spill out of cache and run
# slower than the per-tensor loop they replace.
CHUNK = 1 << 15


class Adam:
    """Standard Adam: m/v moment tracking, bias-corrected update.

    It updates the parameters of one `Arena` in place; their names surface
    in non-finite gradient aborts. A missing ``.grad`` counts as an
    all-zero gradient.

    The moments are two flat arrays in the arena's layout and dtype;
    ``m[i]`` and ``v[i]`` are views of parameter i's slice of them. No
    gradient buffer is kept: a step gathers the ``.grad`` arrays ``CHUNK``
    elements at a time into a chunk-sized scratch.
    """

    def __init__(self, arena: Arena, lr: float = 1e-6, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.arena = arena
        self.params = arena.params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        flat = arena.flat
        self._m, self._v = np.zeros_like(flat), np.zeros_like(flat)
        self.m = arena.views(self._m)
        self.v = arena.views(self._v)
        # the gathered gradient chunk, and the update's temporary
        self._scratch = tuple(np.empty(min(flat.size, CHUNK), flat.dtype) for _ in range(2))
        # per chunk, the (tensor, destination, part) pieces it gathers: the
        # destination is a view of the gather scratch, in the tensor's shape
        # if the piece is the whole tensor, else flat, for the elements
        # ``part`` of the tensor's flattened gradient
        gathered, starts = self._scratch[0], arena.starts.tolist()
        self._pieces = [[] for _ in range(0, flat.size, CHUNK)]
        for (_, p), lo, hi in zip(self.params, starts, starts[1:]):
            for s in range(lo - lo % CHUNK, hi, CHUNK):     # the chunks [lo, hi) meets
                a, b = max(s, lo), min(s + CHUNK, hi)
                whole = b - a == hi - lo
                self._pieces[s // CHUNK].append(
                    (p, gathered[a - s:b - s].reshape(p.data.shape) if whole
                     else gathered[a - s:b - s], None if whole else slice(a - lo, b - lo)))

    def _gather(self, k: int) -> np.ndarray:
        """Chunk ``k`` of the flat gradient, in the first scratch buffer."""
        for p, dst, part in self._pieces[k]:
            if p.grad is None:
                dst[...] = 0
            elif part is None:
                dst[...] = p.grad                      # any strides, no copy
            else:
                dst[...] = p.grad.reshape(-1)[part]
        return self._scratch[0][:min(CHUNK, self._m.size - k * CHUNK)]

    def step(self) -> None:
        """One update; a non-finite gradient aborts before any state changes."""
        for k in range(len(self._pieces)):
            g = self._gather(k)
            finite = np.isfinite(g)
            if not finite.all():
                name = self.arena.name_at(k * CHUNK + int(np.argmin(finite)))
                raise NumericalError(f"non-finite gradient in parameter '{name}' "
                                     f"at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        # Per element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
        # update = lr * (m/bc1) / (sqrt(v/bc2) + eps), rounded once per
        # operation in that order, as a per-tensor expression would be. The
        # last chunk goes first: the check above left it gathered.
        last = len(self._pieces) - 1
        for k in range(last, -1, -1):
            if k < last:
                g = self._gather(k)
            s = slice(k * CHUNK, k * CHUNK + g.size)
            m, v, a = self._m[s], self._v[s], self._scratch[1][:g.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(a, g, out=a)
            self.arena.flat[s] -= a
