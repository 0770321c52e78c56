"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .tensor import Tensor


class Adam:
    """Standard Adam: m/v moment tracking, bias-corrected update.

    Parameters are (name, tensor) pairs; names surface in non-finite
    gradient aborts and keep checkpoint/state ordering stable. A missing
    ``.grad`` counts as an all-zero gradient.
    """

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-6,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(t.data) for _, t in self.params]
        self.v = [np.zeros_like(t.data) for _, t in self.params]

    def step(self) -> None:
        """One update; a non-finite gradient aborts before any state changes."""
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for _, p in self.params]
        for (name, _), g in zip(self.params, grads):
            if not np.isfinite(g).all():
                raise NumericalError(
                    f"non-finite gradient in parameter '{name}' at step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, ((_, p), g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
