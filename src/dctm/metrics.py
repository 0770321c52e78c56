"""Concordance correlation: evaluation metric, training loss, and the
feature-magnitude correlation analysis.

Conventions (fixed across the package): population variance (divide by
n), masked entries excluded, and degenerate zero-variance inputs yield
ccc = 0 with ``degenerate=True`` instead of NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class CccResult:
    ccc: float
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    pearson: float
    n: int
    degenerate: bool = False


def ccc(x, y, mask=None) -> CccResult:
    """Concordance correlation 2*cov / (var_x + var_y + mean_gap^2).

    ``mask`` selects the frames that count; at least two must survive.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"ccc inputs differ in length: {x.shape} vs {y.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != x.shape:
            raise ShapeError(f"ccc mask length {mask.shape} does not match data {x.shape}")
        x, y = x[mask], y[mask]
    n = x.size
    if n < 2:
        raise ValueError(f"ccc needs at least 2 unmasked entries, got {n}")
    mx, my = x.mean(), y.mean()
    dx, dy = x - mx, y - my
    vx, vy = (dx * dx).mean(), (dy * dy).mean()
    cov = (dx * dy).mean()
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        # both constant with equal means: 0/0 by convention -> 0
        return CccResult(0.0, mx, my, vx, vy, 0.0, n, degenerate=True)
    value = float(2.0 * cov / denom)
    if vx == 0.0 or vy == 0.0:
        return CccResult(value, mx, my, vx, vy, 0.0, n, degenerate=True)
    pearson = float(cov / np.sqrt(vx * vy))
    return CccResult(value, mx, my, vx, vy, pearson, n)


def ccc_loss(pred: Tensor, target, mask=None) -> Tensor:
    """1 - ccc per window, averaged over the batch; one tape node.

    pred: (B, W) on the gradient tape. target/mask are plain arrays.
    Masked frames contribute nothing to means, variances, or covariance.

    Per window b with n_b unmasked frames, mask m, masked deviations
    t~ = (t - mean_t) * m and dp = (p - mean_p) * m, gap_b = mean_p - mean_t
    and D_b = var_p + var_t + gap_b^2, the gradient (Lin 1989) is

        dL/dp_i = -2 / (B * n_b * D_b) * [t~_i - (2 * cov_b / D_b) * (dp_i + gap_b * m_i)]
    """
    if pred.ndim != 2:
        raise ShapeError(f"ccc_loss expects (B, W) predictions, got {pred.shape}")
    B, W = pred.shape
    dtype = pred.dtype
    tgt = np.asarray(target, dtype=dtype)
    if tgt.shape != (B, W):
        raise ShapeError(f"ccc_loss target shape {tgt.shape} does not match pred {pred.shape}")
    if mask is None:
        m = np.ones((B, W), dtype=dtype)
    else:
        m = np.asarray(mask, dtype=dtype)
    counts = m.sum(axis=1, keepdims=True)
    if np.any(counts < 2):
        raise ValueError("ccc_loss: every window needs at least 2 unmasked frames")

    inv_n = (1.0 / counts).astype(dtype)
    t_mean = (tgt * m).sum(axis=1, keepdims=True) * inv_n
    t_dev = (tgt - t_mean) * m
    t_var = (t_dev * t_dev).sum(axis=1, keepdims=True) * inv_n
    mean_p = (pred.data * m).sum(axis=1, keepdims=True) * inv_n
    dp = (pred.data - mean_p) * m
    var_p = (dp * dp).sum(axis=1, keepdims=True) * inv_n
    cov = (dp * t_dev).sum(axis=1, keepdims=True) * inv_n
    gap = mean_p - t_mean
    denom = var_p + t_var + gap * gap
    loss = (1.0 - (cov * 2.0) / denom).mean()

    def bw(g):
        scale = (-2.0 / B) * g * inv_n / denom
        return (scale * (t_dev - (2.0 * cov / denom) * (dp + gap * m)),)

    return Tensor._op(loss, (pred,), bw)


def magnitude_ccc(features: np.ndarray, labels, mask=None) -> CccResult:
    """CCC between the per-frame L2 feature norm and the labels.

    ``features`` is the raw (pre-normalization) (T, C) matrix.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"magnitude_ccc expects a (T, C) feature matrix, got {features.shape}")
    norms = np.linalg.norm(features, axis=1)
    return ccc(norms, labels, mask=mask)
