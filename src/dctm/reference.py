"""Naive reference implementations used as independent oracles.

Everything here is deliberately written as plain loops / two-pass
formulas, sharing no code with the production paths it checks.
"""

from __future__ import annotations

import numpy as np


def conv1d_direct(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                  dilation: int) -> np.ndarray:
    """Direct-summation centered cross-correlation over a zero-padded input.

    x: (B, C_in, T), w: (C_out, C_in, K). Triple loop over output
    position, kernel tap, and channels via a dot product.
    """
    B, C_in, T = x.shape
    C_out, _, K = w.shape
    pad = dilation * (K - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    out = np.zeros((B, C_out, T), dtype=x.dtype)
    for b in range(B):
        for o in range(C_out):
            for p in range(T):
                acc = 0.0
                for t in range(K):
                    s = p + dilation * t  # padded index of tap t (center offset folded into pad)
                    acc += float(np.dot(xpad[b, :, s], w[o, :, t]))
                out[b, o, p] = acc
            if bias is not None:
                out[b, o, :] += bias[o]
    return out


def conv1d_flip(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """Centered flip-convolution: taps step backwards from the output frame.

    Equals ``conv1d_direct`` with the kernel reversed along its tap axis.
    """
    B, C_in, T = x.shape
    C_out, _, K = w.shape
    c = (K - 1) // 2
    out = np.zeros((B, C_out, T), dtype=x.dtype)
    for b in range(B):
        for o in range(C_out):
            for p in range(T):
                acc = 0.0
                for t in range(K):
                    s = p - dilation * (t - c)
                    if 0 <= s < T:
                        acc += float(np.dot(x[b, :, s], w[o, :, t]))
                out[b, o, p] = acc
    return out


def attention_single_head_loop(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unbatched attention for one head: softmax(q k^T / sqrt(d)) v, row by row.

    ``q`` is (Tq, d); ``k`` and ``v`` are (Tk, d), so Tq may differ from Tk.
    """
    Tq, d = q.shape
    Tk = k.shape[0]
    out = np.zeros((Tq, v.shape[1]), dtype=v.dtype)
    for i in range(Tq):
        scores = np.array([np.dot(q[i], k[j]) / np.sqrt(d) for j in range(Tk)])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(Tk):
            out[i] += weights[j] * v[j]
    return out


def ccc_two_pass(x: np.ndarray, y: np.ndarray) -> float:
    """Concordance correlation via the textbook two-pass formula.

    Population variance. 2*cov / (var_x + var_y + (mean_x - mean_y)^2).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx, my = x.mean(), y.mean()
    dx, dy = x - mx, y - my
    vx, vy = (dx * dx).mean(), (dy * dy).mean()
    cov = (dx * dy).mean()
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        return 0.0
    return float(2.0 * cov / denom)


def ridge_regression_ccc(train_x: np.ndarray, train_y: np.ndarray,
                         test_x: np.ndarray, test_y: np.ndarray,
                         lam: float = 1e-3) -> float:
    """Closed-form per-frame ridge baseline, scored with the CCC oracle.

    Centered normal equations: beta = (X^T X + lam*I)^{-1} X^T y.
    """
    mx = train_x.mean(axis=0)
    my = train_y.mean()
    xc = train_x - mx
    beta = np.linalg.solve(xc.T @ xc + lam * np.eye(xc.shape[1]), xc.T @ (train_y - my))
    pred = (test_x - mx) @ beta + my
    return ccc_two_pass(pred, test_y)
