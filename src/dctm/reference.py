"""Naive reference implementations used as independent oracles.

Everything here is deliberately written as plain loops / two-pass
formulas, sharing no code with the production paths it checks. The
``numpy_*`` forwards are analytic, so ``complex_step_grads`` can
differentiate them: they take complex arrays, their softmax is unshifted
and their relu is a multiply by a mask.
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


def complex_step_grads(f, arrays, h=1e-30):
    """Every input's gradient of the real scalar ``f`` at float64 ``arrays``.

    Complex step (Squire & Trapp 1998): f(x + ih e_k) = f(x) + ih df/dx_k
    + O(h^2), so df/dx_k = Im f / h. Nothing is subtracted, so the result is
    exact to rounding. ``f`` must be analytic: no abs, max or comparisons.
    """
    z = [np.asarray(a, dtype=np.complex128) for a in arrays]
    grads = []
    for a in z:
        g = np.empty(a.shape)
        for k in np.ndindex(a.shape):
            a[k] += 1j * h
            g[k] = f(z).imag / h
            a[k] -= 1j * h
        grads.append(g)
    return grads


def numpy_layer_norm(x, gain, bias):
    """LayerNorm in plain NumPy: population variance, eps 1e-5."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + 1e-5) * gain + bias


def numpy_attention_block(x, memory, w_in, b_in, w_out, b_out, heads):
    """``attention_block``'s forward in plain NumPy, per head, with the softmax
    unshifted so that it stays analytic for the complex-step reference.
    ``w_in`` and ``b_in`` are the packed q|k|v projection."""
    D = x.shape[-1]
    source = x if memory is None else memory
    q, k, v = (a @ w_in[:, i * D:(i + 1) * D] + b_in[i * D:(i + 1) * D]
               for i, a in enumerate((x, source, source)))
    d = D // heads
    ctx = []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        e = np.exp(q[..., cols] @ k[..., cols].transpose(0, 2, 1) / np.sqrt(d))
        ctx.append(e / e.sum(axis=-1, keepdims=True) @ v[..., cols])
    return np.concatenate(ctx, axis=-1) @ w_out + b_out


def numpy_feed_forward(x, w1, b1, w2, b2):
    """``relu(x w1 + b1) w2 + b2`` in plain NumPy. The relu is a multiply by
    the mask of positive real parts, which the complex step leaves unchanged."""
    h = x @ w1 + b1
    return (h * (h.real > 0)) @ w2 + b2


def numpy_gated_unit(x1, x2, w1, b1, w2, b2, wz, bz):
    """GMU in plain NumPy: z * tanh(x1 w1 + b1) + (1 - z) * tanh(x2 w2 + b2),
    z = sigmoid([x1; x2] wz + bz)."""
    z = 1.0 / (1.0 + np.exp(-(np.concatenate([x1, x2], axis=-1) @ wz + bz)))
    return z * np.tanh(x1 @ w1 + b1) + (1.0 - z) * np.tanh(x2 @ w2 + b2)


def numpy_conv1d(x, w, bias, dilation):
    """Dilated conv as a direct sum over output frames and taps, in plain NumPy."""
    B, _, T = x.shape
    C_out, _, K = w.shape
    pad = dilation * (K - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    out = np.zeros((B, C_out, T), dtype=np.result_type(x, w)) + bias[:, None]
    for p in range(T):
        for k in range(K):
            out[:, :, p] += xpad[:, :, p + dilation * k] @ w[:, :, k].T
    return out


def numpy_conv_stack(arrays, dilations):
    """``conv_stack`` in plain NumPy over ``arrays`` = [x, w0, b0, w1, b1, ...]:
    ``numpy_conv1d`` per layer with a mask relu between layers, returned
    channels-last, (B, T, C_out)."""
    x = arrays[0]
    for i, dilation in enumerate(dilations):
        if i:
            x = x * (x.real > 0)
        x = numpy_conv1d(x, arrays[1 + 2 * i], arrays[2 + 2 * i], dilation)
    return x.transpose(0, 2, 1)


def numpy_ccc_loss(pred, target, mask=None):
    """1 - CCC per window, batch mean, in plain NumPy: ``ccc_loss``'s forward,
    the same ops in the same order, so its value must match byte for byte.
    No ``mask`` keeps every frame."""
    dtype = pred.dtype
    m = np.ones(pred.shape, dtype) if mask is None else np.asarray(mask, dtype=dtype)
    tgt = np.asarray(target, dtype=dtype)
    inv_n = (1.0 / m.sum(axis=1, keepdims=True)).astype(dtype)
    t_mean = (tgt * m).sum(axis=1, keepdims=True) * inv_n
    t_dev = (tgt - t_mean) * m
    t_var = (t_dev * t_dev).sum(axis=1, keepdims=True) * inv_n
    mean_p = (pred * m).sum(axis=1, keepdims=True) * inv_n
    dp = (pred - mean_p) * m
    var_p = (dp * dp).sum(axis=1, keepdims=True) * inv_n
    cov = (dp * t_dev).sum(axis=1, keepdims=True) * inv_n
    gap = mean_p - t_mean
    denom = var_p + t_var + gap * gap
    return (1.0 - (cov * 2.0) / denom).mean()
