"""Built-in verification suite: gradient checks for every differentiable
operation, convolution and concordance oracles, the receptive-field
perturbation probe, and attention sanity. The CLI `verify` command runs
`run_all` and exits nonzero if any check fails.

Each gradient check runs in float64 and in float32 against complex-step
derivatives of a plain NumPy forward (``reference.complex_step_grads``),
which are exact to rounding, at ``TOL``: 1e-12 and 1e-5 relative to
``1 + |want|``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import ConvConfig, DctmConfig
from .conv import ConvStack, conv_stack
from .layers import Arena, capture
from .metrics import ccc, ccc_loss
from .model import conv_specs
from .reference import (attention_single_head_loop, ccc_two_pass, complex_step_grads,
                        conv1d_direct, conv1d_flip, numpy_attention_block, numpy_ccc_loss,
                        numpy_conv_stack, numpy_feed_forward, numpy_gated_unit, numpy_layer_norm)
from .tensor import Tensor, attention_block, feed_forward, gated_unit, linear, residual_norm
from .transformer import EncoderDecoder, MultiHeadAttention, RegressionHead, TransformerSettings

# the largest |got - want| / (1 + |want|) a gradient check passes, per dtype
TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _fill_zero_weights(module, rng) -> None:
    """Residual output projections and the scoring head are zero-initialized;
    checks of their math must give them random values or they would compare
    zero against zero. A module without an arena (its constant parameters
    are read-only) is packed into one first."""
    params = list(module.named_parameters())
    if not all(p.data.flags.writeable for _, p in params):
        Arena(params)
    for _, p in params:
        if not np.any(p.data):
            p.data[...] = 0.1 * rng.standard_normal(p.data.shape)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as e:
        detail = str(e)
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# gradient checks, one entry per differentiable operation

def probed(out: Tensor, probe: np.ndarray) -> Tensor:
    """``sum(out * probe)`` as one tape node: a scalar whose gradient with
    respect to ``out`` is ``probe``."""
    return Tensor._op(np.sum(out.data * probe), (out,), lambda g: (g * probe,))


def gradient_error(arrays, op, reference, dtype, rng) -> float:
    """Worst ``|got - want| / (1 + |want|)`` over the output of ``op`` and every
    input's gradient of ``sum(op(...) * probe)``, a random ``probe``, with
    ``arrays`` cast to ``dtype``. ``want`` is ``reference``, a NumPy forward
    of the same map, and its complex-step gradients at the cast values
    widened to float64. Asserts that the output and gradients keep ``dtype``.
    """
    ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(ts)
    probe = rng.standard_normal(out.shape).astype(dtype)
    probed(out, probe).backward()
    got = [out.data] + [t.grad for t in ts]
    for i, g in enumerate(got):
        what = f"input {i - 1}'s gradient" if i else "the output"
        assert g is not None and g.dtype == dtype, \
            f"{what} is {getattr(g, 'dtype', None)} for {np.dtype(dtype)} inputs"
    wide = [t.data.astype(np.float64) for t in ts]
    probe = probe.astype(np.float64)
    want = [reference(wide)] + complex_step_grads(lambda z: (reference(z) * probe).sum(), wide)
    return max(float(np.max(np.abs(g - w) / (1.0 + np.abs(w)))) for g, w in zip(got, want))


def _grad_cases(rng):
    """(name, case) pairs covering every op's backward; each ``case()`` draws
    fresh float64 arrays and returns ``(arrays, op, reference)``: the op over
    Tensors and its NumPy forward over arrays, complex ones included."""

    def linear_arrays():
        # B, T > 1: the weight gradient sums over every flattened frame
        B, T, D, O = (int(v) for v in rng.integers(2, 5, size=4))
        return [rng.standard_normal((B, T, D)), rng.standard_normal((D, O)),
                rng.standard_normal(O)]

    def spread(rows, margin=0.5):
        """``rows`` with each entry moved ``margin`` further from its row's mean.
        A nearly constant row is ill-conditioned for layer norm: its float32
        input gradient would lose more digits than the float32 tolerance."""
        return rows + margin * np.sign(rows - rows.mean(axis=-1, keepdims=True))

    def layer_norm_arrays():
        B, T, D = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 8))
        return [spread(rng.standard_normal((B, T, D))), rng.standard_normal(D),
                rng.standard_normal(D)]

    dropout_turn = itertools.cycle([False, True])

    def residual_norm_case():
        x, gain, bias = layer_norm_arrays()
        y = rng.standard_normal(x.shape)
        drop, multiplier = None, 1.0
        if next(dropout_turn):
            # every other case drops a branch cell with probability 0.3
            drop = (rng.random(x.shape) >= 0.3, 1.0 / 0.7)
            multiplier = drop[0] * drop[1]
        x = spread(x + y * multiplier) - y * multiplier   # spread the normalized sum
        return ([x, y, gain, bias], lambda ts: residual_norm(ts[0], ts[1], drop, ts[2], ts[3]),
                lambda z: numpy_layer_norm(z[0] + z[1] * multiplier, z[2], z[3]))

    def conv_case():
        # 1 to 3 layers, weights scaled by 1/sqrt(fan-in) like Xavier's
        B, T, n = int(rng.integers(1, 4)), int(rng.integers(1, 10)), int(rng.integers(1, 4))
        channels = [int(c) for c in rng.integers(1, 4, size=n + 1)]
        kernels = [int(k) for k in rng.choice([1, 3, 5], size=n)]
        dilations = [int(d) for d in rng.integers(1, 4, size=n)]
        while True:
            # the relu's kink is not differentiable: keep every hidden cell off it
            arrays = [rng.standard_normal((B, channels[0], T))]
            for c_in, c_out, K in zip(channels, channels[1:], kernels):
                arrays += [rng.standard_normal((c_out, c_in, K)) / np.sqrt(c_in * K),
                           rng.standard_normal(c_out)]
            hidden = [numpy_conv_stack(arrays, dilations[:i]) for i in range(1, n)]
            if all(np.abs(h).min() > 1e-3 for h in hidden):
                return (arrays, lambda ts: conv_stack(ts[0], pairs(ts[1:]), dilations),
                        lambda z: numpy_conv_stack(z, dilations))

    def projections(*shapes):
        """Flat (weight, bias) arrays for weights of ``shapes``, each weight
        and bias scaled by 1/sqrt(fan-in) like Xavier's."""
        return [a / np.sqrt(shape[0]) for shape in shapes
                for a in (rng.standard_normal(shape), rng.standard_normal(shape[1]))]

    def pairs(ts):
        return list(zip(ts[0::2], ts[1::2]))

    def feed_forward_case():
        B, T, D, F = (int(v) for v in rng.integers(1, 5, size=4))
        while True:
            # the relu's kink is not differentiable: keep every hidden cell off it
            x = rng.standard_normal((B, T, D))
            params = projections((D, F), (F, D))
            if np.abs(x @ params[0] + params[1]).min() > 1e-3:
                return ([x] + params, lambda ts: feed_forward(*ts),
                        lambda z: numpy_feed_forward(*z))

    cross_turn = itertools.cycle([False, True])

    def attention_case():
        heads = int(rng.choice([1, 2]))
        hidden = heads * int(rng.integers(2, 5))
        B, Tq = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        params = projections((hidden, 3 * hidden), (hidden, hidden))
        # inputs at half scale: a sharper softmax would cost its float32
        # backward more digits than the float32 tolerance allows
        x = 0.5 * rng.standard_normal((B, Tq, hidden))
        if not next(cross_turn):
            return ([x] + params, lambda ts: attention_block(ts[0], None, *ts[1:], heads)[0],
                    lambda z: numpy_attention_block(z[0], None, *z[1:], heads))
        # every other case is cross-attention to a memory of another length
        Tk = Tq + int(rng.integers(1, 4))
        return ([x, 0.5 * rng.standard_normal((B, Tk, hidden))] + params,
                lambda ts: attention_block(*ts, heads)[0],
                lambda z: numpy_attention_block(*z, heads))

    def gmu_case():
        d1, d2, out = (int(v) for v in rng.integers(1, 5, size=3))
        params = projections((d1, out), (d2, out), (d1 + d2, out))
        return ([rng.standard_normal((1, 3, d1)), rng.standard_normal((1, 3, d2))] + params,
                lambda ts: gated_unit(ts[0], ts[1], pairs(ts[2:]))[0],
                lambda z: numpy_gated_unit(*z))

    def head_case():
        # checked inputs stand in for the head's zero-initialized weight and bias
        hidden = int(rng.integers(2, 9))
        head = RegressionHead(hidden, rng)

        def op(ts):
            head.out.weight, head.out.bias = ts[1], ts[2]
            return head(ts[0])

        return ([rng.standard_normal((2, 4, hidden))] + projections((hidden, 1)), op,
                lambda z: (1.0 / (1.0 + np.exp(-(z[0] @ z[1] + z[2]))))[..., 0])

    def ccc_loss_case():
        B, W = int(rng.integers(1, 4)), int(rng.integers(3, 10))
        target = rng.random((B, W))
        # a partial mask; two columns stay in so every window keeps 2 frames
        mask = rng.random((B, W)) < 0.6
        mask[:, rng.choice(W, size=2, replace=False)] = True
        return ([rng.random((B, W))], lambda ts: ccc_loss(ts[0], target, mask),
                lambda z: numpy_ccc_loss(z[0], target, mask))

    return [
        ("linear", lambda: (linear_arrays(), lambda ts: linear(*ts),
                            lambda z: z[0] @ z[1] + z[2])),
        ("feed_forward", feed_forward_case),
        ("residual_norm", residual_norm_case),
        ("conv_stack", conv_case),
        ("attention", attention_case),
        ("gmu", gmu_case),
        ("sigmoid_head", head_case),
        ("ccc_loss", ccc_loss_case),
    ]


def check_gradient_suite(n_cases: int = 20, seed: int = 0) -> list[CheckResult]:
    """Complex-step checks in float64 and float32: one CheckResult per operation."""
    rng = np.random.default_rng(seed)
    results = []
    for name, case in _grad_cases(rng):

        def run(case=case):
            worst = dict.fromkeys(TOL, 0.0)
            for _ in range(n_cases):
                arrays, op, reference = case()
                for dtype, tol in TOL.items():
                    err = gradient_error(arrays, op, reference, dtype, rng)
                    assert err <= tol, f"{np.dtype(dtype)}: rel err {err:.2e} > {tol:.0e}"
                    worst[dtype] = max(worst[dtype], err)
            return f"{n_cases} configs, worst rel err " + ", ".join(
                f"{np.dtype(d)} {w:.2e}" for d, w in worst.items())

        results.append(_timed(f"grad/{name}", run))
    return results


# ---------------------------------------------------------------------------
# oracles and probes

def check_conv_oracle(cases: int = 50, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)

    def conv(x, w, b, dil):
        """One ``conv_stack`` layer, (B, C_out, T) again."""
        return conv_stack(Tensor(x), [(Tensor(w), Tensor(b))], [dil]).data.transpose(0, 2, 1)

    def unbiased(x, w, dil):
        # a zero bias adds +0.0, which is exact, so the equalities below stay exact
        return conv(x, w, np.zeros(w.shape[0]), dil)

    def run():
        for _ in range(cases):
            B, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
            T = int(rng.integers(1, 12))
            K = int(rng.choice([1, 3, 5]))
            dil = int(rng.integers(1, 4))
            x = rng.standard_normal((B, ci, T))
            w = rng.standard_normal((co, ci, K))
            b = rng.standard_normal(co)
            got = conv(x, w, b, dil)
            want = conv1d_direct(x, w, b, dil)
            err = np.abs(got - want).max()
            assert err <= 1e-12, f"direct-summation mismatch {err:.2e}"

        x = rng.standard_normal((1, 1, 16))
        w = rng.standard_normal((1, 1, 5))
        got = unbiased(x, w, 1)[0, 0]
        want = np.convolve(x[0, 0], w[0, 0, ::-1], mode="same")
        assert np.abs(got - want).max() <= 1e-12, "dilation-1 differs from plain convolution"

        ident = np.zeros((1, 1, 3))
        ident[0, 0, 1] = 1.0
        xi = rng.standard_normal((1, 1, 20))
        for dil in (1, 2, 4):
            out = unbiased(xi, ident, dil)
            assert np.array_equal(out, xi), "identity kernel is not exact"

        xf = rng.integers(-4, 5, size=(2, 2, 9)).astype(np.float64)
        wf = rng.integers(-4, 5, size=(2, 2, 3)).astype(np.float64)
        for dil in (1, 2, 3):
            got = unbiased(xf, wf[:, :, ::-1].copy(), dil)
            assert np.array_equal(got, conv1d_flip(xf, wf, dil)), \
                "flip-equivalence violated"
        return f"{cases} random cases + identity/flip/plain-conv equalities"

    return _timed("conv_oracle", run)


def check_ccc_oracle(pairs: int = 1000, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)

    def run():
        worst = 0.0
        for _ in range(pairs):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.5 * x
            worst = max(worst, abs(ccc(x, y).ccc - ccc_two_pass(x, y)))
            assert worst <= 1e-10, f"two-pass mismatch {worst:.2e}"
            assert abs(ccc(x, y).ccc - ccc(y, x).ccc) <= 1e-12, "not symmetric"
            assert abs(ccc(x, y).ccc) <= 1.0 + 1e-12, "out of [-1, 1]"
        x = rng.standard_normal(25)
        assert abs(ccc(x, x.copy()).ccc - 1.0) <= 1e-12, "ccc(x, x) != 1"
        worked = ccc(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 3.0, 4.0, 5.0]))
        assert worked.ccc == 2.5 / 3.5, "worked example not exact"
        return f"{pairs} pairs vs two-pass oracle, worst gap {worst:.2e}"

    return _timed("ccc_oracle", run)


def check_receptive_field(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)

    def run():
        cfg = DctmConfig(conv=ConvConfig(channels=4))
        rf = cfg.conv.receptive_field()
        assert rf == 41, f"default stack reports rf={rf}, expected 41"
        assert replace(cfg.conv, kind="traditional").receptive_field() == 11

        # the production relu stack with positive weights and inputs: every
        # relu is open, so the stack is linear and no relu can zero an
        # in-field path by chance
        stack = ConvStack(conv_specs(cfg, 2), rng)
        for layer in stack.layers:
            np.abs(layer.weight.data, out=layer.weight.data)
        half = (rf - 1) // 2
        T = 64
        x = 0.5 + rng.random((1, 2, T))
        base = stack(Tensor(x)).data
        bumped = x.copy()
        bumped[0, :, 0] += 1.0
        out = stack(Tensor(bumped)).data
        delta = np.abs(out - base).max(axis=(0, 2))
        beyond = delta[half + 1:]
        within = delta[:half + 1]
        assert beyond.max() <= 1e-12, \
            f"influence {beyond.max():.2e} beyond the receptive field"
        # all dilations are multiples of 4, so the composite kernel only
        # touches offsets in 4Z: tightness is nonzero influence at the
        # boundary offset (rf-1)/2 and at the center, zero past it
        assert within[half] > 1e-9, "no influence at the receptive-field boundary"
        assert within[0] > 1e-9, "no influence at the perturbed frame"
        support = np.nonzero(within > 1e-12)[0]
        assert all(o % 4 == 0 for o in support), \
            f"influence off the dilation lattice at offsets {support.tolist()}"
        return f"rf=41 tight; max leakage beyond rf {beyond.max():.2e}"

    return _timed("receptive_field", run)


def check_attention_rows(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)

    def run():
        cfg = TransformerSettings()  # full-size: hidden 128, 8 heads, 4+4 layers
        core = EncoderDecoder(cfg, rng)
        head = RegressionHead(cfg.hidden, rng)
        _fill_zero_weights(core, rng)
        _fill_zero_weights(head, rng)
        x = Tensor(rng.standard_normal((2, 64, cfg.hidden)).astype(np.float32))
        with capture() as seen:
            scores = head(core(x, rng)).data
        assert scores.shape == (2, 64), f"scores shaped {scores.shape}"
        assert scores.min() > 0.0 and scores.max() < 1.0, "scores left (0, 1)"
        worst = max(float(np.abs(m.sum(axis=-1) - 1.0).max()) for m in seen.values())
        count = len(seen)
        assert count == cfg.encoder_layers + 2 * cfg.decoder_layers, \
            f"expected attention maps from every layer, got {count}"
        assert worst <= 1e-6, f"attention row sums off by {worst:.2e}"

        mha = MultiHeadAttention(8, 1, rng)
        _fill_zero_weights(mha, rng)
        xs = rng.standard_normal((1, 5, 8))
        got = mha(Tensor(xs)).data[0]
        q, k, v = (xs[0] @ mha.w_in.data[:, i * 8:(i + 1) * 8] + mha.b_in.data[i * 8:(i + 1) * 8]
                   for i in range(3))
        want = attention_single_head_loop(q, k, v) @ mha.w_out.data + mha.b_out.data
        assert np.abs(got - want).max() <= 1e-10, "single-head loop oracle mismatch"
        return f"(2,64) scores in (0,1); {count} maps, worst row-sum gap {worst:.2e}"

    return _timed("attention", run)


def run_all(n_grad_cases: int = 20, seed: int = 0) -> list[CheckResult]:
    results = list(check_gradient_suite(n_cases=n_grad_cases, seed=seed))
    results.append(check_conv_oracle(seed=seed))
    results.append(check_ccc_oracle(seed=seed))
    results.append(check_receptive_field(seed=seed))
    results.append(check_attention_rows(seed=seed))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:<22} ({r.seconds:6.2f}s)  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    if failed:
        lines.append(f"FAILED ({len(failed)}/{len(results)}): {', '.join(failed)}")
    else:
        lines.append(f"all {len(results)} checks passed in {total:.1f}s")
    return "\n".join(lines) + "\n"
