"""Built-in verification suite: gradient checks for every differentiable
operation, convolution and concordance oracles, the receptive-field
perturbation probe, and attention sanity. The CLI `verify` command runs
`run_all` and exits nonzero if any check fails.

All checks run in float64; gradient tolerances are rel. err <= 1e-4
against central finite differences.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .conv import ConvLayerSpec, ConvStack, dilated_conv1d, receptive_field
from .fusion import GmuUnit
from .gradcheck import check_gradients, scalarize
from .metrics import ccc, ccc_loss
from .reference import attention_single_head_loop, ccc_two_pass, conv1d_direct, conv1d_flip
from .tensor import Tensor, layer_norm, linear, residual_norm
from .transformer import EncoderDecoder, MultiHeadAttention, RegressionHead, TransformerSettings

GRAD_RTOL = 1e-4


def _fill_zero_weights(module, rng) -> None:
    """Residual output projections and the scoring head are zero-initialized;
    checks of their math must give them random values or they would compare
    zero against zero."""
    for _, p in module.named_parameters():
        if not np.any(p.data):
            p.data = (0.1 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)


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

def _grad_cases(rng, n_cases):
    """(name, build_arrays, build_op) triples covering every op's backward."""

    def binary(op):
        def build(ts):
            return op(ts[0], ts[1])
        return build

    def away_from_zero(shape, margin):
        x = rng.standard_normal(shape)
        return x + margin * np.sign(x)

    def elementwise_arrays():
        shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
        # denominators (second slot) stay clear of 0 for the div case
        return [rng.standard_normal(shape), away_from_zero(shape, 0.5)]

    def matmul_arrays():
        n, k, m = (int(v) for v in rng.integers(1, 6, size=3))
        return [rng.standard_normal((n, k)), rng.standard_normal((k, m))]

    def linear_arrays():
        # B, T > 1: the weight gradient sums over every flattened frame
        B, T, D, O = (int(v) for v in rng.integers(2, 5, size=4))
        return [rng.standard_normal((B, T, D)), rng.standard_normal((D, O)),
                rng.standard_normal(O)]

    def layer_norm_arrays():
        B, T, D = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 8))
        return [rng.standard_normal((B, T, D)), rng.standard_normal(D),
                rng.standard_normal(D)]

    dropout_turn = itertools.cycle([False, True])

    def residual_norm_case():
        x, gain, bias = layer_norm_arrays()
        y = rng.standard_normal(x.shape)
        keep = None
        if next(dropout_turn):
            # every other case drops a branch cell with probability 0.3
            keep = (rng.random(x.shape) >= 0.3) / 0.7
        return ([x, y, gain, bias], lambda ts: residual_norm(ts[0], ts[1], keep, ts[2], ts[3]))

    def conv_arrays():
        B, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
        T = int(rng.integers(1, 10))
        K = int(rng.choice([1, 3, 5]))
        return [rng.standard_normal((B, ci, T)), rng.standard_normal((co, ci, K)),
                rng.standard_normal(co)]

    def conv_op_factory():
        dil = int(rng.integers(1, 4))
        return lambda ts: dilated_conv1d(ts[0], ts[1], ts[2], dil)

    cross_turn = itertools.cycle([False, True])

    def attention_case():
        heads = int(rng.choice([1, 2]))
        hidden = heads * int(rng.integers(2, 5))
        B, Tq = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        mha = MultiHeadAttention(hidden, heads, rng)
        _fill_zero_weights(mha, rng)
        x = rng.standard_normal((B, Tq, hidden))
        if not next(cross_turn):
            return [x], lambda ts: mha(ts[0])
        # every other case is cross-attention to a memory of another length
        Tk = Tq + int(rng.integers(1, 4))
        return ([x, rng.standard_normal((B, Tk, hidden))],
                lambda ts: mha(ts[0], memory=ts[1]))

    def gmu_case():
        d1, d2, out = (int(v) for v in rng.integers(1, 5, size=3))
        gmu = GmuUnit(d1, d2, out, rng)
        return ([rng.standard_normal((1, 3, d1)), rng.standard_normal((1, 3, d2))],
                lambda ts: gmu.fuse(ts[0], ts[1]))

    def head_case():
        hidden = int(rng.integers(2, 9))
        head = RegressionHead(hidden, rng)
        _fill_zero_weights(head, rng)
        return ([rng.standard_normal((2, 4, hidden))], lambda ts: head(ts[0]))

    def ccc_loss_case():
        B, W = int(rng.integers(1, 4)), int(rng.integers(3, 10))
        target = rng.random((B, W))
        # a partial mask; two columns stay in so every window keeps 2 frames
        mask = rng.random((B, W)) < 0.6
        mask[:, rng.choice(W, size=2, replace=False)] = True
        return ([rng.random((B, W))], lambda ts: ccc_loss(ts[0], target, mask))

    return [
        ("add", elementwise_arrays, lambda: binary(lambda a, b: a + b)),
        ("mul", elementwise_arrays, lambda: binary(lambda a, b: a * b)),
        ("div", elementwise_arrays, lambda: binary(lambda a, b: a / b)),
        ("tanh", lambda: elementwise_arrays()[:1], lambda: (lambda ts: ts[0].tanh())),
        ("sigmoid", lambda: elementwise_arrays()[:1], lambda: (lambda ts: ts[0].sigmoid())),
        ("relu", lambda: [away_from_zero(tuple(rng.integers(1, 5, size=2)), 0.2)],
         lambda: (lambda ts: ts[0].relu())),
        ("matmul", matmul_arrays, lambda: binary(lambda a, b: a @ b)),
        ("linear", linear_arrays, lambda: (lambda ts: linear(ts[0], ts[1], ts[2]))),
        ("layer_norm", layer_norm_arrays, lambda: (lambda ts: layer_norm(ts[0], ts[1], ts[2]))),
        ("residual_norm", None, residual_norm_case),
        ("dilated_conv1d", conv_arrays, conv_op_factory),
        ("attention", None, attention_case),
        ("gmu", None, gmu_case),
        ("sigmoid_head", None, head_case),
        ("ccc_loss", None, ccc_loss_case),
    ]


def check_gradient_suite(n_cases: int = 20, seed: int = 0) -> list[CheckResult]:
    """Finite-difference checks: one CheckResult per operation."""
    rng = np.random.default_rng(seed)
    results = []
    for name, arrays_fn, op_fn in _grad_cases(rng, n_cases):

        def run(arrays_fn=arrays_fn, op_fn=op_fn):
            worst = 0.0
            for _ in range(n_cases):
                if arrays_fn is None:
                    arrays, op = op_fn()
                else:
                    arrays, op = arrays_fn(), op_fn()
                build = scalarize(op, arrays, rng)
                err = check_gradients(build, arrays, rtol=GRAD_RTOL)
                worst = max(worst, err)
            return f"{n_cases} configs, worst rel err {worst:.2e}"

        results.append(_timed(f"grad/{name}", run))
    return results


# ---------------------------------------------------------------------------
# oracles and probes

def check_conv_oracle(cases: int = 50, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)

    def run():
        for _ in range(cases):
            B, ci, co = (int(v) for v in rng.integers(1, 4, size=3))
            T = int(rng.integers(1, 12))
            K = int(rng.choice([1, 3, 5]))
            dil = int(rng.integers(1, 4))
            x = rng.standard_normal((B, ci, T))
            w = rng.standard_normal((co, ci, K))
            b = rng.standard_normal(co)
            got = dilated_conv1d(Tensor(x), Tensor(w), Tensor(b), dil).data
            want = conv1d_direct(x, w, b, dil)
            err = np.abs(got - want).max()
            assert err <= 1e-12, f"direct-summation mismatch {err:.2e}"

        x = rng.standard_normal((1, 1, 16))
        w = rng.standard_normal((1, 1, 5))
        got = dilated_conv1d(Tensor(x), Tensor(w), None, 1).data[0, 0]
        want = np.convolve(x[0, 0], w[0, 0, ::-1], mode="same")
        assert np.abs(got - want).max() <= 1e-12, "dilation-1 differs from plain convolution"

        ident = np.zeros((1, 1, 3))
        ident[0, 0, 1] = 1.0
        xi = rng.standard_normal((1, 1, 20))
        for dil in (1, 2, 4):
            out = dilated_conv1d(Tensor(xi), Tensor(ident), None, dil).data
            assert np.array_equal(out, xi), "identity kernel is not exact"

        xf = rng.integers(-4, 5, size=(2, 2, 9)).astype(np.float64)
        wf = rng.integers(-4, 5, size=(2, 2, 3)).astype(np.float64)
        for dil in (1, 2, 3):
            got = dilated_conv1d(Tensor(xf), Tensor(wf[:, :, ::-1].copy()), None, dil).data
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
        specs = [ConvLayerSpec(2, 4, 5, 4), ConvLayerSpec(4, 4, 5, 4),
                 ConvLayerSpec(4, 4, 3, 4)]
        rf = receptive_field(specs)
        assert rf == 41, f"default stack reports rf={rf}, expected 41"
        assert receptive_field([ConvLayerSpec(2, 4, 5, 1), ConvLayerSpec(4, 4, 5, 1),
                                ConvLayerSpec(4, 4, 3, 1)]) == 11

        # linear stack: same receptive field, but no relu gating that could
        # zero out an in-field path by chance
        stack = ConvStack(specs, rng, activation="none")
        half = (rf - 1) // 2
        T = 64
        x = rng.standard_normal((1, 2, T))
        base = stack(Tensor(x)).data
        bumped = x.copy()
        bumped[0, :, 0] += 1.0
        out = stack(Tensor(bumped)).data
        delta = np.abs(out - base).max(axis=(0, 1))
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
        scores = head(core(x, rng)).data
        assert scores.shape == (2, 64), f"scores shaped {scores.shape}"
        assert scores.min() > 0.0 and scores.max() < 1.0, "scores left (0, 1)"
        worst = 0.0
        maps = core.attention_maps()
        count = 0
        for group in maps.values():
            for m in group:
                worst = max(worst, float(np.abs(m.sum(axis=-1) - 1.0).max()))
                count += 1
        assert count == cfg.encoder_layers + 2 * cfg.decoder_layers, \
            f"expected attention maps from every layer, got {count}"
        assert worst <= 1e-6, f"attention row sums off by {worst:.2e}"

        mha = MultiHeadAttention(8, 1, rng)
        _fill_zero_weights(mha, rng)
        xs = rng.standard_normal((1, 5, 8))
        got = mha(Tensor(xs)).data[0]
        q = xs[0] @ mha.wq.weight.data + mha.wq.bias.data
        k = xs[0] @ mha.wk.weight.data + mha.wk.bias.data
        v = xs[0] @ mha.wv.weight.data + mha.wv.bias.data
        want = attention_single_head_loop(q, k, v) @ mha.wo.weight.data + mha.wo.bias.data
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
