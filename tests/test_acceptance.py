"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines
appear as criteria complete (without -s they show in the captured-output
section). Several criteria train real models; the full file takes a few
minutes on a laptop CPU.
"""

import time

import numpy as np
import pytest

import dctm.fusion
from dctm.ablate import magnitude_rows, run_ablation
from dctm.checkpoint import load_checkpoint, save_checkpoint
from dctm.config import ConvConfig, DataConfig, DctmConfig, FusionConfig, OptimConfig
from dctm.data import (
    MODALITIES,
    SyntheticSpec,
    batch_windows,
    compute_norm_stats,
    apply_norm_stats,
    generate_dataset,
    generate_synthetic,
    load_split_sessions,
    make_windows,
)
from dctm.metrics import ccc, ccc_loss
from dctm.model import DctmModel
from dctm.optim import Adam
from dctm.reference import ridge_regression_ccc
from dctm.tensor import Tensor, no_grad
from dctm.train import evaluate_run, fit, load_run, train_run
from dctm.transformer import TransformerSettings
from dctm.verify import (
    check_attention_rows,
    check_ccc_oracle,
    check_conv_oracle,
    check_gradient_suite,
    check_receptive_field,
)


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {title} -- {detail}"
    print(f"\n{line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared data

@pytest.fixture(scope="module")
def voice_data():
    """25 sessions of 1000 frames with signal in voice only, plus the
    closed-form per-frame ridge baseline on the same 20/5 split."""
    spec = SyntheticSpec(seed=0, sessions=25, frames=1000, snr=(0.0, 0.0, 1.0))
    sessions = generate_synthetic(spec)
    train = [s for s in sessions if int(s.session_id[1:]) < 20]
    val = [s for s in sessions if int(s.session_id[1:]) >= 20]

    def xy(ss):
        X = np.concatenate([
            np.concatenate([s.streams[m].features for m in MODALITIES], axis=1)
            for s in ss])
        return X, np.concatenate([s.labels for s in ss])

    Xtr, ytr = xy(train)
    Xva, yva = xy(val)
    ridge = ridge_regression_ccc(Xtr, ytr, Xva, yva)
    return train, val, ridge


def learn_cfg(fusion: str, seed: int) -> DctmConfig:
    """Desk-scale variant of the architecture for the learnability runs."""
    return DctmConfig(
        conv=ConvConfig(channels=32),
        fusion=FusionConfig(kind=fusion),
        transformer=TransformerSettings(hidden=64, heads=4, encoder_layers=2,
                                        decoder_layers=2, ff_dim=256, dropout=0.1),
        optim=OptimConfig(lr=1e-3, epochs=3, batch_size=32),
        seed=seed,
    )


@pytest.fixture(scope="module")
def grid_root(tmp_path_factory):
    """Small on-disk dataset for the ablation harness; voice carries the
    signal, head and pose are pure noise."""
    root = tmp_path_factory.mktemp("acceptance-data")
    generate_dataset(root, SyntheticSpec(seed=4, sessions=4, frames=1700,
                                         dims=(3, 3, 2), snr=(0.0, 0.0, 2.0)))
    return root


def tiny_cfg(root, seed=0) -> DctmConfig:
    return DctmConfig(
        conv=ConvConfig(channels=8),
        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                        decoder_layers=1, ff_dim=32, dropout=0.1),
        optim=OptimConfig(lr=1e-3, epochs=2, batch_size=8),
        data=DataConfig(root=str(root)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the ten criteria

def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    results = check_gradient_suite(n_cases=20, seed=0)
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in results if not r.passed]
    ok = not bad and elapsed < 120.0
    _verdict(1, f"complex-step gradients in float64 and float32, {len(results)} ops x "
                "20 configs, rel err <= 1e-12 / 1e-5",
             ok, f"{len(results)} ops in {elapsed:.1f}s"
             + (f"; failed {bad}" if bad else ""))


def test_criterion_02_conv_oracle():
    r = check_conv_oracle(seed=0)
    _verdict(2, "dilated conv vs direct summation (1e-12), identity, "
                "plain-conv and kernel-flip equalities", r.passed, r.detail)


def test_criterion_03_receptive_field():
    model = DctmModel(DctmConfig(), {"head": 8, "pose": 12, "voice": 10},
                      np.random.default_rng(0))
    rf_ok = model.receptive_field() == 41
    probe = check_receptive_field(seed=0)
    ok = rf_ok and probe.passed
    _verdict(3, "default stack reports rf=41; perturbation probe finds zero "
                "influence beyond it (<=1e-12) and nonzero within",
             ok, f"model rf {model.receptive_field()}; probe: {probe.detail}")


def test_criterion_04_ccc_correctness():
    oracle = check_ccc_oracle(seed=0)
    worked = ccc([1, 2, 3, 4], [2, 3, 4, 5])
    exact = worked.ccc == 2.5 / 3.5
    rng = np.random.default_rng(0)
    sym_ok = ident_ok = bound_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = ccc(x, y).ccc, ccc(y, x).ccc
        sym_ok &= (a == b)
        bound_ok &= (-1.0 - 1e-12 <= a <= 1.0 + 1e-12)
        ident_ok &= (ccc(x, x).ccc == 1.0)
    ok = oracle.passed and exact and sym_ok and ident_ok and bound_ok
    _verdict(4, "ccc vs two-pass oracle (1e-10, 1000 pairs); ccc(x,x)=1, "
                "symmetry, |ccc|<=1, worked example 2.5/3.5 exact",
             ok, f"{oracle.detail}; worked={worked.ccc!r}")


def test_criterion_05_shapes_and_attention_rows():
    model = DctmModel(DctmConfig(), {"head": 8, "pose": 12, "voice": 10},
                      np.random.default_rng(0))
    rng = np.random.default_rng(1)
    feats = {m: rng.standard_normal((2, d, 64)).astype(np.float32)
             for m, d in (("head", 8), ("pose", 12), ("voice", 10))}
    seen = model.inspect(feats)
    scores = seen.scores
    shape_ok = scores.shape == (2, 64)
    range_ok = bool(scores.min() > 0.0 and scores.max() < 1.0)
    maps = seen.attention
    count = sum(len(g) for g in maps.values())
    worst = max(float(np.abs(m.sum(axis=-1) - 1.0).max())
                for g in maps.values() for m in g)
    rows_ok = count == 12 and worst <= 1e-6
    sanity = check_attention_rows(seed=0)
    ok = shape_ok and range_ok and rows_ok and sanity.passed
    _verdict(5, "full-size forward (B=2,T=64,hidden=128,heads=8,4+4) gives "
                "(2,64) scores in (0,1); attention rows sum to 1 +- 1e-6",
             ok, f"shape {scores.shape}, {count} maps, worst row gap {worst:.2e}")


def test_criterion_06_overfit_smoke():
    cfg = DctmConfig()  # full-size architecture
    sessions = generate_synthetic(SyntheticSpec(seed=7, sessions=1, frames=300,
                                                roles=("expert",)))
    stats = compute_norm_stats(sessions)
    session = apply_norm_stats(sessions[0], stats)
    windows = make_windows(session, window=64, stride=32)[:8]
    batch = batch_windows(windows)

    model = DctmModel(cfg, {m: batch.features[m].shape[1] for m in batch.features},
                      np.random.default_rng(cfg.seed))
    params = list(model.named_parameters())
    opt = Adam(model.arena, lr=1e-3)
    t0 = time.perf_counter()
    hit, final = None, 0.0
    for step in range(500):
        pred = model(batch.features, np.random.default_rng([0, step]), training=True)
        loss = ccc_loss(pred, batch.labels, mask=batch.mask)
        for _, p in params:
            p.grad = None
        loss.backward()
        opt.step()
        with no_grad():
            final = ccc(pred.data.ravel(), batch.labels.ravel(),
                        mask=batch.mask.ravel()).ccc
        if final >= 0.99:
            hit = step
            break
    elapsed = time.perf_counter() - t0
    ok = hit is not None and elapsed < 300.0
    _verdict(6, "8 windows, lr 1e-3: train ccc >= 0.99 within 500 steps, < 5 min",
             ok, f"ccc {final:+.4f} at step {hit if hit is not None else 499}, "
                 f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_synthetic_learnability(voice_data):
    train, val, ridge = voice_data
    outcomes = []
    for seed in (0, 1, 2):
        result = fit(learn_cfg("sa", seed), train, val)
        best = max(result.val_ccc_curve)
        outcomes.append((seed, best, best >= ridge and best >= 0.6))
    passed = sum(1 for _, _, p in outcomes if p)
    ok = passed >= 2
    detail = f"ridge {ridge:+.4f}; " + ", ".join(
        f"seed {s}: {v:+.4f} {'ok' if p else 'MISS'}" for s, v, p in outcomes)
    _verdict(7, "voice-only data (snr 0/0/1): concat-fusion model beats "
                "per-frame ridge and reaches >= 0.6 for 2 of 3 seeds",
             ok, detail)


@pytest.mark.slow
def test_criterion_08_gmu_gate_sanity(voice_data, monkeypatch):
    train, val, _ = voice_data
    # the gate helper must read mean(1 - z) of the z the top unit's forward returns
    real_gated_unit, returned = dctm.fusion.gated_unit, []

    def recording(*args):
        out, z = real_gated_unit(*args)
        returned.append(z)
        return out, z

    gates, exact = [], True
    for seed in (0, 1, 2):
        result = fit(learn_cfg("gmu", seed), train, val)
        # a fresh evaluation forward, so the gate reflects trained weights
        stats = compute_norm_stats(train)
        probe = apply_norm_stats(val[0], stats)
        batch = batch_windows(make_windows(probe, 64, 32)[:32])
        with monkeypatch.context() as patch:
            patch.setattr(dctm.fusion, "gated_unit", recording)
            gate = result.model.inspect(batch.features).gate_toward_last_modality
        exact &= gate == float(np.mean(1.0 - returned[-1]))
        gates.append(gate)
    passing = sum(1 for g in gates if g > 0.5)
    ok = passing >= 2 and exact
    _verdict(8, "gated fusion on voice-only data: mean top gate toward voice "
                "> 0.5 for 2 of 3 seeds",
             ok, ", ".join(f"{g:.4f}" for g in gates))


def test_criterion_09_ablation_harness(grid_root):
    base = tiny_cfg(grid_root)
    cells, _ = run_ablation(base,
                            conv_kinds=("dilated", "traditional", "none"),
                            fusion_kinds=("sa", "gmu"),
                            subjects=("expert", "novice"))
    grid_ok = (len(cells) == 12
               and all(c.status == "ok" for c in cells)
               and {(c.conv, c.fusion, c.subject) for c in cells}
               == {(c, f, s) for c in ("dilated", "traditional", "none")
                   for f in ("sa", "gmu") for s in ("expert", "novice")}
               and {c.receptive_field for c in cells} == {41, 11, 1})

    rows = magnitude_rows("both", load_split_sessions(grid_root, "train"), MODALITIES)
    by_mod = {r.modality: r for r in rows}
    n = by_mod["head"].n
    noise_ok = (n >= 10_000
                and abs(by_mod["head"].ccc) < 0.05
                and abs(by_mod["pose"].ccc) < 0.05)
    ok = grid_ok and noise_ok
    _verdict(9, "ablation grid covers conv x fusion x subject; pure-noise "
                "modalities have |magnitude ccc| < 0.05 at n >= 1e4",
             ok, f"{len(cells)} cells ok; n={n}, "
                 f"head {by_mod['head'].ccc:+.4f}, pose {by_mod['pose'].ccc:+.4f}, "
                 f"voice {by_mod['voice'].ccc:+.4f}")


def test_criterion_10_determinism_and_persistence(grid_root, tmp_path):
    cfg = tiny_cfg(grid_root, seed=11)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    rep_a = train_run(cfg, run_a)
    rep_b = train_run(cfg, run_b)
    curves_ok = (rep_a.loss_curve == rep_b.loss_curve
                 and rep_a.train_ccc_curve == rep_b.train_ccc_curve
                 and rep_a.val_ccc_curve == rep_b.val_ccc_curve)

    # checkpoint round trip: load -> save must be byte-identical
    _, model, _, _ = load_run(run_a)
    load_checkpoint(run_a / "checkpoint.best.dctm", model.named_parameters())
    save_checkpoint(tmp_path / "relay.dctm",
                    [(name, p.data) for name, p in model.named_parameters()])
    bytes_ok = ((run_a / "checkpoint.best.dctm").read_bytes()
                == (tmp_path / "relay.dctm").read_bytes())

    eval_1 = evaluate_run(run_a, split="val", which="best")
    eval_2 = evaluate_run(run_a, split="val", which="best")
    eval_ok = (eval_1.ccc_overall == eval_2.ccc_overall
               and eval_1.ccc_overall == rep_a.ccc_overall)
    ok = curves_ok and bytes_ok and eval_ok
    _verdict(10, "same config+seed trains bit-identically; checkpoint "
                 "round-trip is byte-exact and evaluation ccc is preserved",
             ok, f"curves {'==' if curves_ok else '!='}, "
                 f"bytes {'==' if bytes_ok else '!='}, "
                 f"ccc {eval_1.ccc_overall:+.4f} "
                 f"{'==' if eval_ok else '!='} {rep_a.ccc_overall:+.4f}")
