"""Training loop and run-directory orchestration."""

import json
import os
import shutil
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dctm.data
import dctm.parallel
import dctm.tensor
import dctm.train
import dctm.verify
from dctm.checkpoint import load_checkpoint, save_checkpoint
from dctm.cli import EXIT_CONFIG, main
from dctm.config import (ConvConfig, DataConfig, DctmConfig, FusionConfig, OptimConfig,
                         resolve_config)
from dctm.data import (ModalityStream, NormStats, Session, SyntheticSpec, batch_windows,
                       generate_dataset, generate_synthetic, load_split_sessions,
                       make_windows, normalize, overlap_average, window_starts,
                       write_session, write_splits)
from dctm.errors import ConfigError, DataError, NumericalError
from dctm.layers import Module
from dctm.metrics import ccc
from dctm.model import DctmModel
from dctm.tensor import Tensor, no_grad
from dctm.train import (JOB_WINDOWS, evaluate_run, feature_dims_of, fit, load_run,
                        predict_run, predict_sessions, train_run)
from dctm.transformer import TransformerSettings


def tiny_cfg(root="unused", epochs=2, seed=3, **over) -> DctmConfig:
    base = dict(
        conv=ConvConfig(channels=8),
        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                        decoder_layers=1, ff_dim=32, dropout=0.1),
        optim=OptimConfig(lr=1e-3, epochs=epochs, batch_size=4),
        data=DataConfig(root=str(root), window=32, stride=16),
        seed=seed,
    )
    base.update(over)
    return DctmConfig(**base)


def tiny_sessions(seed=5, sessions=3, frames=100):
    return generate_synthetic(SyntheticSpec(seed=seed, sessions=sessions,
                                            frames=frames, dims=(4, 5, 3)))


def arrays_held(module, path="model"):
    """Paths of every array a module tree holds outside its parameters."""
    found = []
    for name, value in vars(module).items():
        where = f"{path}.{name}"
        values = (value.items() if isinstance(value, dict)
                  else enumerate(value) if isinstance(value, (list, tuple)) else None)
        for key, item in values if values is not None else [(None, value)]:
            at = where if key is None else f"{where}[{key!r}]"
            if isinstance(item, Module):
                found += arrays_held(item, at)
            elif isinstance(item, np.ndarray) or (isinstance(item, Tensor)
                                                  and not item.requires_grad):
                found.append(at)
    return found


def traced_fit_peak(cfg, sessions) -> tuple[int, int]:
    """(tracemalloc's peak during `fit`, the sessions' feature bytes)."""
    data = sum(stream.features.nbytes for s in sessions for stream in s.streams.values())
    tracemalloc.start()
    try:
        fit(cfg, sessions, [])
        return tracemalloc.get_traced_memory()[1], data
    finally:
        tracemalloc.stop()


class TestFit:
    def test_peak_memory_is_the_sessions_plus_one_batch(self):
        """Batches are gathered when their step starts, so training holds the
        normalized sessions plus one step. A step's share is measured as the
        excess of a fit on one batch of windows over its own data. A quarter
        of the data more covers what grows with the window count at under a
        tenth of it here: each window's mask, and the epoch's predictions and
        labels kept for train CCC. Copies of every window's features alone
        would take twice the data at stride W/2."""
        cfg = tiny_cfg(epochs=1, optim=OptimConfig(lr=1e-3, epochs=1, batch_size=8),
                       data=DataConfig(root="unused", window=64, stride=32))
        spec = SyntheticSpec(seed=1, sessions=1, frames=64 + 7 * 32, dims=(40, 40, 40),
                             roles=("expert",))
        one_batch, one_batch_data = traced_fit_peak(cfg, generate_synthetic(spec))
        larger = replace(spec, sessions=2, frames=1200, roles=("expert", "novice"))
        peak, data = traced_fit_peak(cfg, generate_synthetic(larger))
        assert peak < data + (one_batch - one_batch_data) + data // 4, (peak, data, one_batch)

    def test_reruns_are_bit_identical(self):
        results = []
        for _ in range(2):
            sessions = tiny_sessions()
            results.append(fit(tiny_cfg(), sessions[:4], sessions[4:]))
        a, b = results
        assert a.loss_curve == b.loss_curve
        assert a.train_ccc_curve == b.train_ccc_curve
        assert a.val_ccc_curve == b.val_ccc_curve
        assert a.best_epoch == b.best_epoch
        assert set(a.last_state) == set(b.last_state)
        for name in a.last_state:
            np.testing.assert_array_equal(a.last_state[name], b.last_state[name])

    def test_best_epoch_is_argmax_of_val_curve(self):
        sessions = tiny_sessions()
        result = fit(tiny_cfg(epochs=3), sessions[:4], sessions[4:])
        assert len(result.val_ccc_curve) == 3
        assert result.best_epoch == int(np.argmax(result.val_ccc_curve))

    def test_no_validation_keeps_final_weights(self):
        sessions = tiny_sessions()
        result = fit(tiny_cfg(), sessions, [])
        assert result.val_ccc_curve == []
        assert result.best_epoch == 1  # last epoch of 2
        for name in result.best_state:
            np.testing.assert_array_equal(result.best_state[name],
                                          result.last_state[name])

    def test_without_validation_the_weights_are_copied_once(self, monkeypatch):
        copies = []
        real = dctm.train._state_of

        def counting(model):
            copies.append(model)
            return real(model)

        monkeypatch.setattr(dctm.train, "_state_of", counting)
        result = fit(tiny_cfg(epochs=3), tiny_sessions(), [])
        assert len(copies) == 1
        assert result.best_state is result.last_state and result.best_epoch == 2
        for name, p in result.model.named_parameters():
            assert result.last_state[name].tobytes() == p.data.tobytes()
            assert not np.shares_memory(result.last_state[name], p.data)

    def test_no_module_keeps_an_array_after_fit(self):
        sessions = tiny_sessions()
        for fusion in ("sa", "gmu"):
            result = fit(tiny_cfg(fusion=FusionConfig(kind=fusion)), sessions[:4],
                         sessions[4:])
            assert arrays_held(result.model) == []

    def test_fit_is_independent_of_the_blas_thread_count(self, blas):
        """Training GEMMs at 2048 rows and hidden 128, which OpenBLAS splits
        over its threads, give the same curves and weights on 1 and 3."""
        train = tiny_sessions(seed=2, sessions=1, frames=1056)  # 2 x 32 windows of 64
        val = tiny_sessions(seed=4, sessions=1, frames=200)
        _, set_threads = blas
        for precision in ("float32", "float64"):
            cfg = DctmConfig(
                conv=ConvConfig(channels=16),
                transformer=TransformerSettings(hidden=128, heads=8, encoder_layers=1,
                                                decoder_layers=1, ff_dim=256),
                optim=OptimConfig(epochs=1, batch_size=32),
                data=DataConfig(window=64, stride=32), precision=precision)
            results = []
            for threads in (1, 3):
                set_threads(threads)
                results.append(fit(cfg, train, val))
            one, three = results
            assert one.loss_curve == three.loss_curve
            assert one.val_ccc_curve == three.val_ccc_curve
            for name, weights in one.last_state.items():
                assert weights.tobytes() == three.last_state[name].tobytes(), name

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            fit(tiny_cfg(), [], [])

    def test_non_finite_loss_aborts_with_location(self):
        # features get NaN-imputed during normalization, so poison the
        # labels, which reach the loss unfiltered
        sessions = tiny_sessions()
        for s in sessions:
            s.labels[:] = np.nan
        with pytest.raises(NumericalError, match=r"epoch 0, step 0"):
            fit(tiny_cfg(), sessions[:4], [])

    def test_non_finite_validation_ccc_aborts_at_its_epoch(self, monkeypatch):
        # NaN > best is False, so a NaN validation CCC used to be skipped
        # silently, and on the last epoch its weights were kept as the final ones
        sessions = tiny_sessions()
        real_forward, real_score = DctmModel.__call__, dctm.train.score_sessions
        validations = []

        def forward(self, features, rng, training=False):
            out = real_forward(self, features, rng, training)
            if not training and len(validations) == 2:
                out.data[...] = np.nan
            return out

        def score(*args):
            validations.append(args)
            return real_score(*args)

        monkeypatch.setattr(DctmModel, "__call__", forward)
        monkeypatch.setattr(dctm.train, "score_sessions", score)
        with pytest.raises(NumericalError, match=r"validation CCC nan at epoch 1"):
            fit(tiny_cfg(epochs=3), sessions[:4], sessions[4:])
        assert len(validations) == 2

    def test_gradients_are_freed_before_the_next_forward(self, monkeypatch):
        """fit drops every gradient once Adam has gathered it, so no forward
        (training or validation) runs with the last step's gradients alive."""
        sessions = tiny_sessions()
        real = DctmModel.__call__
        held = []

        def recording(self, features, rng, training=False):
            held.append([name for name, p in self.named_parameters() if p.grad is not None])
            return real(self, features, rng, training)

        monkeypatch.setattr(DctmModel, "__call__", recording)
        result = fit(tiny_cfg(), sessions[:4], sessions[4:])
        assert len(held) > 4 and held == [[]] * len(held)
        assert all(p.grad is None for _, p in result.model.named_parameters())

    def test_curves_have_one_entry_per_epoch(self):
        sessions = tiny_sessions()
        result = fit(tiny_cfg(epochs=3), sessions[:4], sessions[4:])
        assert len(result.loss_curve) == 3
        assert len(result.train_ccc_curve) == 3
        assert all(np.isfinite(v) for v in result.loss_curve)


@pytest.fixture(scope="module")
def run_env(tmp_path_factory):
    """One trained run shared by the read-only orchestration tests."""
    root = tmp_path_factory.mktemp("dataset")
    run = tmp_path_factory.mktemp("runs") / "r0"
    generate_dataset(root, SyntheticSpec(seed=5, sessions=3, frames=100,
                                         dims=(4, 5, 3)))
    cfg = tiny_cfg(root=root)
    report = train_run(cfg, run)
    return cfg, root, run, report


class TestTrainRun:
    def test_validation_scored_once_per_epoch(self, tmp_path, monkeypatch):
        # the report reuses fit's best-epoch score instead of a rescoring pass
        root = tmp_path / "data"
        generate_dataset(root, SyntheticSpec(seed=5, sessions=3, frames=100, dims=(4, 5, 3)))
        calls = []
        real = dctm.train.score_sessions

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dctm.train, "score_sessions", counting)
        train_run(tiny_cfg(root=root, epochs=2), tmp_path / "run")
        assert len(calls) == 2

    def test_artifacts_written(self, run_env):
        _, _, run, _ = run_env
        for name in ("config.txt", "norm_stats.csv", "meta.json",
                     "checkpoint.best.dctm", "checkpoint.last.dctm",
                     "report.json", "report.txt"):
            assert (run / name).exists(), name
        assert not list(run.glob("*.tmp"))

    def test_report_echoes_full_config(self, run_env):
        cfg, _, run, report = run_env
        saved = json.loads((run / "report.json").read_text())
        assert saved["config"]["optim.lr"] == "0.001"
        assert saved["config"]["data.window"] == "32"
        assert saved["config"]["seed"] == str(cfg.seed)
        assert len(saved["loss_curve"]) == cfg.optim.epochs
        assert saved["split"] == "val"
        assert report.checkpoint.endswith("checkpoint.best.dctm")

    def test_one_score_per_validation_session(self, run_env):
        _, _, _, report = run_env
        # one val session id, expanded over expert + novice roles
        assert len(report.per_session) == 2
        names = sorted(s.session for s in report.per_session)
        assert names[0].endswith("/expert") and names[1].endswith("/novice")

    def test_meta_records_feature_dims(self, run_env):
        _, _, run, _ = run_env
        meta = json.loads((run / "meta.json").read_text())
        assert meta["feature_dims"] == {"head": 4, "pose": 5, "voice": 3}
        assert isinstance(meta["best_epoch"], int)
        assert meta["build"]


def assert_views_of_the_arena(model):
    """Every parameter's array is its contiguous slice of the model's arena."""
    for (name, p), view in zip(model.named_parameters(), model.arena.views(model.arena.flat)):
        assert p.data.base is model.arena.flat and p.data.ctypes.data == view.ctypes.data, name


class TestParameterArena:
    """No path rebinds a parameter's ``.data``: each stays a view of its
    model's arena, which Adam updates and checkpoints are read into."""

    def test_after_fit(self):
        sessions = tiny_sessions()
        result = fit(tiny_cfg(), sessions[:4], sessions[4:])
        assert_views_of_the_arena(result.model)
        state = list(result.best_state.values())
        assert all(a.base is state[0].base for a in state)
        assert not np.shares_memory(state[0].base, result.model.arena.flat)

    def test_after_load_run_and_restore(self, run_env):
        _, _, run, _ = run_env
        _, model, _, _ = load_run(run)
        assert_views_of_the_arena(model)
        load_checkpoint(run / "checkpoint.best.dctm", model.named_parameters())
        assert_views_of_the_arena(model)
        assert np.any(model.arena.flat)

    def test_opening_a_run_holds_the_arena_and_little_else(self, tmp_path):
        """`load_run` builds a model owning no parameter memory but its
        arena, and `load_checkpoint` reads the records straight into it:
        the traced peak of both is the arena plus 1 MiB at the default
        architecture (about 7.6 MiB of float32 weights)."""
        dims = {"head": 4, "pose": 5, "voice": 3}
        drawn = DctmModel(DctmConfig(), dims, np.random.default_rng(0))
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.txt").write_text("")     # every setting at its default
        (run / "meta.json").write_text(json.dumps({"feature_dims": dims}))
        normalize(tiny_sessions())[1].save(run / "norm_stats.csv")
        save_checkpoint(run / "checkpoint.best.dctm",
                        [(name, p.data) for name, p in drawn.named_parameters()])
        tracemalloc.start()
        try:
            _, model, _, _ = load_run(run)
            for name, p in model.named_parameters():
                assert np.shares_memory(p.data, model.arena.flat), name
            load_checkpoint(run / "checkpoint.best.dctm", model.named_parameters())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= model.arena.flat.nbytes + 2 ** 20
        assert model.arena.flat.tobytes() == drawn.arena.flat.tobytes()
        assert_views_of_the_arena(model)

    def test_after_verify_fills_zero_weights(self):
        model = DctmModel(tiny_cfg(), {"head": 4, "pose": 5, "voice": 3},
                          np.random.default_rng(0))
        dctm.verify._fill_zero_weights(model, np.random.default_rng(1))
        assert_views_of_the_arena(model)
        assert all(np.any(p.data) for _, p in model.named_parameters() if p.data.ndim == 2)


class TestEvaluateRun:
    @pytest.mark.parametrize("entry", ["evaluate", "predict"])
    def test_reads_one_checkpoint_into_one_model(self, run_env, tmp_path, monkeypatch,
                                                 entry):
        """The benchmark times scoring set-up by wrapping `train.load_checkpoint`
        and `DctmModel.__init__` by name: each must run exactly once per call,
        or those spans would time nothing."""
        _, _, run, _ = run_env
        calls = []
        real_load, real_init = dctm.train.load_checkpoint, DctmModel.__init__

        def load(*args, **kwargs):
            calls.append("load")
            return real_load(*args, **kwargs)

        def init(self, *args, **kwargs):
            calls.append("build")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(dctm.train, "load_checkpoint", load)
        monkeypatch.setattr(DctmModel, "__init__", init)
        if entry == "evaluate":
            evaluate_run(run, split="val")
        else:
            predict_run(run, tmp_path / "scores", split="val")
        assert sorted(calls) == ["build", "load"]

    def test_matches_training_report_exactly(self, run_env):
        _, _, run, report = run_env
        again = evaluate_run(run, split="val", which="best")
        assert again.ccc_overall == report.ccc_overall
        for fresh, orig in zip(again.per_session, report.per_session):
            assert fresh.session == orig.session
            assert fresh.ccc == orig.ccc

    def test_repeat_evaluation_identical(self, run_env):
        _, _, run, _ = run_env
        a = evaluate_run(run, split="val", which="last")
        b = evaluate_run(run, split="val", which="last")
        assert a.ccc_overall == b.ccc_overall

    def test_writes_split_specific_report(self, run_env):
        _, _, run, _ = run_env
        evaluate_run(run, split="train", which="best")
        assert (run / "report.train.best.json").exists()
        assert (run / "report.train.best.txt").exists()

    def test_unknown_split_rejected(self, run_env):
        _, _, run, _ = run_env
        with pytest.raises(DataError, match="test"):
            evaluate_run(run, split="test", which="best")

    def test_bad_checkpoint_selector(self, run_env):
        _, _, run, _ = run_env
        with pytest.raises(ConfigError, match="best.*last"):
            evaluate_run(run, split="val", which="newest")

    def test_missing_run_directory(self, tmp_path):
        with pytest.raises(DataError, match="run directory"):
            evaluate_run(tmp_path / "nope")


class TestPredictRun:
    def test_score_files_cover_every_frame(self, run_env, tmp_path):
        _, _, run, _ = run_env
        written = predict_run(run, tmp_path, split="val", which="best")
        assert len(written) == 2
        for path in written:
            assert path.name.endswith(".scores.csv")
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "frame,score"
            assert len(lines) == 1 + 100
            for t, line in enumerate(lines[1:]):
                frame, score = line.split(",")
                assert int(frame) == t
                assert 0.0 < float(score) < 1.0

    def test_load_run_rebuilds_matching_model(self, run_env):
        cfg, _, run, _ = run_env
        loaded_cfg, model, stats, meta = load_run(run)
        assert loaded_cfg == cfg
        assert model.feature_dims == meta["feature_dims"]
        assert "voice.f0" in stats.names


def _truncated(session, T):
    streams = {m: replace(s, features=s.features[:T].copy(), frame_index=s.frame_index[:T],
                          valid_mask=s.valid_mask[:T])
               for m, s in session.streams.items()}
    return replace(session, streams=streams, labels=session.labels[:T])


class TestPredictMatchesEvaluate:
    def test_predicted_scores_reproduce_per_session_ccc(self, tmp_path):
        # window 32, stride 16: one val role shorter than the window, one
        # whose length (75) ends off the stride grid and has an empty cell
        root, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "pred"
        lengths = {"s002/expert": 20, "s002/novice": 75}
        for s in tiny_sessions(sessions=3, frames=100):
            s = _truncated(s, lengths.get(s.key, s.num_frames))
            if s.key == "s002/novice":
                s.streams["pose"].features[7, 1] = np.nan
            write_session(root, s)
        write_splits(root, ["s000", "s001"], ["s002"])
        train_run(tiny_cfg(root=root, epochs=1), run)

        report = evaluate_run(run, split="val", which="best")
        written = predict_run(run, out, split="val", which="best")
        val = load_split_sessions(root, "val")
        assert sorted(s.num_frames for s in val) == [20, 75]
        assert not all(s.frame_mask.all() for s in val)
        assert len(written) == len(report.per_session) == len(val)
        expected = {s.session: s.ccc for s in report.per_session}
        for session in val:
            lines = (out / f"{session.session_id}.{session.role}.scores.csv"
                     ).read_text().splitlines()[1:]
            scores = np.array([float(line.split(",")[1]) for line in lines])
            assert scores.shape == (session.num_frames,)
            mask = session.frame_mask
            assert ccc(scores[mask], session.labels[mask]).ccc == expected[session.key]


def test_build_id_asks_git_once_per_process(monkeypatch):
    calls = []
    real = dctm.train.subprocess.run

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    first = dctm.train.build_id()
    monkeypatch.setattr(dctm.train.subprocess, "run", counting)
    assert dctm.train.build_id() == first
    assert calls == []


# ---------------------------------------------------------------------------
# pooled scoring

def _scoring_setup(precision, fusion):
    """A model with every weight non-zero (a fresh head scores 0.5 everywhere)
    and normalized sessions: one shorter than the window, one ending off the
    stride grid, and 61 windows in all: not a multiple of JOB_WINDOWS, and
    more jobs than two workers may hold in flight."""
    cfg = tiny_cfg(precision=precision, fusion=FusionConfig(kind=fusion),
                   optim=OptimConfig(batch_size=5))
    lengths = {"s000/expert": 20, "s000/novice": 75}
    sessions = [_truncated(s, lengths.get(s.key, s.num_frames))
                for s in tiny_sessions(sessions=3, frames=240)]
    sessions, _ = normalize(sessions)
    rng = np.random.default_rng(8)
    model = DctmModel(cfg, feature_dims_of(sessions), rng)
    for _, p in model.named_parameters():
        p.data[...] = 0.2 * rng.standard_normal(p.data.shape)
    windows = [w for s in sessions for w in make_windows(s, cfg.data.window, cfg.data.stride)]
    assert len(windows) == 61 and len(windows) % JOB_WINDOWS != 0
    return cfg, model, sessions, windows


def _serial_scores(model, sessions, cfg):
    """The reference: per-session batches of optim.batch_size on the calling thread."""
    out = {}
    with no_grad():
        for s in sessions:
            windows = make_windows(s, cfg.data.window, cfg.data.stride)
            B = cfg.optim.batch_size
            scores = [row for first in range(0, len(windows), B)
                      for row in model(batch_windows(windows[first:first + B], cfg.dtype).features,
                                       None).data]
            out[s.key] = overlap_average(s.num_frames,
                                         zip([w.start for w in windows], scores))
    return out


@pytest.fixture
def forward_threads(monkeypatch):
    """Names of the threads that ran each DctmModel forward, in start order."""
    names = []
    real = DctmModel.__call__

    def recording(self, *args, **kwargs):
        names.append(threading.current_thread().name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(DctmModel, "__call__", recording)
    return names


class TestPredictSessionsPool:
    @pytest.mark.parametrize("fusion", ["sa", "gmu"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("workers", [3, 2, 1])
    def test_bit_identical_to_serial_batches(self, monkeypatch, forward_threads,
                                             precision, fusion, workers):
        cfg, model, sessions, windows = _scoring_setup(precision, fusion)
        expected = _serial_scores(model, sessions, cfg)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: workers)
        forward_threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = predict_sessions(model, sessions, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert list(got) == [s.key for s in sessions]
        for key, scores in expected.items():
            assert got[key].tobytes() == scores.tobytes(), key
        # one forward a job of JOB_WINDOWS, every job on the pool:
        # none on the calling thread when pooled
        pooled = workers > 1 and dctm.parallel._openblas() is not None
        assert len(forward_threads) == -(-len(windows) // JOB_WINDOWS)
        main = threading.current_thread().name
        assert (main not in forward_threads) if pooled else set(forward_threads) == {main}
        assert arrays_held(model) == []

    def test_blas_threads_pinned_while_scoring_then_restored(self, monkeypatch, blas):
        cfg, model, sessions, _ = _scoring_setup("float32", "sa")
        get_threads, set_threads = blas
        set_threads(2)
        seen = []
        real = DctmModel.__call__

        def recording(self, *args, **kwargs):
            seen.append(get_threads())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DctmModel, "__call__", recording)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)
        predict_sessions(model, sessions, cfg)
        assert seen and set(seen) == {1}
        assert get_threads() == 2

    def test_pooled_scoring_builds_no_graph(self, monkeypatch, blas):
        # grad mode is per thread: every worker must turn recording off itself
        cfg, model, sessions, _ = _scoring_setup("float32", "sa")
        recorded = []
        real = DctmModel.__call__

        def recording(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            recorded.append((threading.current_thread() is threading.main_thread(),
                             out._node is None))
            return out

        monkeypatch.setattr(DctmModel, "__call__", recording)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)
        predict_sessions(model, sessions, cfg)
        assert not all(on_main for on_main, _ in recorded)
        assert all(no_graph for _, no_graph in recorded)
        assert dctm.tensor._grad_mode.enabled

    def test_worker_error_reaches_caller_and_blas_is_restored(self, monkeypatch, blas):
        cfg, model, sessions, _ = _scoring_setup("float32", "sa")
        get_threads, set_threads = blas
        set_threads(2)
        boom = RuntimeError("forward failed in a worker")
        real = DctmModel.__call__

        def failing(self, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise boom
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DctmModel, "__call__", failing)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)
        with pytest.raises(RuntimeError) as caught:
            predict_sessions(model, sessions, cfg)
        assert caught.value is boom
        assert get_threads() == 2
        assert dctm.tensor._grad_mode.enabled

    def test_small_jobs_score_on_one_thread(self, monkeypatch):
        # window 32 x hidden 16 cells: Python-bound, no pool
        cfg, model, sessions, _ = _scoring_setup("float32", "sa")
        real, asked = dctm.parallel._workers, []
        monkeypatch.setattr(dctm.parallel, "_workers",
                            lambda cells: asked.append(cells) or real(cells))
        predict_sessions(model, sessions, cfg)
        assert asked == [32 * 16] and real(32 * 16) == 1
        assert real(64 * 64) == len(os.sched_getaffinity(0))

    def test_without_openblas_scores_on_the_calling_thread(self, monkeypatch,
                                                           forward_threads):
        cfg, model, sessions, _ = _scoring_setup("float32", "gmu")
        expected = _serial_scores(model, sessions, cfg)
        monkeypatch.setattr(dctm.parallel, "_openblas", lambda: None)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 4)
        forward_threads.clear()
        got = predict_sessions(model, sessions, cfg)
        assert set(forward_threads) == {threading.current_thread().name}
        for key, scores in expected.items():
            assert got[key].tobytes() == scores.tobytes(), key


def _session_of(key: int, frames: int) -> Session:
    features = np.zeros((frames, 1))
    stream = ModalityStream("voice", features, np.arange(frames), np.ones(frames, bool), ["f0"])
    return Session(f"s{key:03d}", "expert", {"voice": stream}, None)


class TestScoringJobs:
    @settings(max_examples=150, deadline=None)
    @given(windows=st.integers(1, 200), cuts=st.lists(st.integers(1, 199), max_size=3))
    def test_jobs_hold_every_window_once_in_order(self, windows, cuts):
        # window 2, stride 2: a session of 2k frames has k windows
        bounds = [0] + sorted({c for c in cuts if c < windows}) + [windows]
        sessions = [_session_of(i, 2 * (b - a)) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        cfg = tiny_cfg(data=DataConfig(window=2, stride=2))
        jobs = list(dctm.train._window_jobs(sessions, cfg))
        assert [(i, w.start) for job in jobs for i, w in job] == [
            (i, start) for i, s in enumerate(sessions) for start in window_starts(s.num_frames, 2, 2)]
        # full jobs across session boundaries, the remainder last
        assert [len(job) for job in jobs[:-1]] == [JOB_WINDOWS] * (len(jobs) - 1)
        assert 0 < len(jobs[-1]) <= JOB_WINDOWS


# ---------------------------------------------------------------------------
# evaluation and prediction from a run directory

@pytest.fixture(scope="module")
def score_env(tmp_path_factory):
    """A dataset whose val split holds 3 sessions x 2 roles of 100 frames
    (36 windows at window 32, stride 16) and one trained run per precision
    and fusion kind."""
    root = tmp_path_factory.mktemp("score-data")
    generate_dataset(root, SyntheticSpec(seed=5, sessions=5, frames=100, dims=(4, 5, 3)),
                     val_fraction=0.6)
    runs = {}
    for precision in ("float32", "float64"):
        for fusion in ("sa", "gmu"):
            run = tmp_path_factory.mktemp("score-runs") / f"{precision}-{fusion}"
            train_run(tiny_cfg(root=root, epochs=1, precision=precision,
                               fusion=FusionConfig(kind=fusion)), run)
            runs[precision, fusion] = run
    return root, runs


@pytest.fixture
def events(monkeypatch):
    """("load", key) per load_session and ("forward", thread name) per
    DctmModel forward, in the order they start."""
    log = []
    real_load, real_call = dctm.data.load_session, DctmModel.__call__

    def loading(root, session_id, role, **kwargs):
        log.append(("load", f"{session_id}/{role}"))
        return real_load(root, session_id, role, **kwargs)

    def forward(self, *args, **kwargs):
        log.append(("forward", threading.current_thread().name))
        return real_call(self, *args, **kwargs)

    monkeypatch.setattr(dctm.data, "load_session", loading)
    monkeypatch.setattr(DctmModel, "__call__", forward)
    return log


def _copy_run(env, tmp_path, corrupt=None):
    """A copy of the float32 sa run and its dataset, reports and all; ``corrupt``
    edits the text of the last val session's novice voice CSV."""
    root, runs = env
    run, data = tmp_path / "run", tmp_path / "data"
    shutil.copytree(runs["float32", "sa"], run)
    shutil.copytree(root, data)
    last = json.loads((data / "splits.json").read_text())["val"][-1]
    if corrupt is not None:
        path = data / last / "novice.voice.csv"
        path.write_text(corrupt(path.read_text()))
    return run, data, last


class TestScoreRun:
    def test_malformed_last_session_fails_before_scoring(self, score_env, tmp_path,
                                                         monkeypatch, blas, events, capsys):
        def bad_row(text):
            lines = text.splitlines()
            lines[40] = "39,banana"
            return "\n".join(lines) + "\n"

        run, data, last = _copy_run(score_env, tmp_path, bad_row)
        get_threads, set_threads = blas
        set_threads(2)
        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)
        with pytest.raises(DataError, match=rf"{last}/novice\.voice\.csv:41: expected"):
            evaluate_run(run, overrides={"data.root": str(data)})
        assert [kind for kind, _ in events] == ["load"] * 6
        assert get_threads() == 2
        assert dctm.tensor._grad_mode.enabled

        assert main(["evaluate", "--run", str(run), f"--data.root={data}"]) == EXIT_CONFIG
        assert "novice.voice.csv:41: expected" in capsys.readouterr().err
        assert get_threads() == 2

    def test_warning_of_the_last_session_reaches_the_report(self, score_env, tmp_path):
        # 10 of the 100 rows dropped: a severe length mismatch
        run, data, last = _copy_run(
            score_env, tmp_path, lambda text: "\n".join(text.splitlines()[:-10]) + "\n")
        report = evaluate_run(run, overrides={"data.root": str(data)})
        saved = json.loads((run / "report.val.best.json").read_text())
        assert saved["warnings"] == report.warnings
        assert len(saved["warnings"]) == 1
        assert saved["warnings"][0].startswith(f"{last}/novice: severe length mismatch")

    @pytest.mark.parametrize("fusion", ["sa", "gmu"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_scores_equal_drawn_init_reference(self, score_env, tmp_path, monkeypatch,
                                               precision, fusion):
        """The reference draws the initial weights, restores the checkpoint
        over them and scores the normalized split serially."""
        root, runs = score_env
        run = runs[precision, fusion]
        cfg = resolve_config(run / "config.txt")
        model = DctmModel(cfg, json.loads((run / "meta.json").read_text())["feature_dims"],
                          np.random.default_rng(cfg.seed))
        load_checkpoint(run / "checkpoint.best.dctm", model.named_parameters())
        sessions, _ = normalize(load_split_sessions(root, "val"),
                                stats=NormStats.load(run / "norm_stats.csv"))
        expected = _serial_scores(model, sessions, cfg)

        monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)
        report = evaluate_run(run, split="val")
        written = predict_run(run, tmp_path, split="val")
        assert [s.session for s in report.per_session] == list(expected)
        masks = [s.frame_mask for s in sessions]
        for score, session, mask in zip(report.per_session, sessions, masks):
            assert score.ccc == ccc(expected[session.key][mask], session.labels[mask]).ccc
        overall = ccc(np.concatenate([expected[s.key][m] for s, m in zip(sessions, masks)]),
                      np.concatenate([s.labels[m] for s, m in zip(sessions, masks)]))
        assert report.ccc_overall == overall.ccc
        assert [p.name for p in written] == [f"{s.session_id}.{s.role}.scores.csv"
                                             for s in sessions]
        for path, session in zip(written, sessions):
            frames = session.streams["voice"].frame_index
            assert path.read_text() == "frame,score\n" + "".join(
                f"{int(f)},{float(v)!r}\n" for f, v in zip(frames, expected[session.key]))

    def test_load_run_draws_no_weights(self, score_env):
        _, runs = score_env
        cfg, model, _, meta = load_run(runs["float32", "gmu"])
        seeded = DctmModel(cfg, meta["feature_dims"], np.random.default_rng(cfg.seed))
        assert ([(n, p.data.shape, p.data.dtype) for n, p in model.named_parameters()]
                == [(n, p.data.shape, p.data.dtype) for n, p in seeded.named_parameters()])
        # every parameter is zero: nothing was drawn
        assert not any(p.data.any() for _, p in model.named_parameters())

    @pytest.mark.parametrize("split, error", [("test", DataError), ("empty", ConfigError)])
    def test_bad_split_raises_before_any_read(self, score_env, tmp_path, events,
                                              split, error):
        run, data, _ = _copy_run(score_env, tmp_path)
        splits = json.loads((data / "splits.json").read_text())
        (data / "splits.json").write_text(json.dumps({**splits, "empty": []}))
        overrides = {"data.root": str(data)}
        with pytest.raises(error, match=split):
            evaluate_run(run, split=split, overrides=overrides)
        with pytest.raises(error, match=split):
            predict_run(run, tmp_path / "scores", split=split, overrides=overrides)
        assert events == []
