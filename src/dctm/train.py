"""Training and evaluation drivers.

`fit` is the pure in-memory loop (used by the CLI, the ablation grid,
and the test-suite); `train_run` / `evaluate_run` / `predict_run` wrap
it with run-directory persistence:

    <run>/config.txt            resolved flat config
    <run>/norm_stats.csv        training-set normalization stats
    <run>/meta.json             feature dims, best epoch, build id
    <run>/checkpoint.best.dctm  weights at the best validation epoch
    <run>/checkpoint.last.dctm  weights after the final epoch
    <run>/report.json, report.txt
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DctmConfig, resolve_config, to_flat
from .data import (
    NormStats,
    Session,
    batch_windows,
    load_split_sessions,
    make_windows,
    normalize,
    overlap_average,
    read_json,
)
from .errors import ConfigError, DataError, NumericalError
from .files import atomic_write
from .metrics import CccResult, ccc, ccc_loss
from .model import DctmModel
from .optim import Adam
from .parallel import ordered_map
from .tensor import no_grad


@functools.cache
def build_id() -> str:
    """Package version plus the git revision of a checkout; git runs once per process."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=5)
        if proc.returncode == 0:
            return f"dctm-{__version__}+g{proc.stdout.strip()}"
    except OSError:
        pass
    return f"dctm-{__version__}"


def feature_dims_of(sessions: list[Session]) -> dict[str, int]:
    dims = {m: s.num_features for m, s in sessions[0].streams.items()}
    for s in sessions[1:]:
        for m, stream in s.streams.items():
            if stream.num_features != dims[m]:
                raise DataError(
                    f"session {s.key} has {stream.num_features} {m!r} features, "
                    f"expected {dims[m]}")
    return dims


# ---------------------------------------------------------------------------
# reports

@dataclass
class SessionScore:
    session: str
    ccc: float
    pearson: float
    n: int
    degenerate: bool

    @classmethod
    def from_result(cls, session: str, r: CccResult) -> "SessionScore":
        return cls(session, r.ccc, r.pearson, r.n, r.degenerate)


@dataclass
class EvalReport:
    split: str
    ccc_overall: float
    degenerate_overall: bool
    per_session: list[SessionScore]
    config_echo: dict[str, str]
    build: str
    wall_time_s: float
    checkpoint: str | None = None
    loss_curve: list[float] = field(default_factory=list)
    train_ccc_curve: list[float] = field(default_factory=list)
    val_ccc_curve: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "ccc_overall": self.ccc_overall,
            "degenerate_overall": self.degenerate_overall,
            "per_session": [vars(s).copy() for s in self.per_session],
            "config": dict(self.config_echo),
            "build": self.build,
            "wall_time_s": self.wall_time_s,
            "checkpoint": self.checkpoint,
            "loss_curve": list(self.loss_curve),
            "train_ccc_curve": list(self.train_ccc_curve),
            "val_ccc_curve": list(self.val_ccc_curve),
            "best_epoch": self.best_epoch,
            "warnings": list(self.warnings),
        }

    def to_text(self) -> str:
        lines = [
            f"split: {self.split}",
            f"ccc_overall: {self.ccc_overall:+.4f}"
            + ("  [degenerate]" if self.degenerate_overall else ""),
            f"build: {self.build}",
            f"wall_time_s: {self.wall_time_s:.2f}",
        ]
        if self.best_epoch is not None:
            lines.append(f"best_epoch: {self.best_epoch}")
        if self.checkpoint:
            lines.append(f"checkpoint: {self.checkpoint}")
        lines.append("")
        lines.append(f"{'session':<24} {'ccc':>8} {'pearson':>8} {'frames':>8}  flags")
        for s in self.per_session:
            lines.append(f"{s.session:<24} {s.ccc:>+8.4f} {s.pearson:>+8.4f} "
                         f"{s.n:>8d}  {'degenerate' if s.degenerate else '-'}")
        if self.loss_curve:
            lines.append("")
            lines.append(f"{'epoch':>5} {'loss':>10} {'train_ccc':>10} {'val_ccc':>10}")
            for i, loss in enumerate(self.loss_curve):
                val = (f"{self.val_ccc_curve[i]:>+10.4f}"
                       if i < len(self.val_ccc_curve) else f"{'-':>10}")
                lines.append(f"{i:>5d} {loss:>10.4f} "
                             f"{self.train_ccc_curve[i]:>+10.4f} {val}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append("")
        lines.append("config:")
        for k in sorted(self.config_echo):
            lines.append(f"  {k} = {self.config_echo[k]}")
        return "\n".join(lines) + "\n"

    def save(self, directory, stem: str = "report") -> None:
        directory = Path(directory)
        with atomic_write(directory / f"{stem}.json") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        with atomic_write(directory / f"{stem}.txt") as fh:
            fh.write(self.to_text())


# ---------------------------------------------------------------------------
# inference over sessions

# Windows per scoring job. Each worker thread allocates from its own malloc
# arena, so larger jobs raise peak memory: at the default architecture on 2
# CPUs an evaluate-only process peaked at 62.7 MiB with 8 and 67.1 with 12
# (32: +40 MiB), and 12 scored faster in only 8 of 10 benchmark pairs.
JOB_WINDOWS = 8


def _window_jobs(sessions: list[Session], cfg: DctmConfig):
    """(session index, window) jobs of JOB_WINDOWS, windowing one session
    at a time as the jobs are drawn. A window is a reference, so drawing a
    job copies no features: its worker gathers them."""
    job = []
    for i, session in enumerate(sessions):
        for window in make_windows(session, cfg.data.window, cfg.data.stride):
            job.append((i, window))
            if len(job) == JOB_WINDOWS:
                yield job
                job = []
    if job:
        yield job


def predict_sessions(model: DctmModel, sessions: list[Session],
                     cfg: DctmConfig) -> dict[str, np.ndarray]:
    """Per-frame scores for already-normalized sessions, keyed by session.key.

    Every job of `_window_jobs` runs through `parallel.ordered_map`. A
    window scores bit-identically at any batch row and batch size, so the
    result equals serial scoring. No job keeps attention weights or gates
    (see `DctmModel.inspect`). A non-finite score raises `NumericalError`
    naming its session and frame."""
    preds = [[] for _ in sessions]

    def score(job):
        batch = batch_windows([w for _, w in job], cfg.dtype)
        # grad mode is per thread, so each worker turns recording off itself
        with no_grad():
            return zip(job, model(batch.features, None, training=False).data)

    with ordered_map(cfg.data.window * cfg.transformer.hidden) as run:
        for scored in run(score, _window_jobs(sessions, cfg)):
            for (i, window), scores in scored:
                preds[i].append((window.start, scores))
    scores = {}
    for session, p in zip(sessions, preds):
        trajectory = scores[session.key] = overlap_average(session.num_frames, p)
        finite = np.isfinite(trajectory)
        if not finite.all():
            t = int(np.argmin(finite))
            raise NumericalError(f"non-finite score {trajectory[t]} for session "
                                 f"{session.key} at frame {t}")
    return scores


def score_sessions(model: DctmModel, sessions: list[Session], cfg: DctmConfig):
    """(overall CccResult, per-session scores, per-frame predictions)."""
    predictions = predict_sessions(model, sessions, cfg)
    per_session = []
    all_pred, all_true = [], []
    for session in sessions:
        if session.labels is None:
            raise DataError(f"session {session.key} has no labels to score against")
        mask = session.frame_mask
        if np.count_nonzero(mask) < 2:
            raise DataError(f"session {session.key} has fewer than 2 frames valid in "
                            f"every modality; its CCC is undefined")
        pred, true = predictions[session.key][mask], session.labels[mask]
        per_session.append(SessionScore.from_result(session.key, ccc(pred, true)))
        all_pred.append(pred)
        all_true.append(true)
    overall = ccc(np.concatenate(all_pred), np.concatenate(all_true))
    return overall, per_session, predictions


# ---------------------------------------------------------------------------
# the training loop

@dataclass
class FitResult:
    model: DctmModel
    stats: NormStats
    feature_dims: dict[str, int]
    loss_curve: list[float]
    train_ccc_curve: list[float]
    val_ccc_curve: list[float]
    best_epoch: int
    best_state: dict[str, np.ndarray]
    last_state: dict[str, np.ndarray]
    best_val_score: tuple[CccResult, list[SessionScore]] | None  # None without val
    wall_time_s: float
    warnings: list[str]


def _state_of(model: DctmModel) -> dict[str, np.ndarray]:
    """The weights as one copy of the model's arena: {name: view} in record order."""
    arena = model.arena
    return {name: v for (name, _), v in zip(arena.params, arena.views(arena.flat.copy()))}


def fit(cfg: DctmConfig, train_sessions: list[Session],
        val_sessions: list[Session], log=None) -> FitResult:
    """Train on raw sessions; validation reuses the training normalization.

    The best-validation weights are kept alongside the final ones. All
    randomness (init, shuffling, dropout) derives from cfg.seed, so a
    rerun with the same config and data is bit-identical.
    """
    t0 = time.perf_counter()
    if not train_sessions:
        raise ConfigError("training dataset is empty")
    say = log if log is not None else (lambda msg: None)

    train_norm, stats = normalize(train_sessions)
    val_norm, _ = normalize(val_sessions, stats=stats) if val_sessions else ([], stats)
    warnings = [w for s in train_norm + val_norm for w in s.warnings]

    feature_dims = feature_dims_of(train_norm)
    model = DctmModel(cfg, feature_dims, np.random.default_rng(cfg.seed))
    params = model.arena.params
    optimizer = Adam(model.arena, lr=cfg.optim.lr, beta1=cfg.optim.beta1,
                     beta2=cfg.optim.beta2, eps=cfg.optim.eps)

    # CCC is undefined on fewer than 2 valid frames, so such windows cannot train
    windows = [w for s in train_norm
               for w in make_windows(s, cfg.data.window, cfg.data.stride)
               if np.count_nonzero(w.mask) >= 2]
    if not windows:
        raise ConfigError("training dataset produced no windows")

    loss_curve, train_curve, val_curve = [], [], []
    best_epoch, best_val, best_val_score = -1, -np.inf, None
    for epoch in range(cfg.optim.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(windows))
        drop_rng = np.random.default_rng([cfg.seed, 101, epoch])
        losses, epoch_preds, epoch_true, epoch_mask = [], [], [], []
        B = cfg.optim.batch_size
        for step, first in enumerate(range(0, len(windows), B)):
            # gathered when the step starts: training holds the sessions plus one batch
            batch = batch_windows([windows[i] for i in order[first:first + B]], cfg.dtype)
            pred = model(batch.features, drop_rng, training=True)
            loss = ccc_loss(pred, batch.labels, batch.mask)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite loss {value} at epoch {epoch}, step {step}")
            loss.backward()
            optimizer.step()
            # the optimizer has gathered the gradients: free them before the
            # next forward instead of holding them through its peak
            for _, param in params:
                param.grad = None
            losses.append(value)
            epoch_preds.append(pred.data)
            epoch_true.append(batch.labels)
            epoch_mask.append(batch.mask)

        loss_curve.append(float(np.mean(losses)))
        flat_mask = np.concatenate([m.reshape(-1) for m in epoch_mask])
        train_ccc = ccc(np.concatenate([p.reshape(-1) for p in epoch_preds]),
                        np.concatenate([t.reshape(-1) for t in epoch_true]),
                        mask=flat_mask).ccc
        train_curve.append(train_ccc)

        if val_norm:
            try:
                overall, per_session, _ = score_sessions(model, val_norm, cfg)
            except NumericalError as e:
                raise NumericalError(f"validation CCC nan at epoch {epoch}: {e}") from None
            val_curve.append(overall.ccc)
            if overall.ccc > best_val:
                best_val, best_epoch = overall.ccc, epoch
                best_state = _state_of(model)
                best_val_score = (overall, per_session)
            say(f"epoch {epoch + 1}/{cfg.optim.epochs}  loss {loss_curve[-1]:.4f}  "
                f"train_ccc {train_ccc:+.4f}  val_ccc {overall.ccc:+.4f}")
        else:
            say(f"epoch {epoch + 1}/{cfg.optim.epochs}  loss {loss_curve[-1]:.4f}  "
                f"train_ccc {train_ccc:+.4f}")

    if not val_norm:
        best_epoch, best_state = cfg.optim.epochs - 1, _state_of(model)
    # the final weights share the best ones' copy when the last epoch is the best
    last_state = best_state if best_epoch == cfg.optim.epochs - 1 else _state_of(model)

    return FitResult(
        model=model, stats=stats, feature_dims=feature_dims,
        loss_curve=loss_curve, train_ccc_curve=train_curve,
        val_ccc_curve=val_curve, best_epoch=best_epoch,
        best_state=best_state, last_state=last_state,
        best_val_score=best_val_score, wall_time_s=time.perf_counter() - t0,
        warnings=warnings)


# ---------------------------------------------------------------------------
# run-directory orchestration

def train_run(cfg: DctmConfig, out_dir, log=None) -> EvalReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_sessions = load_split_sessions(cfg.data.root, "train", cfg.data.subject,
                                         cfg.data.modalities)
    val_sessions = load_split_sessions(cfg.data.root, "val", cfg.data.subject,
                                       cfg.data.modalities)
    result = fit(cfg, train_sessions, val_sessions, log=log)

    flat = to_flat(cfg)
    with atomic_write(out / "config.txt") as fh:
        for key in sorted(flat):
            fh.write(f"{key} = {flat[key]}\n")
    result.stats.save(out / "norm_stats.csv")
    save_checkpoint(out / "checkpoint.best.dctm",
                    [(n, a) for n, a in result.best_state.items()])
    save_checkpoint(out / "checkpoint.last.dctm",
                    [(n, a) for n, a in result.last_state.items()])
    with atomic_write(out / "meta.json") as fh:
        json.dump({
            "feature_dims": result.feature_dims,
            "best_epoch": result.best_epoch,
            "build": build_id(),
            "version": __version__,
        }, fh, indent=2)
        fh.write("\n")

    if result.best_val_score is not None:
        overall, per_session = result.best_val_score
    else:
        overall = CccResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, degenerate=True)
        per_session = []
    report = EvalReport(
        split="val",
        ccc_overall=overall.ccc,
        degenerate_overall=overall.degenerate,
        per_session=per_session,
        config_echo=flat,
        build=build_id(),
        wall_time_s=result.wall_time_s,
        checkpoint=str(out / "checkpoint.best.dctm"),
        loss_curve=result.loss_curve,
        train_ccc_curve=result.train_ccc_curve,
        val_ccc_curve=result.val_ccc_curve,
        best_epoch=result.best_epoch,
        warnings=result.warnings,
    )
    report.save(out)
    return report


def load_run(run_dir, overrides: dict[str, str] | None = None):
    """(config, model, stats, meta) from a training run directory.

    The model has the run's architecture but every parameter is zero:
    nothing is drawn, since a checkpoint supplies every parameter. Read one
    into it (`load_checkpoint`) before scoring."""
    run = Path(run_dir)
    if not run.is_dir():
        raise DataError(f"run directory not found: {run}")
    cfg = resolve_config(run / "config.txt", overrides)
    meta = read_json(run / "meta.json", ("feature_dims",))
    dims = meta["feature_dims"]
    if not (isinstance(dims, dict) and all(type(dims.get(m)) is int and dims[m] > 0
                                           for m in cfg.data.modalities)):
        raise DataError(f"{run / 'meta.json'}: 'feature_dims' must map each of "
                        f"{', '.join(cfg.data.modalities)} to a positive int, got {dims!r}")
    stats = NormStats.load(run / "norm_stats.csv")
    model = DctmModel(cfg, dims, None)
    return cfg, model, stats, meta


def _open_split(run_dir, split: str, which: str, overrides, require_labels: bool):
    """(config, model with the `which` checkpoint, normalized split, checkpoint path)."""
    cfg, model, stats, _ = load_run(run_dir, overrides)
    if which not in ("best", "last"):
        raise ConfigError(f"checkpoint selector must be 'best' or 'last', got {which!r}")
    path = Path(run_dir) / f"checkpoint.{which}.dctm"
    load_checkpoint(path, model.named_parameters())
    sessions = load_split_sessions(cfg.data.root, split, cfg.data.subject,
                                   cfg.data.modalities, require_labels=require_labels)
    if not sessions:
        raise ConfigError(f"split {split!r} contains no sessions")
    normed, _ = normalize(sessions, stats=stats)
    return cfg, model, normed, path


def evaluate_run(run_dir, split: str = "val", which: str = "best",
                 overrides: dict[str, str] | None = None, log=None) -> EvalReport:
    t0 = time.perf_counter()
    cfg, model, normed, path = _open_split(run_dir, split, which, overrides,
                                           require_labels=True)
    overall, per_session, _ = score_sessions(model, normed, cfg)
    report = EvalReport(
        split=split,
        ccc_overall=overall.ccc,
        degenerate_overall=overall.degenerate,
        per_session=per_session,
        config_echo=to_flat(cfg),
        build=build_id(),
        wall_time_s=time.perf_counter() - t0,
        checkpoint=str(path),
        warnings=[w for s in normed for w in s.warnings],
    )
    report.save(Path(run_dir), stem=f"report.{split}.{which}")
    if log is not None:
        log(report.to_text())
    return report


def predict_run(run_dir, out_dir, split: str = "val", which: str = "best",
                overrides: dict[str, str] | None = None) -> list[Path]:
    cfg, model, normed, _ = _open_split(run_dir, split, which, overrides,
                                        require_labels=False)
    predictions = predict_sessions(model, normed, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for session in normed:
        scores = predictions[session.key]
        path = out / f"{session.session_id}.{session.role}.scores.csv"
        frames = next(iter(session.streams.values())).frame_index
        with atomic_write(path) as fh:
            fh.write("frame,score\n")
            for t in range(session.num_frames):
                fh.write(f"{int(frames[t])},{float(scores[t])!r}\n")
        written.append(path)
    return written
