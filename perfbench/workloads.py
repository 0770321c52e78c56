"""The three workloads, their output checks, and the metrics taken from
their spans.

Each workload drives one public entry point of the package in a loop
for the requested number of seconds:

* ``train_sa``    -- ``train.fit`` at the default architecture (BLAS-bound).
* ``ablate_tiny`` -- ``ablate.run_ablation`` over conv x fusion at desk
                     widths (bound by Python overhead per op).
* ``score``       -- ``train.evaluate_run`` of a default-architecture run
                     directory over a long CSV split (forward under no_grad).

BENCHMARK.json lists ablate_tiny and score. train_sa is run by hand: its
1.9 s steps leave too few samples in a run for a steady figure, and a
third listed workload would shorten every run within the time budget.

Every pass, traced or not, wraps two functions: ``DctmModel.__call__``
and ``Adam.step``. They are the step clock: ``fit`` offers no per-step
hook, and step times and set-up time cannot be measured without one.
The traced pass wraps the layers in ``LAYER_TARGETS`` as well, and
counts Tensor constructions.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from dctm import ablate, data, metrics, train
from dctm.config import ConvConfig, DataConfig, DctmConfig, OptimConfig
from dctm.conv import ConvStack
from dctm.fusion import ConcatFusion, GatedFusion
from dctm.layers import LayerNorm
from dctm.model import DctmModel
from dctm.optim import Adam
from dctm.tensor import Tensor
from dctm.transformer import (DecoderLayer, EncoderLayer, FeedForward,
                              MultiHeadAttention, RegressionHead,
                              TransformerSettings)

from inputs import RawSession, make_sessions, write_dataset
from spans import Recorder, counting_init, installed, self_times, wrap

PRECISION = "float32"

# ---------------------------------------------------------------------------
# what gets wrapped

def _forward_info(args, kwargs, out):
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return {"training": bool(training), "frames": out.shape[0] * out.shape[1]}


def _optim_info(args, kwargs, out):
    opt = args[0]
    grads = [p.grad for _, p in opt.params if p.grad is not None]
    state = opt.m + opt.v
    return {"grad_bytes": sum(g.nbytes for g in grads),
            "grad_itemsize": max((g.itemsize for g in grads), default=0),
            "state_bytes": sum(a.nbytes for a in state),
            "state_itemsize": max((a.itemsize for a in state), default=0)}


def _windows_info(args, kwargs, out):
    window = kwargs.get("window", args[1] if len(args) > 1 else 64)
    return {"frames": len(out) * window}


def _overlap_info(args, kwargs, out):
    return {"frames": args[0]}


CLOCK_TARGETS = [
    (DctmModel, "__call__", "model.forward", _forward_info),
    (Adam, "step", "optim.step", None),
]

# (owner, attribute, span name, info). Module-level functions are wrapped
# in the namespace that calls them, since the package imports them by name.
LAYER_TARGETS = [
    (Tensor, "backward", "tensor.backward", None),
    (MultiHeadAttention, "__call__", "transformer.attn", None),
    (FeedForward, "__call__", "transformer.ffn", None),
    (RegressionHead, "__call__", "transformer.head", None),
    (EncoderLayer, "__call__", "transformer.layer", None),
    (DecoderLayer, "__call__", "transformer.layer", None),
    (LayerNorm, "__call__", "layers.norm", None),
    (ConvStack, "__call__", "conv.forward", None),
    (ConcatFusion, "__call__", "fusion.forward", None),
    (GatedFusion, "__call__", "fusion.forward", None),
    (DctmModel, "__init__", "model.build", None),
    (train, "ccc_loss", "metrics.loss", None),
    (train, "ccc", "metrics.ccc", None),
    (metrics, "ccc", "metrics.ccc", None),
    (train, "load_split_sessions", "data.load", None),
    (ablate, "load_split_sessions", "data.load", None),
    (train, "normalize", "data.normalize", None),
    (train, "make_windows", "data.windows", _windows_info),
    (train, "batch_windows", "data.batch", None),
    (train, "overlap_average", "data.overlap", _overlap_info),
    (train, "load_checkpoint", "checkpoint.load", None),
    (train, "save_checkpoint", "checkpoint.save", None),
    (train, "score_sessions", "train.val_score", None),
    (ablate, "fit", "train.fit", None),
]


def patches(rec: Recorder, traced: bool):
    """(owner, attr, wrapper) for the step clock, plus every layer when traced."""
    if not traced:
        return [(owner, attr, wrap(getattr(owner, attr), name, rec, info))
                for owner, attr, name, info in CLOCK_TARGETS]
    traced_info = {"optim.step": _optim_info}
    return [(owner, attr, wrap(getattr(owner, attr), name, rec, traced_info.get(name, info)))
            for owner, attr, name, info in CLOCK_TARGETS + LAYER_TARGETS] + [
        (Tensor, "__init__", counting_init(Tensor.__init__, rec))]


# ---------------------------------------------------------------------------
# workloads

def _to_session(raw: RawSession) -> data.Session:
    T = raw.num_frames
    streams = {m: data.ModalityStream(m, f, np.arange(T), ~np.isnan(f).any(axis=1),
                                      [f"f{j}" for j in range(f.shape[1])])
               for m, f in raw.features.items()}
    return data.Session(raw.session_id, raw.role, streams, raw.labels)


def _last_result(outcomes):
    return [o for o in outcomes if not isinstance(o, Exception)][-1]


def _default_cfg(root: Path, epochs: int) -> DctmConfig:
    return DctmConfig(optim=OptimConfig(lr=1e-3, epochs=epochs, batch_size=32),
                      data=DataConfig(root=str(root)), precision=PRECISION)


class TrainSa:
    """train.fit at the default architecture on in-memory sessions:
    4 sessions x 2 roles x 288 frames = 64 windows = 2 steps of B=32 per
    epoch, 2 epochs, validated on 1 session x 2 roles x 160 frames."""
    name, kind, entry = "train_sa", "train", "train.fit"
    steps_per_call = 4

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        raw = make_sessions(rng, {"t000": 288, "t001": 288, "t002": 288, "t003": 288,
                                  "v000": 160}, dims=(8, 12, 10), snr=(1.0, 1.0, 1.0))
        self.train = [_to_session(r) for r in raw if r.session_id[0] == "t"]
        self.val = [_to_session(r) for r in raw if r.session_id[0] == "v"]
        self.cfg = _default_cfg(work, epochs=2)

    def call(self, rec: Recorder):
        with rec.span(self.entry):
            return train.fit(self.cfg, self.train, self.val)

    def check(self, outcomes, problems: list[str]) -> tuple[int, int]:
        failed = 0
        curves = []
        for out in outcomes:
            if isinstance(out, Exception):
                failed += self.steps_per_call
                problems.append(f"fit raised {out!r}")
                continue
            curve = out.loss_curve
            curves.append(curve)
            if not all(math.isfinite(v) for v in curve):
                failed += self.steps_per_call
                problems.append(f"non-finite loss curve {curve}")
            elif not curve[-1] < curve[0]:
                problems.append(f"loss did not fall: {curve}")
        if any(c != curves[0] for c in curves):
            problems.append("repeated fit calls disagree")
        return self.steps_per_call * len(outcomes), failed

    def loss_final(self, outcomes) -> float:
        return _last_result(outcomes).loss_curve[-1]


class AblateTiny:
    """ablate.run_ablation over {dilated, traditional, none} x {sa, gmu}
    at the desk widths of the acceptance grid, on an on-disk dataset of
    4 sessions x 2 roles x 1700 frames with the signal in voice only."""
    name, kind, entry = "ablate_tiny", "train", "ablate.run_ablation"
    receptive_fields = {"dilated": 41, "traditional": 11, "none": 1}

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        ids = [f"s{i:03d}" for i in range(4)]
        raw = make_sessions(rng, {sid: 1700 for sid in ids}, dims=(3, 3, 2),
                            snr=(0.0, 0.0, 2.0))
        root = work / "ablate_data"
        write_dataset(root, raw, {"train": ids[:3], "val": ids[3:]})
        self.cfg = DctmConfig(
            conv=ConvConfig(channels=8),
            transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                            decoder_layers=1, ff_dim=32, dropout=0.1),
            optim=OptimConfig(lr=1e-3, epochs=2, batch_size=8),
            data=DataConfig(root=str(root)), precision=PRECISION)

    def call(self, rec: Recorder):
        with rec.span(self.entry):
            cells, _ = ablate.run_ablation(self.cfg, conv_kinds=tuple(self.receptive_fields),
                                           fusion_kinds=("sa", "gmu"))
        return cells

    def check(self, outcomes, problems: list[str]) -> tuple[int, int]:
        attempted = failed = 0
        expected = len(self.receptive_fields) * 2
        for out in outcomes:
            if isinstance(out, Exception):
                attempted += expected
                failed += expected
                problems.append(f"run_ablation raised {out!r}")
                continue
            attempted += max(len(out), expected)
            failed += max(0, expected - len(out))
            for c in out:
                rf = self.receptive_fields[c.conv]
                if c.status != "ok" or c.receptive_field != rf:
                    failed += 1
                    problems.append(f"cell {c.conv}/{c.fusion}: status {c.status!r}, "
                                    f"receptive field {c.receptive_field} (want {rf})")
        return attempted, failed

    def loss_final(self, outcomes) -> float:
        return float(np.mean([1.0 - c.train_ccc for c in _last_result(outcomes)]))


class Score:
    """train.evaluate_run of a default-architecture run directory over a
    CSV val split of 3 sessions x 2 roles (40, 1187 and 1760 frames;
    5974 frames), about 1% of feature cells missing. Set-up trains the
    run directory for 2 small steps on a separate 96-frame session, so
    that its memory stays below that of scoring."""
    name, kind, entry = "score", "score", "train.evaluate_run"
    lengths = {"v000": 40, "v001": 1187, "v002": 1760}

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        raw = make_sessions(rng, {"t000": 96, **self.lengths}, dims=(8, 12, 10),
                            snr=(1.0, 1.0, 1.0), nan_frac=0.01)
        train_root, self.root = work / "score_train", work / "score_data"
        write_dataset(train_root, [r for r in raw if r.session_id == "t000"],
                      {"train": ["t000"], "val": []})
        self.sessions = [r for r in raw if r.session_id != "t000"]
        write_dataset(self.root, self.sessions, {"train": [], "val": list(self.lengths)})
        self.frames_per_call = sum(r.num_frames for r in self.sessions)
        self.run_dir = work / "score_run"
        train.train_run(_default_cfg(train_root, epochs=2), self.run_dir)
        self.overrides = {"data.root": str(self.root)}

    def call(self, rec: Recorder):
        with rec.span(self.entry):
            return train.evaluate_run(self.run_dir, "val", "best", overrides=self.overrides)

    def check(self, outcomes, problems: list[str]) -> tuple[int, int]:
        expected = {f"{r.session_id}/{r.role}": r.valid_frames for r in self.sessions}
        attempted = failed = 0
        first = None
        for out in outcomes:
            attempted += len(expected)
            if isinstance(out, Exception):
                failed += len(expected)
                problems.append(f"evaluate_run raised {out!r}")
                continue
            got = {s.session: s for s in out.per_session}
            for key, n in expected.items():
                s = got.get(key)
                if s is None or s.n != n or not math.isfinite(s.ccc):
                    failed += 1
                    problems.append(f"session {key}: {s}")
            cccs = [(s.session, s.ccc) for s in out.per_session]
            if first is None:
                first = cccs
            elif cccs != first:
                problems.append("repeated evaluate_run calls disagree")
        return attempted + len(self.sessions), failed + self._check_frames(problems)

    def _check_frames(self, problems: list[str]) -> int:
        """Sessions whose per-frame scores (from predict_run, outside the
        timed region) are not one finite value in (0, 1) per frame."""
        out = self.run_dir.parent / "score_frames"
        train.predict_run(self.run_dir, out, "val", "best", overrides=self.overrides)
        failed = 0
        for r in self.sessions:
            path = out / f"{r.session_id}.{r.role}.scores.csv"
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) \
                if path.exists() else np.zeros((0, 2))
            ok = (rows.shape[0] == r.num_frames
                  and np.array_equal(rows[:, 0], np.arange(r.num_frames))
                  and bool(np.all((rows[:, 1] > 0.0) & (rows[:, 1] < 1.0))))
            if not ok:
                failed += 1
                problems.append(f"per-frame scores of {r.session_id}/{r.role} are wrong")
        return failed

    def loss_final(self, outcomes) -> float:
        return 1.0 - _last_result(outcomes).ccc_overall


WORKLOADS = {w.name: w for w in (TrainSa, AblateTiny, Score)}


# ---------------------------------------------------------------------------
# one pass: prepare, then call the entry point until the time is up

class Pass:
    def __init__(self, workload, traced: bool):
        self.wl = workload
        self.traced = traced
        self.rec = Recorder()
        self.outcomes = []

    def run(self, seed: int, seconds: float, work: Path) -> "Pass":
        with installed(patches(self.rec, self.traced)):
            self.wl.prepare(seed, work)
            self.timed_start = time.perf_counter()
            elapsed = 0.0
            # stop at the call boundary nearest to `seconds`, after one call at least
            while not self.outcomes or elapsed + elapsed / len(self.outcomes) / 2 < seconds:
                try:
                    self.outcomes.append(self.wl.call(self.rec))
                except Exception as e:  # counted as failed units by check()
                    traceback.print_exc()
                    self.outcomes.append(e)
                elapsed = time.perf_counter() - self.timed_start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self

    def timed_spans(self):
        return [(i, s) for i, s in enumerate(self.rec.spans) if s.start >= self.timed_start]

    def steps(self):
        """(forward span, optim span) per completed train step."""
        out, fwd = [], None
        for _, s in self.timed_spans():
            if s.name == "model.forward" and s.info is not None and s.info["training"]:
                fwd = s
            elif s.name == "optim.step" and fwd is not None:
                out.append((fwd, s))
                fwd = None
        return out

    def units(self):
        """(seconds, frames, tensors, tensor bytes) per unit of work: a
        train step, or one whole evaluate_run call."""
        if self.wl.kind == "train":
            return [(st.end - f.start, f.info["frames"], st.counts[2] - f.counts[0],
                     st.counts[3] - f.counts[1]) for f, st in self.steps()]
        return [(s.duration, self.wl.frames_per_call, s.counts[2] - s.counts[0],
                 s.counts[3] - s.counts[1])
                for (_, s), out in zip(self.entries(), self.outcomes)
                if not isinstance(out, Exception)]

    def entries(self):
        return [(i, s) for i, s in self.timed_spans() if s.name == self.wl.entry and s.parent == -1]

    def setups(self):
        """Seconds from each entry-point call to its first model forward."""
        out, current = [], None
        for _, s in self.timed_spans():
            if s.name == self.wl.entry and s.parent == -1:
                current = s
            elif s.name == "model.forward" and current is not None:
                out.append(s.start - current.start)
                current = None
        return out

    def end_to_end(self) -> dict[str, float]:
        units = self.units()
        durations = [u[0] for u in units]
        # Throughput over the whole pass, not a median of per-unit rates: the
        # host's speed drifts between states lasting tens of seconds, and a
        # total moves in proportion to the time spent in each, where a median
        # jumps to whichever state held the majority of the pass.
        return {
            "frames_per_s": sum(u[1] for u in units) / sum(durations),
            "step_ms_p50": 1e3 * statistics.median(durations),
            "setup_s": statistics.median(self.setups()),
            "peak_rss_mb": self.peak_rss_mb,
            "loss_final": self.wl.loss_final(self.outcomes),
        }

    def per_layer(self) -> dict[str, float]:
        spans = self.rec.spans
        selfs = self_times(spans)
        total, self_total = defaultdict(float), defaultdict(float)
        info = defaultdict(list)
        for i, s in self.timed_spans():
            total[s.name] += s.duration
            self_total[s.name] += selfs[i]
            if s.info is not None:
                info[s.name].append(s.info)
        units = self.units()
        n = len(units)

        def ms(name):
            return 1e3 * total[name] / n

        def mean_info(name, key):
            vals = [d[key] for d in info[name]]
            return sum(vals) / len(vals) if vals else 0

        def max_info(name, key):
            return max((d[key] for d in info[name]), default=0)

        scored_windows = sum(s.info["frames"] for _, s in self.timed_spans()
                             if s.name == "data.windows"
                             and spans[s.parent].name == "train.val_score")
        cells = [s.duration for _, s in self.timed_spans()
                 if s.name == "train.fit" and s.parent >= 0
                 and spans[s.parent].name == "ablate.run_ablation"]
        saves = [s.duration for s in spans if s.name == "checkpoint.save"]
        return {
            "tensor.backward_ms": ms("tensor.backward"),
            "tensor.nodes_per_step": sum(u[2] for u in units) / n,
            "tensor.forward_bytes_per_step": sum(u[3] for u in units) / n,
            "tensor.grad_bytes": mean_info("optim.step", "grad_bytes"),
            "tensor.grad_itemsize": max_info("optim.step", "grad_itemsize"),
            "optim.step_ms": ms("optim.step"),
            "optim.state_bytes": mean_info("optim.step", "state_bytes"),
            "optim.state_itemsize": max_info("optim.step", "state_itemsize"),
            "transformer.attn_ms": ms("transformer.attn"),
            "transformer.ffn_ms": ms("transformer.ffn"),
            "transformer.head_ms": ms("transformer.head"),
            "transformer.layer_self_ms": 1e3 * self_total["transformer.layer"] / n,
            "layers.norm_ms": ms("layers.norm"),
            "conv.forward_ms": ms("conv.forward"),
            "fusion.forward_ms": ms("fusion.forward"),
            "model.forward_ms": ms("model.forward"),
            "model.build_ms": ms("model.build"),
            "metrics.loss_ms": ms("metrics.loss"),
            "metrics.ccc_ms": ms("metrics.ccc"),
            "data.load_ms": ms("data.load"),
            "data.normalize_ms": ms("data.normalize"),
            "data.windows_ms": ms("data.windows"),
            "data.batch_ms": ms("data.batch"),
            "data.overlap_ms": ms("data.overlap"),
            "data.useful_frame_ratio": (sum(d["frames"] for d in info["data.overlap"])
                                        / scored_windows if scored_windows else 0.0),
            "checkpoint.load_ms": ms("checkpoint.load"),
            "checkpoint.save_ms": 1e3 * sum(saves) / len(saves) if saves else 0.0,
            "train.val_score_ms": ms("train.val_score"),
            "train.loop_self_ms": 1e3 * self_total["train.fit"] / n,
            "ablate.cell_ms": 1e3 * sum(cells) / len(cells) if cells else 0.0,
        }
