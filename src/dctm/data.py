"""Data pipeline: CSV session ingest, z-score normalization, sliding
windows, batching, overlap-averaged reassembly, and a synthetic session
generator with a controllable per-modality signal-to-noise ratio.

On-disk layout, one directory per recording session::

    <root>/<session_id>/<role>.<modality>.csv   # frame,<feature names...>
    <root>/<session_id>/<role>.labels.csv       # frame,engagement
    <root>/splits.json                          # {"train": [...], "val": [...]}

Roles are ``expert`` / ``novice``; modalities are ``head`` / ``pose`` /
``voice``. Frames containing NaN cells are masked out of loss and
metrics; the cells themselves are imputed to 0 after normalization.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .files import atomic_write

MODALITIES = ("head", "pose", "voice")
ROLES = ("expert", "novice")
LATENT_LAG = 5  # frames between e(t) and its delayed copy in the synthetic latent


# ---------------------------------------------------------------------------
# domain types

@dataclass
class ModalityStream:
    modality: str
    features: np.ndarray      # (T, C) float64, may contain NaN before normalize
    frame_index: np.ndarray   # (T,) int
    valid_mask: np.ndarray    # (T,) bool, False where any cell is NaN
    feature_names: list[str]

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass
class Session:
    session_id: str
    role: str
    streams: dict[str, ModalityStream]
    labels: np.ndarray | None          # (T,) in [0,1], None for unlabeled data
    warnings: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.session_id}/{self.role}"

    @property
    def num_frames(self) -> int:
        return next(iter(self.streams.values())).num_frames

    @property
    def frame_mask(self) -> np.ndarray:
        """Frames valid in every modality."""
        masks = [s.valid_mask for s in self.streams.values()]
        out = masks[0].copy()
        for m in masks[1:]:
            out &= m
        return out


@dataclass
class Window:
    """One fixed-length slice of a session, by reference: no feature or
    label is copied until `batch_windows` gathers the window into a batch."""
    session: Session
    start: int
    mask: np.ndarray                  # (W,) bool, False on padding/invalid frames


@dataclass
class WindowBatch:
    features: dict[str, np.ndarray]   # modality -> (B, C_m, W)
    labels: np.ndarray                # (B, W)
    mask: np.ndarray                  # (B, W) bool


# ---------------------------------------------------------------------------
# CSV ingest

# an empty or whitespace-only cell after a comma: a missing value
_BLANK_CELL = re.compile(r",[^\S\n]*(?=[,\n])")
_NAN = np.frombuffer(b"nan", np.uint8)


def _fill_empty_cells(text: str) -> str:
    """``text`` with nan written into each empty cell after a comma, found
    by one vectorized scan of its UTF-8 bytes, in a fraction of the time the
    regex takes. Commas are ASCII, so no character is split."""
    b = np.frombuffer(text.encode(), np.uint8)
    after = b[1:]
    at = np.flatnonzero((b[:-1] == ord(",")) & ((after == ord(",")) | (after == ord("\n"))))
    return np.insert(b, np.repeat(at + 1, 3), np.tile(_NAN, at.size)).tobytes().decode()


def _load_rows(text: str, dtype: np.dtype) -> np.ndarray:
    return np.loadtxt(text.split("\n"), delimiter=",", comments=None, dtype=dtype, ndmin=1)


def _parse_rows(text: str, n_values: int) -> np.ndarray:
    """Rows of ``frame,v1,...,vn`` CSV text as a structured (frame, values)
    array, in one C-level parse. Blank lines are skipped and blank cells
    read as NaN. Raises ValueError for a wrong column count, a frame that
    is not an integer or a cell that is not a float."""
    dtype = np.dtype([("frame", np.int64), ("values", np.float64, (n_values,))])
    text += "\n"
    filled = _fill_empty_cells(text)
    if not filled.strip("\n"):
        return np.empty(0, dtype)
    try:
        return _load_rows(filled, dtype)
    except ValueError:
        # the float parse rejects a whitespace-only cell, which is missing too
        return _load_rows(_BLANK_CELL.sub(",nan", text), dtype)


def _bad_row(path: Path, body: str, n_columns: int) -> DataError:
    """The error naming the first row of ``body`` that does not parse."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != n_columns:
            return DataError(f"{path}:{lineno}: expected {n_columns} columns, got {len(row)}")
        try:
            _parse_rows(line, n_columns - 1)
        except ValueError:
            return DataError(f"{path}:{lineno}: unparsable row {row!r}")
    return DataError(f"{path}: unparsable rows")


def _read_feature_csv(path: Path):
    with open(path) as fh:
        first, _, body = fh.read().partition("\n")
    header = next(csv.reader([first]), None)
    if not header or header[0] != "frame":
        raise DataError(f"{path}: expected header starting with 'frame'")
    names = header[1:]
    try:
        rows = _parse_rows(body, len(names))
    except ValueError:
        raise _bad_row(path, body, len(header)) from None
    feats = np.ascontiguousarray(rows["values"])
    # empty and NaN cells are missing values; an infinity is not a value at all
    infinite = np.isinf(feats)
    if infinite.any():
        i, j = np.argwhere(infinite)[0]
        lineno = [n for n, line in enumerate(body.split("\n"), start=2) if line][i]
        raise DataError(f"{path}:{lineno}: non-finite value {feats[i, j]} "
                        f"in column {j + 2} ('{names[j]}')")
    return names, np.ascontiguousarray(rows["frame"]), feats


def _read_labels_csv(path: Path):
    names, frames, values = _read_feature_csv(path)
    if len(names) != 1:
        raise DataError(f"{path}: labels file must have exactly one value column")
    labels = values[:, 0]
    bad = np.isnan(labels) | (labels < 0.0) | (labels > 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"{path}: label {labels[i]} at frame {frames[i]} is outside [0, 1]")
    return frames, labels


def load_session(root, session_id: str, role: str,
                 modalities=MODALITIES, require_labels: bool = True) -> Session:
    """Load one (session, role)'s modality files, aligned to the shortest stream.

    Streams longer than the common length are truncated and a warning is
    recorded (severe if more than 5% of frames are dropped). Frames with
    NaN cells keep the NaN for now — `normalize` imputes them — but are
    marked invalid.
    """
    base = Path(root) / session_id
    raw = {}
    lengths = {}
    for m in modalities:
        path = base / f"{role}.{m}.csv"
        if not path.exists():
            raise DataError(f"missing modality file: {path}")
        names, frames, feats = _read_feature_csv(path)
        raw[m] = (names, frames, feats)
        lengths[m] = feats.shape[0]

    labels = None
    label_path = base / f"{role}.labels.csv"
    if label_path.exists():
        _, labels = _read_labels_csv(label_path)
        lengths["labels"] = labels.shape[0]
    elif require_labels:
        raise DataError(f"missing labels file: {label_path}")

    T = min(lengths.values())
    warnings = []
    longest = max(lengths.values())
    if longest != T:
        drop_pct = 100.0 * (longest - T) / longest
        severity = "severe length mismatch" if drop_pct > 5.0 else "length mismatch"
        warnings.append(
            f"{session_id}/{role}: {severity} {dict(lengths)}; truncated to T={T} "
            f"({drop_pct:.1f}% of the longest stream dropped)")

    streams = {}
    for m in modalities:
        names, frames, feats = raw[m]
        feats = feats[:T]
        streams[m] = ModalityStream(
            modality=m,
            features=feats,
            frame_index=frames[:T],
            valid_mask=~np.isnan(feats).any(axis=1),
            feature_names=list(names),
        )
    if labels is not None:
        labels = labels[:T]
    return Session(session_id=session_id, role=role, streams=streams,
                   labels=labels, warnings=warnings)


# ---------------------------------------------------------------------------
# normalization

@dataclass
class NormStats:
    """Per-feature mean/std keyed by '<modality>.<feature name>'."""
    names: list[str]
    mean: np.ndarray
    std: np.ndarray

    EPS = 1e-8

    def for_modality(self, modality: str, feature_names: list[str]):
        """(mean, std) rows for one modality, verified against its header."""
        prefix = f"{modality}."
        idx = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        got = [self.names[i] for i in idx]
        want = [prefix + n for n in feature_names]
        if got != want:
            raise DataError(
                f"normalization stats do not match '{modality}' features: "
                f"stats have {got}, data has {want}")
        return self.mean[idx], self.std[idx]

    def save(self, path):
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "mean", "std"])
            for n, m, s in zip(self.names, self.mean, self.std):
                writer.writerow([n, repr(float(m)), repr(float(s))])

    @classmethod
    def load(cls, path) -> "NormStats":
        path = Path(path)
        if not path.exists():
            raise DataError(f"missing normalization stats file: {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["name", "mean", "std"]:
                raise DataError(f"{path}: expected header name,mean,std")
            names, mean, std = [], [], []
            for row in reader:
                try:
                    name, m, s = row
                    m, s = float(m), float(s)
                    if not (np.isfinite(m) and 0.0 <= s < np.inf):
                        raise ValueError
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: expected name,mean,std "
                                    f"with a finite mean and a finite std >= 0, "
                                    f"got {row!r}") from None
                mean.append(m)
                std.append(s)
                names.append(name)
        return cls(names, np.asarray(mean), np.asarray(std))


def compute_norm_stats(sessions: list[Session], modalities=MODALITIES) -> NormStats:
    """Population mean/std per feature over all valid frames of `sessions`."""
    names, means, stds = [], [], []
    for m in modalities:
        blocks = [s.streams[m].features[s.streams[m].valid_mask] for s in sessions]
        stacked = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, 0))
        feature_names = sessions[0].streams[m].feature_names
        if stacked.shape[0] == 0:
            mu = np.zeros(len(feature_names))
            sd = np.zeros(len(feature_names))
        else:
            mu = stacked.mean(axis=0)
            sd = stacked.std(axis=0)
        names.extend(f"{m}.{n}" for n in feature_names)
        means.append(mu)
        stds.append(sd)
    return NormStats(names, np.concatenate(means), np.concatenate(stds))


def apply_norm_stats(session: Session, stats: NormStats) -> Session:
    """Z-score a session with precomputed stats; NaN cells become 0.

    Features with std below NormStats.EPS are centered only, so constant
    columns come out as exact zeros.
    """
    streams = {}
    for m, stream in session.streams.items():
        mu, sd = stats.for_modality(m, stream.feature_names)
        scale = np.where(sd < NormStats.EPS, 1.0, sd)
        z = (stream.features - mu) / scale
        z = np.where(np.isnan(z), 0.0, z)
        streams[m] = replace(stream, features=z)
    return replace(session, streams=streams)


def normalize(sessions: list[Session], stats: NormStats | None = None):
    """Normalize sessions; compute stats from them only when none are given.

    Training calls this without `stats`; evaluation must pass the stored
    training stats so no information leaks from held-out sessions.
    """
    if stats is None:
        stats = compute_norm_stats(sessions)
    return [apply_norm_stats(s, stats) for s in sessions], stats


# ---------------------------------------------------------------------------
# windowing

def window_starts(T: int, window: int, stride: int) -> list[int]:
    """Sliding starts; a tail window anchored at T-window keeps full coverage."""
    if T <= 0:
        return []
    if T <= window:
        return [0]
    starts = list(range(0, T - window + 1, stride))
    if (T - window) % stride != 0:
        starts.append(T - window)
    return starts


def make_windows(session: Session, window: int = 64, stride: int = 32) -> list[Window]:
    """References to the windows of `session`, in start order. The frame
    mask is computed once per session; each window's mask is a row of one
    (N, W) array, False past the last frame."""
    T = session.num_frames
    starts = window_starts(T, window, stride)
    padded = np.zeros(max(T, window), dtype=bool)
    padded[:T] = session.frame_mask
    masks = np.lib.stride_tricks.sliding_window_view(padded, window)[starts]
    return [Window(session, start, mask) for start, mask in zip(starts, masks)]


def _frames_of(a: np.ndarray, start: int, W: int) -> np.ndarray:
    """``a[start:start + W]`` along its frame axis, zero-padded to W frames."""
    piece = a[start:start + W]
    if len(piece) == W:
        return piece
    padded = np.zeros((W,) + a.shape[1:], a.dtype)
    padded[:len(piece)] = piece
    return padded


def batch_windows(windows: list[Window], dtype=np.float32) -> WindowBatch:
    """Gather windows into one dense batch, in the given order.

    Each modality's (B, C_m, W) block, and the (B, W) labels, is written by
    one ``np.concatenate`` of the rows' views of their sessions' arrays,
    whatever session each row comes from, so a value is cast once. Padding
    and unlabeled frames are zero. The windows may come from different
    sessions with the same modalities."""
    W = windows[0].mask.shape[0]
    unlabeled = np.zeros(W)
    feats = {m: np.concatenate([_frames_of(w.session.streams[m].features, w.start, W).T[None]
                                for w in windows], dtype=dtype)
             for m in windows[0].session.streams}
    labels = np.concatenate([(unlabeled if w.session.labels is None
                              else _frames_of(w.session.labels, w.start, W))[None]
                             for w in windows], dtype=dtype)
    return WindowBatch(features=feats, labels=labels, mask=np.stack([w.mask for w in windows]))


def overlap_average(T: int, predictions) -> np.ndarray:
    """Average per-window scores back into one per-frame trajectory.

    `predictions` yields (start, scores) pairs; scores past the last
    frame (a window's zero padding) are dropped. Every frame must be
    covered at least once.
    """
    total = np.zeros(T, dtype=np.float64)
    count = np.zeros(T, dtype=np.int64)
    for start, scores in predictions:
        scores = np.asarray(scores, dtype=np.float64)
        n = min(scores.shape[0], T - start)
        total[start:start + n] += scores[:n]
        count[start:start + n] += 1
    uncovered = count == 0
    if uncovered.any():
        raise DataError(
            f"overlap_average: frame {int(np.argmax(uncovered))} received no prediction")
    return total / count


# ---------------------------------------------------------------------------
# synthetic sessions

@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    sessions: int = 4
    frames: int = 500
    dims: tuple[int, int, int] = (8, 12, 10)        # head, pose, voice widths
    snr: tuple[float, float, float] = (1.0, 1.0, 1.0)
    roles: tuple[str, ...] = ROLES

    def __post_init__(self):
        if self.sessions < 1 or self.frames < 1 or min(self.dims) < 1:
            raise ConfigError(
                f"synthetic sessions, frames and dims must be positive, got "
                f"sessions={self.sessions}, frames={self.frames}, dims={self.dims}")
        if not all(snr >= 0.0 for snr in self.snr):
            raise ConfigError(f"synthetic snr must be >= 0, got {self.snr}")


def _latent_engagement(rng: np.random.Generator, n: int) -> np.ndarray:
    """Bounded random walk, smoothed by a 25-frame moving average,
    rescaled into [0.05, 0.95]."""
    steps = rng.normal(0.0, 0.05, size=n)
    walk = np.cumsum(steps)
    folded = np.abs((walk % 2.0 + 2.0) % 2.0 - 1.0)   # reflect into [0, 1]
    padded = np.pad(folded, 12, mode="reflect")
    smooth = np.convolve(padded, np.full(25, 1.0 / 25.0), mode="valid")
    lo, hi = smooth.min(), smooth.max()
    if hi - lo < 1e-9:
        return np.full(n, 0.5)
    return 0.05 + 0.9 * (smooth - lo) / (hi - lo)


def generate_synthetic(spec: SyntheticSpec) -> list[Session]:
    """Labeled sessions whose features carry the engagement signal at a
    chosen per-modality SNR.

    The latent per role is [e(t), e(t-5), de/dt]; each modality observes
    it through a fixed random mixing matrix (drawn once per generator
    run, shared by all sessions, so the mapping is learnable across
    sessions) plus Gaussian noise scaled by 1/snr. snr=0 removes the
    signal entirely: the modality is pure unit noise.
    """
    rng = np.random.default_rng(spec.seed)
    mixing = {m: rng.standard_normal((3, d)) for m, d in zip(MODALITIES, spec.dims)}
    out = []
    for i in range(spec.sessions):
        sid = f"s{i:03d}"
        for role in spec.roles:
            e_full = _latent_engagement(rng, spec.frames + LATENT_LAG)
            e = e_full[LATENT_LAG:]
            e_lag = e_full[:-LATENT_LAG]
            de = e_full[LATENT_LAG:] - e_full[LATENT_LAG - 1:-1]
            latent = np.stack([e, e_lag, de], axis=1)        # (T, 3)
            streams = {}
            for m, dim, snr in zip(MODALITIES, spec.dims, spec.snr):
                noise = rng.standard_normal((spec.frames, dim))
                if snr > 0.0:
                    feats = latent @ mixing[m] + noise / snr
                else:
                    feats = noise
                streams[m] = ModalityStream(
                    modality=m,
                    features=feats,
                    frame_index=np.arange(spec.frames),
                    valid_mask=np.ones(spec.frames, dtype=bool),
                    feature_names=[f"f{j}" for j in range(dim)],
                )
            out.append(Session(session_id=sid, role=role, streams=streams, labels=e))
    return out


# ---------------------------------------------------------------------------
# dataset writers / split handling

def write_session(root, session: Session) -> None:
    base = Path(root) / session.session_id
    base.mkdir(parents=True, exist_ok=True)
    for m, stream in session.streams.items():
        with open(base / f"{session.role}.{m}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame"] + stream.feature_names)
            for t in range(stream.num_frames):
                writer.writerow([int(stream.frame_index[t])]
                                + [repr(float(v)) for v in stream.features[t]])
    if session.labels is not None:
        with open(base / f"{session.role}.labels.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "engagement"])
            for t, v in enumerate(session.labels):
                writer.writerow([t, repr(float(v))])


def write_splits(root, train_ids: list[str], val_ids: list[str]) -> None:
    with open(Path(root) / "splits.json", "w") as fh:
        json.dump({"train": sorted(train_ids), "val": sorted(val_ids)}, fh, indent=2)
        fh.write("\n")


def read_json(path: Path, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``; it must hold every key in ``keys``."""
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise DataError(f"{path}: missing '{key}' entry")
    return obj


def load_splits(root) -> dict:
    return read_json(Path(root) / "splits.json", ("train", "val"))


def generate_dataset(root, spec: SyntheticSpec, val_fraction: float = 0.2) -> dict:
    """Generate, write, and split a synthetic dataset; returns the splits.

    At least one session goes to validation and at least one to training,
    when there are two or more."""
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    sessions = generate_synthetic(spec)
    for s in sessions:
        write_session(root, s)
    ids = sorted({s.session_id for s in sessions})
    n_val = min(max(1, int(round(val_fraction * len(ids)))), len(ids) - 1)
    train_ids, val_ids = ids[:len(ids) - n_val], ids[len(ids) - n_val:]
    write_splits(root, train_ids, val_ids)
    return {"train": train_ids, "val": val_ids}


def roles_for_subject(subject: str) -> tuple[str, ...]:
    if subject == "both":
        return ROLES
    if subject in ROLES:
        return (subject,)
    raise DataError(f"unknown subject filter {subject!r}; use expert, novice, or both")


def load_split_sessions(root, split: str, subject: str = "both",
                        modalities=MODALITIES, require_labels: bool = True) -> list[Session]:
    """All sessions of one split, expanded over the requested roles."""
    splits = load_splits(root)
    if split not in splits:
        raise DataError(f"split {split!r} not present in {Path(root) / 'splits.json'}")
    out = []
    for sid in splits[split]:
        for role in roles_for_subject(subject):
            out.append(load_session(root, sid, role, modalities=modalities,
                                    require_labels=require_labels))
    return out
