"""Seeded synthetic inputs for the benchmark workloads.

The generator lives here rather than in the package, so that a change to
the package's own synthetic generator cannot change what is measured.
The seed decides the values (phases of the engagement labels, noise,
missing cells); the sizes (session lengths, feature widths), the label
periods and the mixing from the latent to the features are fixed per
workload, so throughput and loss are comparable across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODALITIES = ("head", "pose", "voice")
ROLES = ("expert", "novice")


@dataclass
class RawSession:
    """One (session, role): per-modality (T, C) features and (T,) labels."""
    session_id: str
    role: str
    features: dict[str, np.ndarray]   # NaN marks a missing cell
    labels: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.labels.shape[0]

    @property
    def valid_frames(self) -> int:
        """Frames with no missing cell in any modality."""
        ok = np.ones(self.num_frames, dtype=bool)
        for feats in self.features.values():
            ok &= ~np.isnan(feats).any(axis=1)
        return int(ok.sum())


# Label periods in frames. Fixed, like the mixing below: with periods drawn
# from the seed, ablate_tiny's loss_final spread twice as wide across seeds.
PERIODS = np.array([71.0, 137.0, 263.0, 457.0])


def engagement_trace(rng: np.random.Generator, n: int) -> np.ndarray:
    """Four sinusoids with the fixed PERIODS and random phases,
    standardised to mean 0.5, std 0.15 and clipped into [0.05, 0.95]:
    every session has several slow swings, so how hard a seed's labels
    are to fit varies little between seeds."""
    t = np.arange(n)[:, None]
    x = np.sin(2 * np.pi * t / PERIODS + rng.uniform(0, 2 * np.pi, size=4)).sum(axis=1)
    return np.clip(0.5 + 0.15 * (x - x.mean()) / x.std(), 0.05, 0.95)


def make_sessions(rng: np.random.Generator, lengths: dict[str, int],
                  dims: tuple[int, int, int], snr: tuple[float, float, float],
                  nan_frac: float = 0.0) -> list[RawSession]:
    """Sessions (both roles) whose modalities see the engagement latent
    [e(t), e(t-5), de/dt] through one fixed random mixing per modality,
    plus unit noise scaled by 1/snr (snr 0: pure noise). ``nan_frac`` of
    all feature cells are blanked at random."""
    # the mixing is part of the workload, not of the seed: with a drawn
    # mixing, how learnable the data is (and so the loss) swings by seed
    fixed = np.random.default_rng(0)
    mixing = {m: fixed.standard_normal((3, d)) for m, d in zip(MODALITIES, dims)}
    out = []
    for sid, n in lengths.items():
        for role in ROLES:
            e_full = engagement_trace(rng, n + 5)
            e = e_full[5:]
            latent = np.stack([e, e_full[:-5], e - e_full[4:-1]], axis=1)
            feats = {}
            for m, d, s in zip(MODALITIES, dims, snr):
                noise = rng.standard_normal((n, d))
                x = latent @ mixing[m] + noise / s if s > 0 else noise
                if nan_frac > 0:
                    x[rng.random(x.shape) < nan_frac] = np.nan
                feats[m] = x
            out.append(RawSession(sid, role, feats, e))
    return out


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    for t, row in enumerate(rows):
        cells = ["" if np.isnan(v) else f"{v:.7g}" for v in row]
        lines.append(f"{t}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_dataset(root: Path, sessions: list[RawSession],
                  splits: dict[str, list[str]]) -> None:
    """The package's on-disk layout: <root>/<id>/<role>.<modality>.csv,
    <role>.labels.csv and <root>/splits.json."""
    for s in sessions:
        base = root / s.session_id
        base.mkdir(parents=True, exist_ok=True)
        for m, feats in s.features.items():
            names = ["frame"] + [f"f{j}" for j in range(feats.shape[1])]
            _write_csv(base / f"{s.role}.{m}.csv", names, feats)
        _write_csv(base / f"{s.role}.labels.csv", ["frame", "engagement"],
                   s.labels[:, None])
    (root / "splits.json").write_text(json.dumps(splits, indent=2) + "\n")
