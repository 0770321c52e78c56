"""Ablation grid: train/evaluate every (conv kind x fusion kind x subject
x modality subset) cell on one dataset, plus a per-modality table of
feature-magnitude CCC computed from the raw (pre-normalization) features.

Cell failures are recorded and the grid keeps going.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import DctmConfig, to_flat
from .conv import receptive_field
from .data import MODALITIES, Session, load_split_sessions
from .errors import ConfigError
from .files import atomic_write
from .metrics import magnitude_ccc
from .model import conv_specs
from .train import build_id, fit


@dataclass
class AblationCell:
    conv: str
    fusion: str
    subject: str
    modalities: tuple[str, ...]
    receptive_field: int
    val_ccc: float | None
    train_ccc: float | None
    best_epoch: int | None
    status: str
    wall_time_s: float


@dataclass
class MagnitudeRow:
    subject: str
    modality: str
    ccc: float
    degenerate: bool
    n: int


def _cell_config(base: DctmConfig, conv_kind: str, fusion_kind: str,
                 subject: str, modalities: tuple[str, ...]) -> DctmConfig:
    return replace(
        base,
        conv=replace(base.conv, kind=conv_kind),
        fusion=replace(base.fusion, kind=fusion_kind),
        data=replace(base.data, subject=subject, modalities=modalities),
    )


def _cell_receptive_field(cfg: DctmConfig) -> int:
    if cfg.conv.kind == "none":
        return 1
    return receptive_field(conv_specs(cfg, in_channels=1))


def run_ablation(base: DctmConfig,
                 conv_kinds=("dilated", "traditional", "none"),
                 fusion_kinds=("sa", "gmu"),
                 subjects=None,
                 modality_sets=None,
                 log=None) -> tuple[list[AblationCell], list[MagnitudeRow]]:
    """Train every grid cell on the dataset at base.data.root."""
    say = log if log is not None else (lambda msg: None)
    subjects = tuple(subjects) if subjects else (base.data.subject,)
    modality_sets = (tuple(tuple(m) for m in modality_sets)
                     if modality_sets else (tuple(base.data.modalities),))

    raw = {}
    for subject in subjects:
        raw[subject] = (
            load_split_sessions(base.data.root, "train", subject),
            load_split_sessions(base.data.root, "val", subject),
        )

    cells = []
    for subject in subjects:
        train_sessions, val_sessions = raw[subject]
        for mods in modality_sets:
            for conv_kind in conv_kinds:
                for fusion_kind in fusion_kinds:
                    t0 = time.perf_counter()
                    label = f"{conv_kind}/{fusion_kind}/{subject}/{'+'.join(mods)}"
                    cell = AblationCell(
                        conv=conv_kind, fusion=fusion_kind, subject=subject,
                        modalities=mods, receptive_field=1, val_ccc=None,
                        train_ccc=None, best_epoch=None, status="ok",
                        wall_time_s=0.0)
                    try:
                        cfg = _cell_config(base, conv_kind, fusion_kind, subject, mods)
                        cell.receptive_field = _cell_receptive_field(cfg)
                        result = fit(cfg, train_sessions, val_sessions)
                        cell.val_ccc = (result.val_ccc_curve[result.best_epoch]
                                        if result.val_ccc_curve else None)
                        cell.train_ccc = result.train_ccc_curve[-1]
                        cell.best_epoch = result.best_epoch
                        say(f"{label}: val_ccc "
                            f"{'n/a' if cell.val_ccc is None else format(cell.val_ccc, '+.4f')}")
                    except Exception as e:  # record and keep the grid running
                        cell.status = f"error: {e}"
                        say(f"{label}: failed ({e})")
                    cell.wall_time_s = time.perf_counter() - t0
                    cells.append(cell)

    magnitude = []
    for subject in subjects:
        magnitude += magnitude_rows(subject, raw[subject][0], base.data.modalities)
    return cells, magnitude


def magnitude_rows(subject: str, sessions: list[Session], modalities) -> list[MagnitudeRow]:
    """Raw-feature L2-norm CCC against labels, per modality of one subject's
    raw training sessions."""
    rows = []
    labels = np.concatenate([s.labels for s in sessions])
    mask = np.concatenate([s.frame_mask for s in sessions])
    for m in modalities:
        feats = np.concatenate([s.streams[m].features for s in sessions])
        r = magnitude_ccc(np.where(np.isnan(feats), 0.0, feats), labels, mask)
        rows.append(MagnitudeRow(subject=subject, modality=m, ccc=r.ccc,
                                 degenerate=r.degenerate, n=r.n))
    return rows


def format_grid(cells: list[AblationCell]) -> str:
    header = (f"{'conv':<12} {'fusion':<7} {'subject':<8} {'modalities':<17} "
              f"{'rf':>4} {'val_ccc':>8} {'train_ccc':>10}  status")
    lines = [header, "-" * len(header)]
    for c in cells:
        val = "-" if c.val_ccc is None else f"{c.val_ccc:+.4f}"
        train = "-" if c.train_ccc is None else f"{c.train_ccc:+.4f}"
        lines.append(f"{c.conv:<12} {c.fusion:<7} {c.subject:<8} "
                     f"{'+'.join(c.modalities):<17} {c.receptive_field:>4d} "
                     f"{val:>8} {train:>10}  {c.status}")
    return "\n".join(lines) + "\n"


def format_magnitude(rows: list[MagnitudeRow]) -> str:
    header = f"{'subject':<8} {'modality':<8} {'magnitude_ccc':>14} {'frames':>8}  flags"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.subject:<8} {r.modality:<8} {r.ccc:>+14.4f} {r.n:>8d}  "
                     f"{'degenerate' if r.degenerate else '-'}")
    return "\n".join(lines) + "\n"


def parse_modality_sets(raw: str) -> tuple[tuple[str, ...], ...]:
    """'head+pose+voice,voice' -> (('head','pose','voice'), ('voice',))."""
    sets = []
    for part in raw.split(","):
        mods = tuple(m.strip() for m in part.split("+") if m.strip())
        if not mods:
            raise ConfigError(f"empty modality subset in {raw!r}")
        for m in mods:
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r} in {raw!r}")
        sets.append(mods)
    return tuple(sets)


def ablate_run(base: DctmConfig, out_dir, conv_kinds, fusion_kinds,
               subjects, modality_sets, log=None) -> tuple[list[AblationCell], list[MagnitudeRow]]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells, magnitude = run_ablation(base, conv_kinds, fusion_kinds,
                                    subjects, modality_sets, log=log)
    payload = {
        "build": build_id(),
        "config": to_flat(base),
        "grid": [
            {**vars(c), "modalities": list(c.modalities)} for c in cells
        ],
        "magnitude": [vars(r).copy() for r in magnitude],
    }
    with atomic_write(out / "ablation.json") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    text = format_grid(cells) + "\n" + format_magnitude(magnitude)
    with atomic_write(out / "ablation.txt") as fh:
        fh.write(text)
    if log is not None:
        log(text)
    return cells, magnitude
