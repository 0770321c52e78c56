"""Run configuration: nested dataclasses with a flat ``key = value`` file
format and ``--key=value`` CLI overrides.

Dotted keys address sections (``conv.kernels = 5,5,3``); list values are
comma-separated. `to_flat` round-trips the full resolved config so every
report can echo it with no silent defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import MODALITIES
from .errors import ConfigError
from .transformer import TransformerSettings

CONV_KINDS = ("dilated", "traditional", "none")
FUSION_KINDS = ("sa", "gmu")
SUBJECTS = ("expert", "novice", "both")
PRECISIONS = ("float32", "float64")


@dataclass(frozen=True)
class ConvConfig:
    kind: str = "dilated"               # dilated | traditional (dilation 1) | none
    kernels: tuple[int, ...] = (5, 5, 3)
    dilations: tuple[int, ...] = (4, 4, 4)
    channels: int = 64

    def __post_init__(self):
        if self.kind not in CONV_KINDS:
            raise ConfigError(f"conv.kind must be one of {CONV_KINDS}, got {self.kind!r}")
        if len(self.kernels) != len(self.dilations):
            raise ConfigError(
                f"conv.kernels ({len(self.kernels)}) and conv.dilations "
                f"({len(self.dilations)}) must have equal length")
        if not self.kernels:
            raise ConfigError("conv.kernels must not be empty")
        for k in self.kernels:
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"conv kernel sizes must be odd and positive, got {k}")
        for d in self.dilations:
            if d < 1:
                raise ConfigError(f"conv dilations must be >= 1, got {d}")
        if self.channels < 1:
            raise ConfigError(f"conv.channels must be >= 1, got {self.channels}")

    def effective_dilations(self) -> tuple[int, ...]:
        """Dilation per layer after applying the kind (traditional -> all 1)."""
        if self.kind == "traditional":
            return tuple(1 for _ in self.dilations)
        return self.dilations

    def receptive_field(self) -> int:
        """Width of the input span that can influence one output frame (1 with no conv)."""
        if self.kind == "none":
            return 1
        return 1 + sum(d * (k - 1) for k, d in zip(self.kernels, self.effective_dilations()))


@dataclass(frozen=True)
class FusionConfig:
    kind: str = "sa"                    # sa (concat + attention) | gmu

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ConfigError(f"fusion.kind must be one of {FUSION_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-6
    epochs: int = 30
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"optim.lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"optim.epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"optim.batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class DataConfig:
    root: str = "data"
    window: int = 64
    stride: int = 32
    subject: str = "both"
    modalities: tuple[str, ...] = MODALITIES

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"data.window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise ConfigError(f"data.stride must be >= 1, got {self.stride}")
        if self.subject not in SUBJECTS:
            raise ConfigError(f"data.subject must be one of {SUBJECTS}, got {self.subject!r}")
        if not self.modalities:
            raise ConfigError("data.modalities must not be empty")
        for m in self.modalities:
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r}; choose from {MODALITIES}")
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigError(f"duplicate modality in {self.modalities}")


@dataclass(frozen=True)
class DctmConfig:
    conv: ConvConfig = ConvConfig()
    fusion: FusionConfig = FusionConfig()
    transformer: TransformerSettings = TransformerSettings()
    optim: OptimConfig = OptimConfig()
    data: DataConfig = DataConfig()
    seed: int = 0
    precision: str = "float32"

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


_SECTIONS = ("conv", "fusion", "transformer", "optim", "data")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_like(raw: str, template, key: str):
    raw = raw.strip()
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        if isinstance(template, tuple):
            elem = template[0] if template else ""
            parts = [p.strip() for p in raw.split(",")] if raw else []
            return tuple(_parse_like(p, elem, key) for p in parts)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {e}") from None


def to_flat(cfg: DctmConfig) -> dict[str, str]:
    """Fully resolved config as flat dotted-key strings (report echo format)."""
    out = {}
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            out[f"{section}.{f.name}"] = _format_value(getattr(sub, f.name))
    out["seed"] = _format_value(cfg.seed)
    out["precision"] = cfg.precision
    return out


def from_flat(overrides: dict[str, str], base: DctmConfig | None = None) -> DctmConfig:
    """Apply string-valued overrides on top of `base` (default config if None)."""
    base = base if base is not None else DctmConfig()
    staged: dict[str, dict] = {s: {} for s in _SECTIONS}
    top: dict[str, object] = {}
    for key, raw in overrides.items():
        if "." in key:
            section, _, name = key.partition(".")
            sub = getattr(base, section, None)
            if section not in _SECTIONS or not any(f.name == name for f in fields(sub)):
                raise ConfigError(f"unknown config key {key!r}")
            template = getattr(sub, name)
            staged[section][name] = _parse_like(raw, template, key)
        else:
            if not any(f.name == key for f in fields(base) if f.name not in _SECTIONS):
                raise ConfigError(f"unknown config key {key!r}")
            top[key] = _parse_like(raw, getattr(base, key), key)
    kwargs = dict(top)
    for section in _SECTIONS:
        if staged[section]:
            kwargs[section] = replace(getattr(base, section), **staged[section])
    return replace(base, **kwargs) if kwargs else base


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment, last key wins."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(config_file=None, overrides: dict[str, str] | None = None) -> DctmConfig:
    """defaults <- config file <- explicit overrides, validated at each step."""
    flat = {}
    if config_file is not None:
        flat.update(read_config_file(config_file))
    if overrides:
        flat.update(overrides)
    return from_flat(flat)
