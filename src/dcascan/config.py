"""Flat key-value configuration files and the bundled run configuration.

A config file holds one ``section.key = value`` pair per line, with ``#``
comment lines.  Sections map onto the dataclasses of the package:

    engine.*    population sizing, thresholds, seed
    weights.*   signal fusion weight matrix
    signals.*   signal normalization constants
    scan.*      synthetic scan shape
    normal.*    synthetic desktop-traffic shape
    session.*   monitoring session framing
    analysis.*  window size, verdict thresholds

Tuple-valued fields take comma-separated values.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field, fields, replace

from .analysis import AnalysisConfig
from .engine import EngineConfig
from .errors import ConfigError
from .scenario import NormalProfile, ScanProfile, SessionProfile
from .signals import SignalConfig


@dataclass(frozen=True)
class PipelineConfig:
    engine: EngineConfig = field(default_factory=EngineConfig)
    signals: SignalConfig = field(default_factory=SignalConfig)
    scan: ScanProfile = field(default_factory=ScanProfile)
    normal: NormalProfile = field(default_factory=NormalProfile)
    session: SessionProfile = field(default_factory=SessionProfile)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


def parse_flat_config(text: str) -> dict[str, str]:
    """Read ``key = value`` lines into a dict, preserving value text."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"config line {line_no}: empty key or value")
        if key in values:
            raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def load_flat_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_flat_config(fh.read())


def _coerce(raw: str, typ, key: str):
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if typ is str:
        return raw
    if typ is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    origin = typing.get_origin(typ)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(typ) if a is not type(None)]
        if raw.lower() in ("none", "null"):
            return None
        return _coerce(raw, args[0], key)
    if origin is tuple:
        args = typing.get_args(typ)
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(p, args[0], key) for p in parts)
        if len(parts) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} comma-separated values")
        return tuple(_coerce(p, a, key) for p, a in zip(parts, args))
    raise ConfigError(f"{key}: unsupported option type {typ!r}")


def _section_kwargs(cls, items: dict[str, str], section: str) -> dict:
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for name, raw in items.items():
        if name not in known:
            raise ConfigError(f"unknown config key {section}.{name}")
        kwargs[name] = _coerce(raw, hints[name], f"{section}.{name}")
    return kwargs


def apply_overrides(config: PipelineConfig, flat: dict[str, str]) -> PipelineConfig:
    """Overlay flat dotted keys onto a PipelineConfig, validating everything.

    The sections are the fields of PipelineConfig, plus ``weights`` for
    ``engine.weights``.
    """
    sections = {f.name: getattr(config, f.name) for f in fields(PipelineConfig)}
    sections["weights"] = config.engine.weights
    by_section: dict[str, dict[str, str]] = {}
    for key, value in flat.items():
        section, dot, name = key.partition(".")
        if not dot or not name:
            raise ConfigError(f"config key {key!r} is not of the form section.key")
        if section not in sections:
            raise ConfigError(f"unknown config section {section!r}")
        by_section.setdefault(section, {})[name] = value
    for section, items in by_section.items():
        current = sections[section]
        sections[section] = replace(current, **_section_kwargs(type(current), items, section))
    sections["engine"] = replace(sections["engine"], weights=sections.pop("weights"))
    return PipelineConfig(**sections)


def build_config(config_path=None) -> PipelineConfig:
    """Defaults, overlaid with an optional config file."""
    if config_path is None:
        return PipelineConfig()
    return apply_overrides(PipelineConfig(), load_flat_config(config_path))
