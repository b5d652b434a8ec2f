"""Flat key-value configuration files and the bundled run configuration.

A config file holds one ``section.key = value`` pair per line, with ``#``
comment lines.  Sections map onto the dataclasses of the package:

    engine.*    population sizing, thresholds
    weights.*   signal fusion weight matrix
    signals.*   signal normalization constants
    scan.*      synthetic scan shape
    normal.*    synthetic desktop-traffic shape
    session.*   monitoring session framing
    analysis.*  window size, verdict thresholds

Every value is a number, or comma-separated numbers for a tuple field.  Each
section bounds its fields with ``errors.check_fields``, whose range checks
NaN fails; infinity passes a range open above and fields with no range take
any number, so ``_coerce`` rejects every non-finite number.
"""

from __future__ import annotations

import io
import math
import typing
from dataclasses import dataclass, field, fields, replace

from .analysis import AnalysisConfig
from .engine import EngineConfig
from .errors import ConfigError, not_utf8, open_text, quoted
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
    """Read ``key = value`` lines, which end where a text file's do, into a dict, preserving
    value text.  A line with a byte that is not UTF-8, as errors.open_text reads one, is refused."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        if why := not_utf8(raw):
            raise ConfigError(f"config line {line_no}: {why}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"config line {line_no}: expected key = value")
        if not key or not value:
            raise ConfigError(f"config line {line_no}: empty key or value")
        if key in values:
            raise ConfigError(f"config line {line_no}: duplicate key {quoted(key)}")
        values[key] = value
    return values


def _coerce(raw: str, typ, key: str):
    """Read ``raw`` as ``typ``: int, float, or a tuple of these (fixed length or ``...``).
    A field of any other type, ``engine.weights``, is not a key."""
    args = typing.get_args(typ)
    if typing.get_origin(typ) is tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(parts)
        elif len(parts) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} comma-separated values")
        return tuple(_coerce(p, a, key) for p, a in zip(parts, args))
    if typ not in (int, float):
        raise ConfigError(f"unknown config key {quoted(key, str)}")
    try:
        value = typ(raw)
    except ValueError:
        expected = "an integer" if typ is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {quoted(raw)}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {quoted(raw)}")
    return value


def apply_overrides(config: PipelineConfig, flat: dict[str, str]) -> PipelineConfig:
    """Overlay flat dotted keys onto a PipelineConfig, validating everything.

    The sections are the fields of PipelineConfig, plus ``weights`` for
    ``engine.weights``.  Each key is checked in one pass: its section, its
    name against the section's fields, then its value.
    """
    sections = {f.name: getattr(config, f.name) for f in fields(PipelineConfig)}
    sections["weights"] = config.engine.weights
    changes: dict[str, dict] = {}
    for key, raw in flat.items():
        section, dot, name = key.partition(".")
        if not dot or not name:
            raise ConfigError(f"config key {quoted(key)} is not of the form section.key")
        if section not in sections:
            raise ConfigError(f"unknown config section {quoted(section)}")
        hints = typing.get_type_hints(type(sections[section]))
        if name not in hints:
            raise ConfigError(f"unknown config key {quoted(key, str)}")
        changes.setdefault(section, {})[name] = _coerce(raw, hints[name], key)
    for section, values in changes.items():
        sections[section] = replace(sections[section], **values)
    sections["engine"] = replace(sections["engine"], weights=sections.pop("weights"))
    return PipelineConfig(**sections)


def build_config(config_path=None) -> PipelineConfig:
    """Defaults, overlaid with an optional config file."""
    if config_path is None:
        return PipelineConfig()
    with open_text(config_path) as fh:
        return apply_overrides(PipelineConfig(), parse_flat_config(fh.read()))
