"""Exception types shared across the package, and the range rule of config sections."""

from __future__ import annotations


class DcaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DcaError):
    """A value violates a documented range or structural constraint."""


class ConfigError(DcaError):
    """A configuration key or value is unusable."""


class EngineInvariantError(DcaError):
    """An internal accounting invariant of the engine was broken."""


def _bound(x) -> str:
    """An int with thousands separators, a float in its shortest form without ``.0``."""
    return f"{x:,}" if isinstance(x, int) else repr(x).removesuffix(".0")


def check_fields(obj, *, positive=(), **ranges) -> None:
    """Raise ConfigError for the first named field of ``obj`` that breaks a rule.

    ``positive`` fields must exceed 0, and each ``name=(lo, hi)`` keyword
    bounds that field to [lo, hi]; a field under both rules is checked in
    that order.  A tuple field is checked element by element, ``name[i]`` in
    the message.  NaN fails every rule.
    """
    for name in dict.fromkeys((*positive, *ranges)):
        value = getattr(obj, name)
        items = ([(f"{name}[{i}]", v) for i, v in enumerate(value)]
                 if isinstance(value, tuple) else [(name, value)])
        for label, v in items:
            if name in positive and not v > 0:
                raise ConfigError(f"{label} must be positive, got {v}")
            if name in ranges:
                lo, hi = ranges[name]
                if not lo <= v <= hi:
                    raise ConfigError(f"{label} must lie in [{_bound(lo)}, {_bound(hi)}], got {v}")
