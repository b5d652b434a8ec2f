"""Exception types shared across the package, and the field rules of config and data files."""

from __future__ import annotations


class DcaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DcaError):
    """A value violates a documented range or structural constraint."""


class ConfigError(DcaError):
    """A configuration key or value is unusable."""


class EngineInvariantError(DcaError):
    """An internal accounting invariant of the engine was broken."""


def _broken(label: str, v, positive=False, bounds=None) -> str | None:
    """Why ``v`` breaks its rule, if it does: > 0 if ``positive``, then in ``bounds``, [lo, hi]."""
    if positive and not v > 0:
        return f"{label} must be positive, got {v}"
    if bounds and not bounds[0] <= v <= bounds[1]:
        # an int bound with thousands separators, a float one shortest, without ``.0``
        lo, hi = (f"{x:,}" if isinstance(x, int) else repr(x).removesuffix(".0") for x in bounds)
        return f"{label} must lie in [{lo}, {hi}], got {v}"


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
            if why := _broken(label, v, name in positive, ranges.get(name)):
                raise ConfigError(why)


def read_number(name: str, text: str, parse=int, spell=str, positive=False, bounds=None):
    """The number ``text`` of a data file's field ``name``, if spelled as its writer spells it,
    ``spell(parse(text)) == text``, and within the rules of check_fields; else a ValidationError."""
    try:
        if spell(value := parse(text)) != text:
            raise ValueError
    except ValueError:
        raise ValidationError(f"{name}: bad numeric field: {text!r}") from None
    if (positive or bounds) and (why := _broken(name, value, positive, bounds)):
        raise ValidationError(why)
    return value


def check_printable(name: str, text: str) -> str:
    """``text``, a data file's field ``name``, if printable, so no control character reaches a terminal."""
    if not text.isprintable():
        raise ValidationError(f"{name} {text!r} is not printable")
    return text
