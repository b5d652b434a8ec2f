"""Exception types shared across the package, and the reading and field rules of config and data files."""

from __future__ import annotations


class DcaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DcaError):
    """A value violates a documented range or structural constraint."""


class ConfigError(DcaError):
    """A configuration key or value is unusable."""


class EngineInvariantError(DcaError):
    """An internal accounting invariant of the engine was broken."""


QUOTE_CHARS = 40  # the most characters of a rejected field that an error line repeats


def quoted(text: str | None, show=repr) -> str:
    """A rejected field as an error line shows it: ``show(text)``, or for a text longer
    than QUOTE_CHARS, ``show`` of its start and the text's length."""
    if text is None or len(text) <= QUOTE_CHARS:
        return show(text)
    return f"{show(text[:QUOTE_CHARS])}... ({len(text):,} characters)"


def check_value(label: str, v, positive=False, bounds=None, error=ConfigError) -> None:
    """Raise ``error`` if ``v`` breaks its rule: > 0 if ``positive``, then in ``bounds``,
    [lo, hi].  Every closed bound in the package is worded here."""
    if positive and not v > 0:
        raise error(f"{label} must be positive, got {quoted(str(v), str)}")
    if bounds and not bounds[0] <= v <= bounds[1]:
        # an int bound with thousands separators, a float one shortest, without ``.0``
        lo, hi = (f"{x:,}" if isinstance(x, int) else repr(x).removesuffix(".0") for x in bounds)
        raise error(f"{label} must lie in [{lo}, {hi}], got {quoted(str(v), str)}")


def check_fields(obj, *, positive=(), **ranges) -> None:
    """Raise ConfigError, by check_value, for the first named field of ``obj`` that breaks
    a rule: ``positive`` fields must exceed 0, and each ``name=(lo, hi)`` keyword bounds its
    field to [lo, hi], in that order.  A tuple field is checked element by element,
    ``name[i]`` in the message.  NaN fails every rule."""
    for name in dict.fromkeys((*positive, *ranges)):
        value = getattr(obj, name)
        items = ([(f"{name}[{i}]", v) for i, v in enumerate(value)]
                 if isinstance(value, tuple) else [(name, value)])
        for label, v in items:
            check_value(label, v, name in positive, ranges.get(name))


def read_number(name: str, text: str, parse=int, spell=str, positive=False, bounds=None):
    """The number ``text`` of a data file's field ``name``, if spelled as its writer spells it,
    ``spell(parse(text)) == text``, and within the rules of check_value; else a ValidationError."""
    try:
        if spell(value := parse(text)) != text:
            raise ValueError
    except ValueError:
        raise ValidationError(f"{name}: bad numeric field: {quoted(text)}") from None
    if positive or bounds:
        check_value(name, value, positive, bounds, ValidationError)
    return value


def check_printable(name: str, text: str) -> str:
    """``text``, a data file's field ``name``, if printable, so no control character reaches a terminal."""
    if not text.isprintable():
        raise ValidationError(f"{name} {quoted(text)} is not printable")
    return text


def open_text(path, newline=None):
    """Open an input file as UTF-8 text that always decodes: a byte that is not UTF-8 is read as a
    lone surrogate (``surrogateescape``), which a reader refuses, by not_utf8, on the line it is on."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline)


def not_utf8(line: str) -> str | None:
    """Why ``line``, read by open_text, is refused for its first byte that is not UTF-8, worded as
    a strict decoder words it; None if it has none."""
    if line.isascii():
        return None
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    except UnicodeEncodeError:  # a lone surrogate that no byte of a file gives
        pass
    return None
