"""Event model, text serialization and one-second replay bucketing.

An event file is UTF-8 text with one record per line:

    P <timestamp> <sent|recv> <tcp|udp|icmp|other> <flags-csv-or-"-"> <size> [<icmp-type>]
    E <timestamp> <pid> <name> <syscall|login|logout>

Lines beginning with ``#`` are comments.  The serializer writes one
annotation comment, ``# duration=<seconds>``, so that a stream whose
duration extends past its last event survives a round trip; parsers that
ignore comments still read the same events.  A file holds at most one.
"""

from __future__ import annotations

import errno
import io
import itertools
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ValidationError, check_printable, check_value, not_utf8, open_text, quoted, read_number

DIRECTIONS = ("sent", "recv")
PROTOCOLS = ("tcp", "udp", "icmp", "other")
TCP_FLAGS = ("syn", "ack", "rst", "fin")  # also the order flags are written in
# Every tcp flag set keyed by its written text, "-" for none; events share these sets.
TCP_FLAG_SETS = {",".join(c) or "-": frozenset(c)
                 for n in range(5) for c in itertools.combinations(TCP_FLAGS, n)}
# The written text of each tcp flag set, "-" for none: TCP_FLAG_SETS read backwards.
_FLAG_TEXT = {None: "-", **{flags: text for text, flags in TCP_FLAG_SETS.items()}}
ICMP_TYPES = ("dest_unreachable", "echo_request", "echo_reply", "time_exceeded", "other")
PROCESS_KINDS = ("syscall", "login", "logout")
# Parsed events share these strings, not one fresh copy per line.
_PROCESS_KIND = {kind: kind for kind in PROCESS_KINDS}

MIN_PACKET_SIZE = 20
MAX_PACKET_SIZE = 65_535  # the IPv4 total-length limit
# Longest session, in seconds, that a file or the generator may describe.
MAX_DURATION = 86_400.0

_DURATION_PREFIX = "# duration="
MAX_TAILS = 4_096  # parsed line tails, the text after the time, that write_frames' memo holds
FRAME_LINES = 8_192  # events in one frame of write_frames


@dataclass(slots=True, unsafe_hash=True)
class PacketEvent:
    """One packet seen on the wire, in either direction.  Events compare and hash
    by value and parsed ones share field objects, so no code may mutate one."""

    timestamp: float
    direction: str
    protocol: str
    tcp_flags: frozenset[str] | None = None
    size_bytes: int = MIN_PACKET_SIZE
    icmp_type: str | None = None


@dataclass(slots=True, unsafe_hash=True)
class ProcessEvent:
    """One monitored process action: a system call or a remote root login/logout.
    Like a PacketEvent it compares and hashes by value, so no code may mutate one."""

    timestamp: float
    pid: int
    process_name: str
    kind: str


@dataclass(slots=True)
class EventStream:
    """All events of one session in file order: by time, packets first at equal times."""

    events: list[PacketEvent | ProcessEvent] = field(default_factory=list)
    duration: float = 0.0


@dataclass(slots=True)
class TickBucket:
    """Events of one whole virtual second; ``second`` is the bucket index."""

    second: int
    packet_events: list[PacketEvent] = field(default_factory=list)
    process_events: list[ProcessEvent] = field(default_factory=list)


def format_time(t: float) -> str:
    """Shortest text of a time: integral values without a trailing ``.0``."""
    return str(int(t)) if t.is_integer() else repr(t)


def _packet_line(p: PacketEvent) -> str:
    tail = f" {p.icmp_type}" if p.icmp_type is not None else ""
    return (f"P {format_time(p.timestamp)} {p.direction} {p.protocol} {_FLAG_TEXT[p.tcp_flags]} "
            f"{p.size_bytes}{tail}\n")


def _process_line(e: ProcessEvent) -> str:
    return f"E {format_time(e.timestamp)} {e.pid} {e.process_name} {e.kind}\n"


def serialize_stream(stream: EventStream) -> str:
    """Render a stream as event-file text.  Inverse of parse_stream."""
    write_stream(stream, text := io.StringIO())
    return text.getvalue()


def _parse_packet(parts: list[str]) -> tuple:
    if len(parts) not in (6, 7):
        raise ValidationError(f"packet line needs 6 or 7 fields, got {len(parts)}")
    size = read_number("size", parts[5], bounds=(MIN_PACKET_SIZE, MAX_PACKET_SIZE))
    direction, protocol, flags_text = parts[2], parts[3], parts[4]
    if direction not in DIRECTIONS:
        raise ValidationError(f"unknown direction {quoted(direction)}")
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown protocol {quoted(protocol)}")
    flags = TCP_FLAG_SETS.get(flags_text) if protocol == "tcp" else None
    if flags is None and (protocol == "tcp" or flags_text != "-"):
        raise ValidationError(f"bad tcp flags {quoted(flags_text)} for protocol {protocol}")
    icmp_type = parts[6] if len(parts) == 7 else None
    if icmp_type not in (ICMP_TYPES if protocol == "icmp" else (None,)):
        raise ValidationError(f"bad icmp type {quoted(icmp_type)} for protocol {protocol}")
    return direction, protocol, flags, size, icmp_type


def _parse_process(parts: list[str]) -> tuple:
    if len(parts) != 5:
        raise ValidationError(f"process line needs 5 fields, got {len(parts)}")
    kind = _PROCESS_KIND.get(parts[4])
    if kind is None:
        raise ValidationError(f"unknown process event kind {quoted(parts[4])}")
    return read_number("pid", parts[2], positive=True), check_printable("process name", parts[3]), kind


def write_frames(lines: Iterable[str]) -> Iterator[tuple | float]:
    """The check step: check event lines one at a time and yield, in frames
    of up to FRAME_LINES lines, each line's time and parsed tail, ``(times,
    tails)``, then the duration.

    Event times must not decrease and lie in [0, duration], the duration in
    [0, MAX_DURATION], set by one annotation at most, else the last event's time.  A
    violation raises a ValidationError naming its line, after a frame of the
    lines checked before it; nothing is sorted.  A line with a byte that is not
    UTF-8, as errors.open_text reads one, is refused for that byte.  A tail, the
    text after the time, is parsed to ``(is_packet, fields)`` once and kept in a
    memo of up to MAX_TAILS tails, cleared when full, so a repeated tail costs only
    the time check and is one object in its frame.  FrameStream builds the events.
    """
    duration, last, last_text, limit, line_no = None, 0.0, None, MAX_DURATION, 0
    memo: dict[tuple[str, str], tuple] = {}
    times, tails = [], []
    try:
        for line_no, raw in enumerate(lines, start=1):
            head = raw.split(None, 2)
            if not head:
                continue
            tag = head[0]
            if tag == "P" or tag == "E":
                key = (tag, head[2] if len(head) == 3 else "")
                if (tail := memo.get(key)) is None:
                    is_packet = tag == "P"
                    tail = (is_packet, (_parse_packet if is_packet else _parse_process)(raw.split()))
                    if len(memo) == MAX_TAILS:
                        memo.clear()
                    memo[key] = tail
                if head[1] != last_text:  # a repeated time passed every check already
                    ts = read_number("timestamp", head[1], float, format_time)
                    if not last <= ts <= limit:
                        check_value("timestamp", ts, bounds=(last, limit), error=ValidationError)
                    last, last_text = ts, head[1]
                if len(times) == FRAME_LINES:
                    yield times, tails
                    times, tails = [], []
                times.append(last)
                tails.append(tail)
            elif tag[0] == "#":
                if why := not_utf8(raw):  # every other line that holds such a byte is refused
                    raise ValidationError(why)
                if raw.strip().startswith(_DURATION_PREFIX):
                    if duration is not None:
                        raise ValidationError("second duration annotation")
                    text = raw.partition("=")[2].strip()
                    try:
                        duration = float(text)
                    except ValueError:
                        raise ValidationError("bad duration annotation") from None
                    check_value("duration", duration, bounds=(last, MAX_DURATION), error=ValidationError)
                    if text != repr(duration) and text != format_time(duration):
                        raise ValidationError("bad duration annotation")
                    limit = duration
            else:
                raise ValidationError(f"unknown record tag {quoted(tag)}")
    except Exception as exc:
        yield times, tails
        if isinstance(exc, ValidationError):  # raised without its line; a byte that is not UTF-8 first
            raise ValidationError(f"line {line_no}: {not_utf8(raw) or exc}") from None
        raise
    yield times, tails
    yield last if duration is None else duration


class FrameStream:
    """The build step, read like an EventStream: ``events`` builds the events
    of the frames that ``receive()`` returns, in file order, each from its
    time and parsed tail with no parse of its own.  The frames are read once;
    ``duration`` holds the file's once those events are exhausted."""

    def __init__(self, receive):
        self.receive = receive
        self.duration = 0.0

    @property
    def events(self) -> Iterator[PacketEvent | ProcessEvent]:
        makers = (ProcessEvent, PacketEvent)
        while type(frame := self.receive()) is tuple:
            for ts, (is_packet, fields) in zip(*frame):
                yield makers[is_packet](ts, *fields)
        self.duration = frame


def parse_stream(text: str) -> EventStream:
    """Parse event-file text into an EventStream; every rule of write_frames applies."""
    # newline=None ends lines where a file opened in text mode does, as `run` reads them.
    frames = FrameStream(write_frames(io.StringIO(text, newline=None)).__next__)
    return EventStream(list(frames.events), frames.duration)


def load_stream(path) -> EventStream:
    with open_text(path) as fh:
        return parse_stream(fh.read())


def write_stream(stream: EventStream, fh) -> tuple[int, int]:
    """Write a stream's event file to an open text file line by line, never
    holding its whole text; return the numbers of packet and process events written."""
    fh.write(f"{_DURATION_PREFIX}{stream.duration!r}\n")
    packets = count = 0
    for count, event in enumerate(stream.events, 1):
        packet = type(event) is PacketEvent
        fh.write(_packet_line(event) if packet else _process_line(event))
        packets += packet
    return packets, count - packets


@contextmanager
def replacing(path, newline=None):
    """Yield ``<path>.part`` open for writing and rename it to ``path`` when the block
    ends; on any error remove it, so a failed command leaves no partial or changed file.
    A directory at ``path`` fails here, before ``<path>.part`` opens and the work starts."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with suppress(OSError):
            os.remove(part)
        raise


def save_stream(stream: EventStream, path) -> tuple[int, int]:
    with replacing(path) as fh:
        return write_stream(stream, fh)


def iter_buckets(stream) -> Iterator[TickBucket]:
    """Yield one TickBucket per whole virtual second of a stream's time-ordered
    events, in order: of an EventStream, a generated stream or a FrameStream.

    Every event lands in the bucket of its floored timestamp; seconds without
    events get empty buckets, up to ``stream.duration`` read once the events
    are exhausted.  A final partial second is a whole bucket, and an event
    exactly on an integral duration gets a bucket of its own.
    """
    bucket = TickBucket(0)
    for event in stream.events:
        if event.timestamp >= bucket.second + 1:
            yield bucket
            second = math.floor(event.timestamp)
            yield from map(TickBucket, range(bucket.second + 1, second))
            bucket = TickBucket(second)
        (bucket.packet_events if type(event) is PacketEvent else bucket.process_events).append(event)
    end = math.ceil(stream.duration)
    if bucket.second < end or bucket.packet_events or bucket.process_events:
        yield bucket
    yield from map(TickBucket, range(bucket.second + 1, end))
