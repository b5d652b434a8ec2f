"""Event model, text serialization and one-second replay bucketing.

An event file is UTF-8 text with one record per line:

    P <timestamp> <sent|recv> <tcp|udp|icmp|other> <flags-csv-or-"-"> <size> [<icmp-type>]
    E <timestamp> <pid> <name> <syscall|login|logout>

Lines beginning with ``#`` are comments.  The serializer writes one
annotation comment, ``# duration=<seconds>``, so that a stream whose
duration extends past its last event survives a round trip; parsers that
ignore comments still read the same events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import StreamParseError, ValidationError

DIRECTIONS = ("sent", "recv")
PROTOCOLS = ("tcp", "udp", "icmp", "other")
TCP_FLAGS = ("syn", "ack", "rst", "fin")
ICMP_TYPES = ("dest_unreachable", "echo_request", "echo_reply", "time_exceeded", "other")
PROCESS_KINDS = ("syscall", "login", "logout")

MIN_PACKET_SIZE = 20

_DURATION_PREFIX = "# duration="


@dataclass(frozen=True, slots=True)
class PacketEvent:
    """One packet seen on the wire, in either direction."""

    timestamp: float
    direction: str
    protocol: str
    tcp_flags: frozenset[str] | None = None
    size_bytes: int = MIN_PACKET_SIZE
    icmp_type: str | None = None

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValidationError(f"negative timestamp {self.timestamp}")
        if self.direction not in DIRECTIONS:
            raise ValidationError(f"unknown direction {self.direction!r}")
        if self.protocol not in PROTOCOLS:
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if (self.tcp_flags is not None) != (self.protocol == "tcp"):
            raise ValidationError("tcp_flags must be present exactly when protocol is tcp")
        if self.tcp_flags is not None and not set(self.tcp_flags) <= set(TCP_FLAGS):
            raise ValidationError(f"unknown tcp flags {sorted(self.tcp_flags)}")
        if (self.icmp_type is not None) != (self.protocol == "icmp"):
            raise ValidationError("icmp_type must be present exactly when protocol is icmp")
        if self.icmp_type is not None and self.icmp_type not in ICMP_TYPES:
            raise ValidationError(f"unknown icmp type {self.icmp_type!r}")
        if self.size_bytes < MIN_PACKET_SIZE:
            raise ValidationError(f"size {self.size_bytes} below minimum {MIN_PACKET_SIZE}")


@dataclass(frozen=True, slots=True)
class ProcessEvent:
    """One monitored process action: a system call or a remote root login/logout."""

    timestamp: float
    pid: int
    process_name: str
    kind: str

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValidationError(f"negative timestamp {self.timestamp}")
        if self.pid <= 0:
            raise ValidationError(f"pid must be positive, got {self.pid}")
        if not self.process_name or any(c.isspace() for c in self.process_name):
            raise ValidationError(f"bad process name {self.process_name!r}")
        if self.kind not in PROCESS_KINDS:
            raise ValidationError(f"unknown process event kind {self.kind!r}")


@dataclass(slots=True)
class EventStream:
    """All events of one monitoring session, each list sorted by timestamp."""

    packet_events: list[PacketEvent] = field(default_factory=list)
    process_events: list[ProcessEvent] = field(default_factory=list)
    duration: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValidationError(f"negative duration {self.duration}")
        for seq in (self.packet_events, self.process_events):
            last = -math.inf
            for ev in seq:
                if ev.timestamp < last:
                    raise ValidationError("events are not sorted by timestamp")
                last = ev.timestamp
                if ev.timestamp > self.duration:
                    raise ValidationError(
                        f"event at {ev.timestamp} exceeds stream duration {self.duration}"
                    )

    @property
    def event_count(self) -> int:
        return len(self.packet_events) + len(self.process_events)


@dataclass(slots=True)
class TickBucket:
    """Events of one whole virtual second; ``second`` is the bucket index."""

    second: int
    packet_events: list[PacketEvent] = field(default_factory=list)
    process_events: list[ProcessEvent] = field(default_factory=list)


def format_time(t: float) -> str:
    """Shortest text of a time: integral values without a trailing ``.0``."""
    return repr(t) if t != int(t) else str(int(t))


def _packet_line(p: PacketEvent) -> str:
    if p.tcp_flags:
        flags = ",".join(f for f in TCP_FLAGS if f in p.tcp_flags)
    else:
        flags = "-"
    tail = f" {p.icmp_type}" if p.icmp_type is not None else ""
    return f"P {format_time(p.timestamp)} {p.direction} {p.protocol} {flags} {p.size_bytes}{tail}"


def _process_line(e: ProcessEvent) -> str:
    return f"E {format_time(e.timestamp)} {e.pid} {e.process_name} {e.kind}"


def serialize_stream(stream: EventStream) -> str:
    """Render a stream as event-file text.  Inverse of parse_stream."""
    lines = [f"{_DURATION_PREFIX}{stream.duration!r}"]
    merged: list[tuple[float, str]] = [(p.timestamp, _packet_line(p)) for p in stream.packet_events]
    merged += [(e.timestamp, _process_line(e)) for e in stream.process_events]
    merged.sort(key=lambda pair: pair[0])
    lines.extend(text for _, text in merged)
    return "\n".join(lines) + "\n"


def _parse_packet(parts: list[str], line_no: int) -> PacketEvent:
    if len(parts) not in (6, 7):
        raise StreamParseError(line_no, f"packet line needs 6 or 7 fields, got {len(parts)}")
    try:
        ts = float(parts[1])
        size = int(parts[5])
    except ValueError as exc:
        raise StreamParseError(line_no, f"bad numeric field: {exc}") from None
    if not math.isfinite(ts):
        raise StreamParseError(line_no, f"timestamp {ts} is not finite")
    protocol = parts[3]
    flags_text = parts[4]
    if flags_text == "-":
        flags = frozenset() if protocol == "tcp" else None
    else:
        flags = frozenset(flags_text.split(","))
    icmp_type = parts[6] if len(parts) == 7 else None
    try:
        return PacketEvent(ts, parts[2], protocol, flags, size, icmp_type)
    except ValidationError as exc:
        raise StreamParseError(line_no, str(exc)) from None


def _parse_process(parts: list[str], line_no: int) -> ProcessEvent:
    if len(parts) != 5:
        raise StreamParseError(line_no, f"process line needs 5 fields, got {len(parts)}")
    try:
        ts = float(parts[1])
        pid = int(parts[2])
    except ValueError as exc:
        raise StreamParseError(line_no, f"bad numeric field: {exc}") from None
    if not math.isfinite(ts):
        raise StreamParseError(line_no, f"timestamp {ts} is not finite")
    try:
        return ProcessEvent(ts, pid, parts[3], parts[4])
    except ValidationError as exc:
        raise StreamParseError(line_no, str(exc)) from None


def parse_stream(text: str) -> EventStream:
    """Parse event-file text into an EventStream.

    Events are sorted stably by timestamp, so records sharing a timestamp
    keep their file order.  An empty input yields an empty stream of
    duration zero.  Timestamps and the duration must be finite numbers.
    """
    packets: list[PacketEvent] = []
    procs: list[ProcessEvent] = []
    duration: float | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_DURATION_PREFIX):
                try:
                    duration = float(line[len(_DURATION_PREFIX):])
                except ValueError:
                    raise StreamParseError(line_no, "bad duration annotation") from None
                if not math.isfinite(duration):
                    raise StreamParseError(line_no, f"duration {duration} is not finite")
            continue
        parts = line.split()
        if parts[0] == "P":
            packets.append(_parse_packet(parts, line_no))
        elif parts[0] == "E":
            procs.append(_parse_process(parts, line_no))
        else:
            raise StreamParseError(line_no, f"unknown record tag {parts[0]!r}")
    packets.sort(key=lambda p: p.timestamp)
    procs.sort(key=lambda e: e.timestamp)
    if duration is None:
        last_ts = [seq[-1].timestamp for seq in (packets, procs) if seq]
        duration = max(last_ts) if last_ts else 0.0
    return EventStream(packets, procs, duration)


def load_stream(path) -> EventStream:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh.read())


def save_stream(stream: EventStream, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_stream(stream))


def bucket_count(stream: EventStream) -> int:
    """Number of one-second buckets needed to replay the stream.

    A final partial second counts as a whole bucket, and an event landing
    exactly on an integral duration still gets a bucket of its own.
    """
    n = math.ceil(stream.duration)
    last_ts = [seq[-1].timestamp for seq in (stream.packet_events, stream.process_events) if seq]
    if last_ts:
        n = max(n, math.floor(max(last_ts)) + 1)
    return n


def iter_buckets(stream: EventStream) -> Iterator[TickBucket]:
    """Yield one TickBucket per whole virtual second, in order.

    Every event lands in exactly one bucket, chosen by flooring its
    timestamp; seconds without events yield empty buckets.
    """
    n = bucket_count(stream)
    packets = stream.packet_events
    procs = stream.process_events
    pi = ei = 0
    for second in range(n):
        bucket = TickBucket(second)
        while pi < len(packets) and packets[pi].timestamp < second + 1:
            bucket.packet_events.append(packets[pi])
            pi += 1
        while ei < len(procs) and procs[ei].timestamp < second + 1:
            bucket.process_events.append(procs[ei])
            ei += 1
        yield bucket
