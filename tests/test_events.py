"""Event model, parsing, serialization and replay bucketing."""

from __future__ import annotations

import math
import random

import pytest

from dcascan.errors import StreamParseError, ValidationError
from dcascan.events import (
    EventStream,
    PacketEvent,
    ProcessEvent,
    TickBucket,
    bucket_count,
    iter_buckets,
    parse_stream,
    serialize_stream,
)


def test_parse_empty_input():
    stream = parse_stream("")
    assert stream.event_count == 0
    assert stream.duration == 0.0


def test_parse_single_packet_line():
    stream = parse_stream("P 1.5 sent tcp syn 40\n")
    assert len(stream.packet_events) == 1
    p = stream.packet_events[0]
    assert p.timestamp == 1.5
    assert p.direction == "sent"
    assert p.protocol == "tcp"
    assert p.tcp_flags == frozenset(("syn",))
    assert p.size_bytes == 40


def test_parse_icmp_and_process_lines():
    text = "# a comment\nP 3.25 recv icmp - 56 dest_unreachable\nE 3.5 4122 nmap syscall\n"
    stream = parse_stream(text)
    assert stream.packet_events[0].icmp_type == "dest_unreachable"
    assert stream.packet_events[0].tcp_flags is None
    e = stream.process_events[0]
    assert (e.pid, e.process_name, e.kind) == (4122, "nmap", "syscall")


def test_parse_reports_line_number():
    with pytest.raises(StreamParseError) as err:
        parse_stream("P 1.0 sent tcp syn 40\nP nonsense\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "P inf sent tcp syn 40\n",
        "E -inf 5 nmap syscall\n",
        "# duration=nan\n",
    ],
)
def test_parse_rejects_non_finite_times(text):
    with pytest.raises(StreamParseError, match="line 1: .* is not finite"):
        parse_stream(text)


def test_parse_rejects_unknown_tag():
    with pytest.raises(StreamParseError):
        parse_stream("X 1.0 what\n")


def test_packet_validation():
    with pytest.raises(ValidationError):
        PacketEvent(-1.0, "sent", "tcp", frozenset(("syn",)), 40)
    with pytest.raises(ValidationError):
        PacketEvent(1.0, "sent", "udp", frozenset(("syn",)), 40)  # flags on non-tcp
    with pytest.raises(ValidationError):
        PacketEvent(1.0, "sent", "tcp", None, 40)  # tcp without flags
    with pytest.raises(ValidationError):
        PacketEvent(1.0, "sent", "tcp", frozenset(("syn",)), 12)  # below minimum size
    with pytest.raises(ValidationError):
        PacketEvent(1.0, "recv", "icmp", None, 56)  # icmp needs a type
    with pytest.raises(ValidationError):
        PacketEvent(1.0, "recv", "udp", None, 60, "dest_unreachable")


def test_process_validation():
    with pytest.raises(ValidationError):
        ProcessEvent(1.0, 0, "nmap", "syscall")
    with pytest.raises(ValidationError):
        ProcessEvent(1.0, 5, "bad name", "syscall")
    with pytest.raises(ValidationError):
        ProcessEvent(1.0, 5, "nmap", "forked")


def test_stream_rejects_unsorted_and_overlong():
    a = PacketEvent(2.0, "sent", "udp", None, 60)
    b = PacketEvent(1.0, "sent", "udp", None, 60)
    with pytest.raises(ValidationError):
        EventStream([a, b], [], 5.0)
    with pytest.raises(ValidationError):
        EventStream([a], [], 1.0)


def _random_stream(rng: random.Random, duration: float = 30.0) -> EventStream:
    packets = []
    procs = []
    for _ in range(rng.randrange(0, 120)):
        t = round(rng.uniform(0, duration), 4)
        proto = rng.choice(("tcp", "udp", "icmp", "other"))
        flags = frozenset(rng.sample(("syn", "ack", "rst", "fin"), rng.randrange(1, 3))) \
            if proto == "tcp" else None
        icmp = rng.choice(("dest_unreachable", "echo_request")) if proto == "icmp" else None
        packets.append(PacketEvent(t, rng.choice(("sent", "recv")), proto, flags,
                                   rng.randrange(20, 1500), icmp))
    for _ in range(rng.randrange(0, 80)):
        procs.append(ProcessEvent(round(rng.uniform(0, duration), 4),
                                  rng.randrange(1, 5000), "proc", "syscall"))
    packets.sort(key=lambda p: p.timestamp)
    procs.sort(key=lambda e: e.timestamp)
    return EventStream(packets, procs, duration)


def test_round_trip_random_streams():
    rng = random.Random(99)
    for _ in range(25):
        stream = _random_stream(rng)
        again = parse_stream(serialize_stream(stream))
        assert again.packet_events == stream.packet_events
        assert again.process_events == stream.process_events
        assert again.duration == stream.duration


def test_round_trip_preserves_duration_without_events():
    stream = EventStream([], [], 123.5)
    assert parse_stream(serialize_stream(stream)).duration == 123.5


def test_equal_timestamps_keep_original_order():
    procs = [ProcessEvent(1.0, pid, "proc", "syscall") for pid in (7, 8, 9)]
    stream = EventStream([], procs, 2.0)
    again = parse_stream(serialize_stream(stream))
    assert [e.pid for e in again.process_events] == [7, 8, 9]


def test_bucket_boundaries_floor():
    packets = [
        PacketEvent(0.2, "sent", "udp", None, 60),
        PacketEvent(0.9, "sent", "udp", None, 60),
        PacketEvent(3.0, "sent", "udp", None, 60),
    ]
    stream = EventStream(packets, [], 4.0)
    buckets = list(iter_buckets(stream))
    assert len(buckets) == 4
    assert len(buckets[0].packet_events) == 2
    assert len(buckets[3].packet_events) == 1
    assert buckets[1:3] == [TickBucket(1), TickBucket(2)]


def test_bucket_count_long_stream():
    stream = EventStream([PacketEvent(6999.5, "sent", "udp", None, 60)], [], 7000.0)
    assert bucket_count(stream) == 7000


def test_event_at_integral_duration_gets_a_bucket():
    stream = EventStream([PacketEvent(5.0, "sent", "udp", None, 60)], [], 5.0)
    buckets = list(iter_buckets(stream))
    assert len(buckets) == 6
    assert len(buckets[5].packet_events) == 1


def test_bucket_partition_property():
    rng = random.Random(4242)
    for _ in range(20):
        stream = _random_stream(rng, duration=rng.uniform(5, 40))
        buckets = list(iter_buckets(stream))
        assert len(buckets) == math.ceil(stream.duration)
        collected_p = [p for b in buckets for p in b.packet_events]
        collected_e = [e for b in buckets for e in b.process_events]
        assert collected_p == stream.packet_events
        assert collected_e == stream.process_events
        for b in buckets:
            for p in b.packet_events:
                assert math.floor(p.timestamp) == b.second or (
                    p.timestamp == stream.duration and b.second == len(buckets) - 1)


def test_replay_is_pure():
    rng = random.Random(7)
    stream = _random_stream(rng)
    first = list(iter_buckets(stream))
    second = list(iter_buckets(stream))
    assert [b.packet_events for b in first] == [b.packet_events for b in second]
    assert [b.process_events for b in first] == [b.process_events for b in second]


def test_replay_handler_called_once_per_second():
    stream = EventStream([], [], 12.0)
    assert list(iter_buckets(stream)) == [TickBucket(second) for second in range(12)]
