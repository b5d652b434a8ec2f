"""Event model, parsing, serialization and replay bucketing."""

from __future__ import annotations

import io
import marshal
import math
import os
import random
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcascan.cli import main
from dcascan.errors import ValidationError
from dcascan.events import (
    FRAME_LINES,
    MAX_DURATION,
    MAX_TAILS,
    MIN_PACKET_SIZE,
    PROCESS_KINDS,
    TCP_FLAG_SETS,
    EventStream,
    FrameStream,
    PacketEvent,
    ProcessEvent,
    TickBucket,
    format_time,
    iter_buckets,
    load_stream,
    parse_stream,
    save_stream,
    serialize_stream,
    write_frames,
)
from dcascan.scenario import DATASET_KINDS, gen_dataset


def _buckets_of(lines):
    """The buckets of an event file's lines, checked and built as ``run`` reads them."""
    return iter_buckets(FrameStream(write_frames(lines).__next__))


def test_parse_empty_input():
    stream = parse_stream("")
    assert len(stream.events) == 0
    assert stream.duration == 0.0


def test_parse_single_packet_line():
    stream = parse_stream("P 1.5 sent tcp syn 40\n")
    assert len(stream.events) == 1
    p = stream.events[0]
    assert p.timestamp == 1.5
    assert p.direction == "sent"
    assert p.protocol == "tcp"
    assert p.tcp_flags == frozenset(("syn",))
    assert p.size_bytes == 40


def test_parse_icmp_and_process_lines():
    text = "# a comment\nP 3.25 recv icmp - 56 dest_unreachable\nE 3.5 4122 nmap syscall\n"
    p, e = parse_stream(text).events
    assert p.icmp_type == "dest_unreachable"
    assert p.tcp_flags is None
    assert (e.pid, e.process_name, e.kind) == (4122, "nmap", "syscall")


def test_parsed_process_kinds_are_the_shared_constants():
    # One string per kind, not one per line: a presented event stays alive.
    text = "E 1 5 sshd login\nE 2 5 sshd syscall\nE 3 5 sshd logout\n"
    parsed = parse_stream(text).events
    streamed = [ev for b in _buckets_of(io.StringIO(text)) for ev in b.process_events]
    assert [ev.kind for ev in parsed] == ["login", "syscall", "logout"]
    for ev in parsed + streamed:
        assert ev.kind is PROCESS_KINDS[PROCESS_KINDS.index(ev.kind)]


def test_parse_reports_line_number():
    with pytest.raises(ValidationError) as err:
        parse_stream("P 1 sent tcp syn 40\nP nonsense\n")
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
    with pytest.raises(ValidationError, match=r"^line 1: \w+ must lie in \[0, 86400\], got -?(inf|nan)$"):
        parse_stream(text)


def test_parse_rejects_unknown_tag():
    with pytest.raises(ValidationError):
        parse_stream("X 1.0 what\n")


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        # the ids of the time and duration cases say what is wrong with the value
        pytest.param("P -1 sent tcp syn 40\n", 1, "timestamp must lie in [0, 86400], got -1.0",
                     id="P -1 sent tcp syn 40\n-1-timestamp -1.0 is negative"),
        ("P 1 sent udp syn 40\n", 1, "bad tcp flags 'syn' for protocol udp"),
        ("P 1 sent tcp syn 12\n", 1, "size must lie in [20, 65,535], got 12"),
        ("P 1 recv icmp - 56\n", 1, "bad icmp type None for protocol icmp"),
        ("P 1 recv udp - 60 dest_unreachable\n", 1, "bad icmp type 'dest_unreachable'"),
        ("E 1 0 nmap syscall\n", 1, "pid must be positive, got 0"),
        ("E 1 5 bad name syscall\n", 1, "process line needs 5 fields, got 6"),
        ("E 1 5 nmap forked\n", 1, "unknown process event kind 'forked'"),
        # a control character in a name used to reach the log and the terminal as it was
        ("E 1 5 a\0b syscall\n", 1, "process name 'a\\x00b' is not printable"),
        ("E 1 5 sshd syscall\nE 2 5 \x1b[2Jsshd syscall\n", 2,
         "process name '\\x1b[2Jsshd' is not printable"),
        ("P 2 sent udp - 60\nP 1 sent udp - 60\n", 2, "timestamp must lie in [2, 86400], got 1.0"),
        pytest.param("# duration=1\nP 2 sent udp - 60\n", 2, "timestamp must lie in [0, 1], got 2.0",
                     id="# duration=1\nP 2 sent udp - 60\n-2-timestamp 2.0 exceeds the duration 1"),
        ("P 1 up tcp syn 40\n", 1, "unknown direction 'up'"),
        ("P 1 sent sctp - 40\n", 1, "unknown protocol 'sctp'"),
        ("P 1 sent tcp syn,urg 40\n", 1, "bad tcp flags 'syn,urg' for protocol tcp"),
        # a flag set is spelled as the writer writes it: in TCP_FLAGS order, each flag once
        ("P 1 recv tcp ack,syn 44\n", 1, "bad tcp flags 'ack,syn' for protocol tcp"),
        ("P 1 sent tcp syn,syn 40\n", 1, "bad tcp flags 'syn,syn' for protocol tcp"),
        ("P 1 sent tcp fin,syn,ack 40\n", 1, "bad tcp flags 'fin,syn,ack' for protocol tcp"),
        ("P 1 recv icmp - 56 bogus\n", 1, "bad icmp type 'bogus'"),
        pytest.param("E 2 5 sshd login\nP 1.5 sent udp - 60\n", 2,
                     "timestamp must lie in [2, 86400], got 1.5",
                     id="E 2 5 sshd login\nP 1.5 sent udp - 60\n-2-before the earlier event at 2"),
        pytest.param("P 5 sent udp - 60\n# duration=3\n", 2, "duration must lie in [5, 86400], got 3.0",
                     id="P 5 sent udp - 60\n# duration=3\n-2-duration 3.0 is before the earlier event at 5"),
        pytest.param("# duration=-1\n", 1, "duration must lie in [0, 86400], got -1.0",
                     id="# duration=-1\n-1-duration -1.0 is negative"),
        pytest.param("# duration=1e9\nP 1 sent udp - 60\n", 1,
                     "duration must lie in [0, 86400], got 1000000000.0",
                     id="# duration=1e9\nP 1 sent udp - 60\n-1-duration 1000000000.0 exceeds the maximum 86400"),
        pytest.param("P 86400.5 sent udp - 60\n", 1, "timestamp must lie in [0, 86400], got 86400.5",
                     id="P 86400.5 sent udp - 60\n-1-timestamp 86400.5 exceeds the maximum 86400"),
        # the bounds are written as the writer writes a time
        ("P 1e-05 sent udp - 60\nP 0 sent udp - 60\n", 2, "timestamp must lie in [1e-05, 86400], got 0.0"),
        # a long field is cut to its first 40 characters and its length
        (f"P 1 {'u' * 41} udp - 60\n", 1, f"unknown direction '{'u' * 40}'... (41 characters)"),
        ("P 1 sent udp - 65536\n", 1, "size must lie in [20, 65,535], got 65536"),
        # int() and float() read these spellings; the writer never writes them
        ("P 1_0.5 sent udp - 60\n", 1, "bad numeric field: '1_0.5'"),
        ("P 1 sent udp - 1_000\n", 1, "bad numeric field: '1_000'"),
        ("E 1 5 sshd syscall\nE 11 \u0663 sshd syscall\n", 2, "bad numeric field: '\u0663'"),
        ("P \u0661\u0660 sent udp - 60\n", 1, "bad numeric field: '\u0661\u0660'"),
        ("# duration=1_000\n", 1, "bad duration annotation"),
        # nor these: every number must be spelled as the writer writes it
        ("P +1.50 sent udp - 60\n", 1, "bad numeric field: '+1.50'"),
        ("P 1 sent udp - 060\n", 1, "bad numeric field: '060'"),
        ("E 1E1 7 sshd syscall\n", 1, "bad numeric field: '1E1'"),
        ("E 1 +07 sshd syscall\n", 1, "bad numeric field: '+07'"),
        ("P -0 sent udp - 60\n", 1, "bad numeric field: '-0'"),
        ("P 1.0 sent udp - 60\n", 1, "bad numeric field: '1.0'"),
        ("# duration=+1E1\n", 1, "bad duration annotation"),
        ("# duration=1e1\n", 1, "bad duration annotation"),
        ("# duration=10.00\n", 1, "bad duration annotation"),
        ("# duration=010\n", 1, "bad duration annotation"),
        # each number's message names its field
        ("P 01 sent udp - 60\n", 1, "timestamp: bad numeric field: '01'"),
        ("P 1 sent udp - +60\n", 1, "size: bad numeric field: '+60'"),
        ("E 1 5.0 sshd syscall\n", 1, "pid: bad numeric field: '5.0'"),
        # a lone surrogate that no file's byte gives is refused by its field's rule
        ("E 1 5 ss\ud800hd syscall\n", 1, "process name 'ss\\ud800hd' is not printable"),
        ("# \ud800\nP 1 sent udp - 6\ud800\n", 2, "size: bad numeric field: '6\\ud800'"),
        # a later annotation used to lift the limit the first one set
        ("# duration=5\nE 1 7 sshd syscall\n# duration=100\nE 50 7 sshd syscall\n", 3,
         "second duration annotation"),
    ],
)
def test_parse_rejects_invalid_line(text, line_no, fragment):
    with pytest.raises(ValidationError, match=f"^line {line_no}: .*{re.escape(fragment)}"):
        parse_stream(text)


def test_parse_keeps_every_written_number_spelling():
    text = "# duration=10.5\nP 1e-05 sent udp - 60\nE 10 7 fire_f\u00f6x syscall\nP 10.5 sent udp - 60\n"
    assert serialize_stream(parse_stream(text)) == text


@pytest.mark.parametrize("time_text, fragment", [
    pytest.param("0.5", "timestamp must lie in [1, 8], got 0.5",
                 id="0.5-timestamp 0.5 is before the earlier event at 1"),
    pytest.param("9", "timestamp must lie in [1, 8], got 9.0", id="9-timestamp 9.0 exceeds the duration 8"),
    ("1_0", "timestamp: bad numeric field: '1_0'"),
    ("+1", "timestamp: bad numeric field: '+1'"),
])
def test_a_remembered_tail_still_checks_its_time(time_text, fragment):
    # Line 2 puts the tail of line 3 in the reader's memo, or a different one.
    line = f"P {time_text} sent udp - 60\n"
    errors = []
    for seen in ("P 1 sent udp - 60\n", "P 1 sent udp - 61\n"):
        with pytest.raises(ValidationError) as err:
            parse_stream("# duration=8\n" + seen + line)
        errors.append(str(err.value))
    assert errors == [f"line 3: {fragment}"] * 2


def test_reader_bounds_its_tail_memo_and_round_trips_many_tails():
    distinct = [*range(MIN_PACKET_SIZE, 5_001)]  # more tails than the memo holds
    sizes = distinct + [*range(MIN_PACKET_SIZE, 100)] * 50
    text = f"# duration={float(len(sizes))!r}\n" + "".join(
        f"P {i} sent udp - {size}\n" for i, size in enumerate(sizes))
    *frames, duration = write_frames(io.StringIO(text))
    # A frame is its lines' times and parsed tails, at most FRAME_LINES of each.
    assert [len(times) for times, _ in frames] == [FRAME_LINES, len(sizes) - FRAME_LINES]
    assert all(len(times) == len(tails) for times, tails in frames)
    tails = [tail for _, frame_tails in frames for tail in frame_tails]
    assert tails == [(True, ("sent", "udp", None, size, None)) for size in sizes]
    # The memo cleared at MAX_TAILS tails, so the first repeats are parsed anew;
    # from then on the lines of one tail text share one object.
    n = len(distinct)
    assert MAX_TAILS < n and all(a is not b for a, b in zip(tails, tails[n:n + 80]))
    assert all(tail is tails[n + (i - n) % 80] for i, tail in enumerate(tails[n:], n))
    assert duration == len(sizes)
    assert serialize_stream(parse_stream(text)) == text


_TAIL_POOL = [("sent", "udp", None, 60, None), ("recv", "tcp", frozenset(("ack",)), 40, None),
              ("recv", "icmp", None, 56, "dest_unreachable"), (5, "sshd", "syscall"),
              (3411, "nmap", "syscall"), (5, "sshd", "login")]


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.0002, 0.25, 1.0, 2.5]),
                          st.sampled_from(_TAIL_POOL)), max_size=60),
       st.sampled_from([0.0, 0.5, 3.0]))
def test_read_buckets_with_repeated_tails_matches_iter_buckets(steps, extra):
    events, t = [], 0.0
    for step, fields in steps:
        t = round(t + step, 4)
        events.append((PacketEvent if len(fields) == 5 else ProcessEvent)(t, *fields))
    stream = EventStream(events, t + extra)
    lines = serialize_stream(stream).splitlines(True)
    assert list(_buckets_of(lines)) == list(iter_buckets(stream))


def test_events_are_values_and_parsed_tails_share_their_fields():
    for make in (lambda: PacketEvent(1.5, "sent", "udp", None, 60),
                 lambda: ProcessEvent(1.5, 5, "sshd", "syscall")):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    text = "P 1 sent udp - 60\nE 1 5 sshd syscall\nP 2 sent udp - 60\nE 2 5 sshd syscall\n"
    for events in (parse_stream(text).events,
                   [ev for b in _buckets_of(io.StringIO(text))
                    for ev in b.packet_events + b.process_events]):
        p1, e1, p2, e2 = sorted(events, key=lambda ev: (ev.timestamp, type(ev) is ProcessEvent))
        assert (p1.timestamp, p2.timestamp) == (1.0, 2.0)
        assert p2.direction is p1.direction and e2.process_name is e1.process_name


def test_parse_accepts_times_at_the_bounds():
    text = "# duration=86400\nE 0 5 sshd login\nP 0 sent udp - 60\nP 86400 sent udp - 60\n"
    stream = parse_stream(text)
    assert [type(ev) for ev in stream.events] == [ProcessEvent, PacketEvent, PacketEvent]
    assert [ev.timestamp for ev in stream.events] == [0.0, 0.0, 86400.0]
    assert stream.duration == MAX_DURATION
    # without the annotation the duration is the last event's time
    assert parse_stream("P 3 sent udp - 60\nE 7.5 5 sshd syscall\n").duration == 7.5


# Words of the event format mixed with arbitrary text, so that generated
# lines reach the field checks and not only the tag check.
_WORDS = st.one_of(
    st.sampled_from(["P", "E", "#", "# duration=", "sent", "recv", "tcp", "udp", "icmp",
                     "other", "-", "syn", "syn,ack", "fin,", "dest_unreachable", "syscall",
                     "login", "nmap", "0", "-0.0", "nan", "inf", "1e9"]),
    st.floats().map(repr),
    st.integers(-3, 2000).map(str),
    st.text(max_size=4),
)
_LINE = st.one_of(st.lists(_WORDS, max_size=8).map(" ".join),
                  st.floats().map("# duration={!r}".format))
# Mostly valid event lines whose times rise with the line index.
_EVENT = st.one_of(
    st.builds(lambda direction, body, size: f"P {{t}} {direction} {body.format(size)}",
              st.sampled_from(["sent", "recv", "up"]),
              st.sampled_from(["tcp syn {}", "tcp - {}", "udp - {}", "icmp - {} dest_unreachable",
                               "udp syn {}", "icmp - {}"]),
              st.integers(10, 90)),
    st.builds("E {{t}} {} nmap {}".format, st.integers(0, 5),
              st.sampled_from(["syscall", "login", "forked"])),
)
_EVENTS = st.lists(_EVENT, max_size=4).map(
    lambda rows: "\n".join(row.format(t=i / 2) for i, row in enumerate(rows)))


@settings(deadline=None, max_examples=100)
@given(st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join),
                 st.tuples(_LINE | st.just(""), _EVENTS, _LINE | st.just("")).map("\n".join)))
def test_parse_returns_or_raises_validation_error(text):
    try:
        stream = parse_stream(text)
    except ValidationError:
        return
    times = [ev.timestamp for ev in stream.events]
    assert times == sorted(times)
    assert all(0 <= t <= stream.duration <= MAX_DURATION for t in times)


@pytest.mark.parametrize("include_scan", [True, False])
@pytest.mark.parametrize("kind", DATASET_KINDS)
@settings(deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32))
def test_generated_session_round_trips(kind, include_scan, seed):
    stream = gen_dataset(kind, 300, seed, include_scan=include_scan)
    parsed = parse_stream(serialize_stream(stream))
    assert (parsed.events, parsed.duration) == (list(stream.events), stream.duration)


def _kinds(events):
    """The packet events and the process events of ``events``, each in their order."""
    return ([ev for ev in events if type(ev) is PacketEvent],
            [ev for ev in events if type(ev) is ProcessEvent])


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
    events = packets + procs
    events.sort(key=lambda ev: ev.timestamp)
    return EventStream(events, duration)


def test_round_trip_random_streams():
    rng = random.Random(99)
    for _ in range(25):
        stream = _random_stream(rng)
        again = parse_stream(serialize_stream(stream))
        assert again.events == stream.events
        assert again.duration == stream.duration


def test_round_trip_preserves_duration_without_events():
    stream = EventStream([], 123.5)
    assert parse_stream(serialize_stream(stream)).duration == 123.5


def test_equal_timestamps_keep_original_order():
    procs = [ProcessEvent(1.0, pid, "proc", "syscall") for pid in (7, 8, 9)]
    stream = EventStream(procs, 2.0)
    again = parse_stream(serialize_stream(stream))
    assert [e.pid for e in again.events] == [7, 8, 9]


def test_bucket_boundaries_floor():
    packets = [
        PacketEvent(0.2, "sent", "udp", None, 60),
        PacketEvent(0.9, "sent", "udp", None, 60),
        PacketEvent(3.0, "sent", "udp", None, 60),
    ]
    stream = EventStream(packets, 4.0)
    buckets = list(iter_buckets(stream))
    assert len(buckets) == 4
    assert len(buckets[0].packet_events) == 2
    assert len(buckets[3].packet_events) == 1
    assert buckets[1:3] == [TickBucket(1), TickBucket(2)]


def test_bucket_count_long_stream():
    stream = EventStream([PacketEvent(6999.5, "sent", "udp", None, 60)], 7000.0)
    assert len(list(iter_buckets(stream))) == 7000


def test_event_at_integral_duration_gets_a_bucket():
    stream = EventStream([PacketEvent(5.0, "sent", "udp", None, 60)], 5.0)
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
        assert (collected_p, collected_e) == _kinds(stream.events)
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
    stream = EventStream([], 12.0)
    assert list(iter_buckets(stream)) == [TickBucket(second) for second in range(12)]


# Valid event lines: times drawn from a few integral and fractional values, so
# that equal timestamps and whole-second boundaries are common.
_TIMES = st.lists(st.sampled_from([0, 0.25, 1, 1.5, 2, 2.999, 3, 7, 7.5]), max_size=12).map(sorted)
_BODIES = st.sampled_from(["P {} sent tcp syn 40", "P {} recv udp - 60",
                           "P {} recv icmp - 56 dest_unreachable", "E {} 41 nmap syscall",
                           "E {} 7 sshd login"])


@st.composite
def _event_texts(draw):
    times = draw(_TIMES)
    lines = [draw(_BODIES).format(t) for t in times]
    header = draw(st.sampled_from(["absent", "first", "last"]))
    if header != "absent":
        line = f"# duration={max([draw(st.sampled_from([0, 7.5, 8, 12.25])), *times])!r}"
        lines = [line, *lines] if header == "first" else [*lines, line]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(deadline=None, max_examples=200)
@given(_event_texts())
def test_read_buckets_matches_iter_buckets_and_places_each_event_once(text):
    stream = parse_stream(text)
    buckets = list(_buckets_of(io.StringIO(text)))
    assert buckets == list(iter_buckets(stream))
    assert [b.second for b in buckets] == list(range(len(buckets)))
    for events, key in zip(_kinds(stream.events), ("packet_events", "process_events")):
        placed = [(b.second, ev) for b in buckets for ev in getattr(b, key)]
        assert [ev for _, ev in placed] == events
        assert all(second == math.floor(ev.timestamp) for second, ev in placed)


def _run_both_ways(text):
    """``run`` on ``text`` with a forked reader and in one process: for each,
    the exit code, stdout, stderr and the bytes of every file it wrote."""
    results = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        events = os.path.join(tmp, "events.txt")
        with open(events, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for fork in (True, False):
            if not fork:
                patch.delattr(os, "fork")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["run", events, "--seed", "3", "--out", os.path.join(tmp, "p.csv"),
                             "--signal-trace", os.path.join(tmp, "s.csv")])
            written = {}
            for name in sorted(os.listdir(tmp)):
                if name != "events.txt":
                    with open(os.path.join(tmp, name), "rb") as fh:
                        written[name] = fh.read()
                    os.remove(os.path.join(tmp, name))
            results.append((code, out.getvalue(), err.getvalue(), written))
    return results


@settings(deadline=None, max_examples=50)
@given(_event_texts())
def test_run_with_and_without_fork_agree(text):
    forked, in_process = _run_both_ways(text)
    assert forked == in_process


@settings(deadline=None, max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_event_texts(), ending=st.sampled_from(["\n", "\r\n", "\r"]), data=st.data())
def test_run_names_the_line_of_a_byte_that_is_not_utf8(fork, text, ending, data):
    lines = text.split("\n")
    line_no = data.draw(st.integers(1, len(lines)))
    at = data.draw(st.integers(0, len(lines[line_no - 1])))
    lines[line_no - 1] = lines[line_no - 1][:at] + "\udcff" + lines[line_no - 1][at:]
    with tempfile.TemporaryDirectory() as tmp:
        events = os.path.join(tmp, "events.txt")
        with open(events, "wb") as fh:
            fh.write(ending.join(lines).encode("utf-8", "surrogateescape"))  # "\udcff" as byte 0xff
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", events, "--seed", "1", "--out", os.path.join(tmp, "p.csv")])
    assert (code, err.getvalue()) == (2, f"error: line {line_no}: byte 0xff is not UTF-8 (invalid start byte)\n")


def _framed(lines):
    """The buckets of _buckets_of, with every object that write_frames yields
    passed through marshal, as the pipe of a forked reader passes it."""
    frames = map(marshal.loads, map(marshal.dumps, write_frames(lines)))
    return iter_buckets(FrameStream(frames.__next__))


def test_frames_round_trip_marshal_across_a_memo_clear():
    # The tails of lines 1 to MAX_TAILS fill the memo, which clears; the lines
    # after them, some repeating earlier tails, are parsed anew, all inside the first frame.
    pids = [*range(1, MAX_TAILS + 1001), *range(1, 1001), *range(MAX_TAILS, MAX_TAILS + 20)]
    text = "".join(f"E {format_time(i / 100)} {pid} sshd syscall\n" for i, pid in enumerate(pids))
    events = [ProcessEvent(i / 100, pid, "sshd", "syscall") for i, pid in enumerate(pids)]
    stream = EventStream(events, events[-1].timestamp)
    assert list(_framed(io.StringIO(text))) == list(iter_buckets(stream))


def test_a_marshalled_frame_keeps_one_object_per_repeated_tail():
    text = ("P 0 sent udp - 60\nE 0.5 5 sshd syscall\nP 1 sent udp - 60\n"
            "E 2 5 sshd syscall\nP 2 recv tcp ack 40\n")
    frame, duration = write_frames(io.StringIO(text))
    times, tails = marshal.loads(marshal.dumps(frame))  # as the pipe of a forked reader passes it
    assert times == [0.0, 0.5, 1.0, 2.0, 2.0]
    assert tails[0] is tails[2] and tails[1] is tails[3] and len(set(map(id, tails))) == 3
    built = iter_buckets(FrameStream(iter([(times, tails), duration]).__next__))
    assert list(built) == list(iter_buckets(parse_stream(text)))


def test_read_buckets_yields_before_reading_the_whole_file():
    handed_out = 0

    def lines():
        nonlocal handed_out
        for second in range(3 * FRAME_LINES):
            handed_out += 1
            yield f"P {second}.5 sent udp - 60\n"

    first = next(_buckets_of(lines()))
    assert first == TickBucket(0, [PacketEvent(0.5, "sent", "udp", None, 60)])
    assert handed_out <= FRAME_LINES + 1  # one frame held, never the whole file


@pytest.mark.parametrize("text, events", [
    ("P 1 sent udp - 60\r\nP 2 sent udp - 60\rE 3 5 sshd syscall", 3),
    # other str.splitlines separators do not end a line: one 12-field line
    ("P 1 sent udp - 60\x85P 2 sent udp - 60", None),
    ("P 1 sent udp - 60\u2028P 2 sent udp - 60", None),
])
def test_both_readers_end_lines_where_a_text_file_does(tmp_path, text, events):
    path = tmp_path / "events.txt"
    path.write_bytes(text.encode("utf-8"))
    if events is None:
        with pytest.raises(ValidationError, match="^line 1: packet line needs 6 or 7 fields"):
            parse_stream(text)
        with pytest.raises(ValidationError, match="^line 1: packet line needs 6 or 7 fields"):
            with open(path, encoding="utf-8") as fh:
                list(_buckets_of(fh))
        return
    stream = parse_stream(text)
    assert len(stream.events) == events
    with open(path, encoding="utf-8") as fh:
        assert list(_buckets_of(fh)) == list(iter_buckets(stream))


def test_load_stream_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # load_stream used to let the UnicodeDecodeError of its whole-file read out
    path = tmp_path / "events.txt"
    path.write_bytes(b"# duration=3.0\nP 1 sent udp - 60\nE 2 5 ab\xff syscall\n")
    with pytest.raises(ValidationError) as info:
        load_stream(path)
    assert str(info.value) == "line 3: byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("include_scan", [True, False])
@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_saved_file_holds_the_serialized_text(tmp_path, kind, include_scan):
    stream = gen_dataset(kind, 300, 7, include_scan=include_scan)
    path = tmp_path / "events.txt"
    save_stream(stream, path)
    assert path.read_bytes() == serialize_stream(stream).encode("utf-8")


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_save_stream_writes_line_by_line(tmp_path, kind):
    stream = gen_dataset(kind, 300, 7)
    path = tmp_path / "events.txt"
    tracemalloc.start()
    try:
        save_stream(stream, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Building the whole text first peaked at about 7x the file's size.
    assert peak < 1.5 * path.stat().st_size


def test_both_readers_share_one_set_per_flag_text(tmp_path):
    text = ("P 1 sent tcp syn,ack 44\nP 2 recv tcp syn,ack 44\nP 3 sent tcp syn,ack 44\n"
            "P 4 sent tcp - 40\nP 5 recv tcp - 40\n")
    path = tmp_path / "events.txt"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        streamed = [p for b in _buckets_of(fh) for p in b.packet_events]
    parsed = parse_stream(text).events
    flags = [p.tcp_flags for p in parsed + streamed]
    assert flags[:5] == [frozenset(("syn", "ack"))] * 3 + [frozenset()] * 2
    assert len({id(f) for f in flags[:3] + flags[5:8]}) == 1
    assert len({id(f) for f in flags[3:5] + flags[8:]}) == 1


def test_every_tcp_flag_set_is_written_as_its_text_and_read_back_as_its_set():
    assert len(TCP_FLAG_SETS) == 16
    for text, flags in TCP_FLAG_SETS.items():
        written = serialize_stream(EventStream([PacketEvent(1.0, "sent", "tcp", flags, 40)], 1.0))
        assert written.splitlines()[1] == f"P 1 sent tcp {text} 40"
        assert parse_stream(written).events[0].tcp_flags is flags
    # A set the format cannot spell fails at write, not as a line the reader rejects.
    with pytest.raises(KeyError):
        serialize_stream(EventStream([PacketEvent(1.0, "sent", "tcp", frozenset({"urg"}))], 1.0))
