"""Scenario generators: scan shape, desktop traffic, dataset assembly."""

import ast
import math
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcascan import scenario
from dcascan.errors import ConfigError
from dcascan.events import (MAX_DURATION, MAX_PACKET_SIZE, PacketEvent, ProcessEvent,
                            parse_stream, serialize_stream)
from dcascan.scenario import (
    DATASET_KINDS,
    MAX_BURST,
    MAX_PROBES,
    MAX_RATE,
    NormalProfile,
    ScanProfile,
    SessionProfile,
    _burst,
    gen_dataset,
    gen_normal,
    gen_syn_scan,
    scan_salvos,
)
from reference import flatten, reference_dataset


def _scan(profile, probes, rng, start=0.0):
    """(packets, process events, salvo seconds) of one scan, drawn and made."""
    salvos = gen_syn_scan(profile, probes, rng, start)
    return (*flatten(scan_salvos(profile, salvos)), [sec for sec, _ in salvos])


def _normal(profile, duration, rng, busy_seconds=frozenset()):
    """(packets, process events) of desktop traffic."""
    return flatten(gen_normal(profile, duration, rng, busy_seconds))


# --------------------------------------------------------------------------
# single-probe scans are fully determined by the profile


def _single_probe(**kwargs):
    defaults = dict(target_count=1, hosts_up=1, relay_packets_per_salvo=0)
    defaults.update(kwargs)
    return ScanProfile(**defaults)


def test_single_probe_open_port():
    packets, procs, salvos = _scan(_single_probe(open_port_fraction=1.0), 1, random.Random(0))
    assert [p.direction for p in packets] == ["sent", "recv", "sent"]
    syn, synack, rst = packets
    assert syn.tcp_flags == frozenset(("syn",)) and syn.size_bytes == 40
    assert synack.tcp_flags == frozenset(("syn", "ack")) and synack.size_bytes == 44
    assert rst.tcp_flags == frozenset(("rst",))
    by_name = Counter(e.process_name for e in procs)
    assert by_name == {"nmap": 30, "pts": 3}  # 2 probe + 28 reply, 3 relay
    assert len(salvos) == 1


def test_single_probe_closed_port():
    packets, _, _ = _scan(_single_probe(open_port_fraction=0.0), 1, random.Random(0))
    assert len(packets) == 2
    assert packets[1].direction == "recv"
    assert packets[1].tcp_flags == frozenset(("rst", "ack"))


def test_down_hosts_answer_with_icmp_when_forced():
    # One host in twenty is up; with a certain ICMP reply every down host
    # answers, so each of the 20 probes gets exactly one response.
    prof = _single_probe(target_count=20, icmp_reply_rate=1.0)
    packets, _, _ = _scan(prof, 20, random.Random(0))
    syns = [p for p in packets if p.direction == "sent"]
    replies = [p for p in packets if p.direction == "recv"]
    assert len(syns) == 20
    assert len(replies) == 20
    icmp = [p for p in replies if p.protocol == "icmp"]
    assert icmp  # the down majority answered unreachable
    for p in icmp:
        assert p.icmp_type == "dest_unreachable"
        assert p.size_bytes == 56
    for p in replies:
        if p.protocol == "tcp":
            assert "rst" in p.tcp_flags


def test_down_hosts_stay_silent_without_icmp():
    prof = _single_probe(target_count=20, icmp_reply_rate=0.0)
    packets, _, _ = _scan(prof, 20, random.Random(0))
    assert not any(p.protocol == "icmp" for p in packets)
    assert sum(1 for p in packets if p.direction == "sent"
               and p.tcp_flags == frozenset(("syn",))) == 20


def test_probe_lands_inside_its_salvo_second():
    packets, _, salvos = _scan(_single_probe(), 1, random.Random(0))
    assert int(packets[0].timestamp) == salvos[0]
    assert packets[0].timestamp - salvos[0] == pytest.approx(0.02)


def test_scan_start_shifts_every_salvo():
    _, _, at_zero = _scan(ScanProfile(), 254 * 2, random.Random(3))
    _, _, later = _scan(ScanProfile(), 254 * 2, random.Random(3), start=100)
    assert later == [sec + 100 for sec in at_zero]


# --------------------------------------------------------------------------
# salvo pacing at full scale


def test_salvo_seconds_carry_the_scan_signature():
    """Each salvo second shows the flood: many RSTs, tcp-heavy, tiny packets."""
    packets, _, salvos = _scan(ScanProfile(), 254 * 60, random.Random(3))
    assert len(salvos) == 34  # ceil(254*60 / 450)
    assert all(b > a for a, b in zip(salvos, salvos[1:]))
    per_second = defaultdict(list)
    for p in packets:
        per_second[int(p.timestamp)].append(p)
    assert set(per_second) == set(salvos)  # nothing leaks into quiet seconds
    for sec in salvos:
        evs = per_second[sec]
        rst_recv = sum(1 for p in evs
                       if p.direction == "recv" and p.tcp_flags and "rst" in p.tcp_flags)
        tcp_ratio = sum(1 for p in evs if p.protocol == "tcp") / len(evs)
        mean_size = sum(p.size_bytes for p in evs) / len(evs)
        assert rst_recv >= 100
        assert tcp_ratio > 0.9
        assert mean_size < 50


def test_scan_profile_validation():
    with pytest.raises(ConfigError):
        ScanProfile(target_count=0)
    with pytest.raises(ConfigError):
        ScanProfile(hosts_up=0)
    with pytest.raises(ConfigError):
        ScanProfile(target_count=10, hosts_up=11)
    with pytest.raises(ConfigError):
        ScanProfile(probe_interval=0.0)
    with pytest.raises(ConfigError):
        ScanProfile(open_port_fraction=1.5)
    # fields that reach events: checked here, once, instead of on every event
    with pytest.raises(ConfigError, match=r"^relay_packet_size must lie in \[20, 65,535\], got 19$"):
        ScanProfile(relay_packet_size=19)
    with pytest.raises(ConfigError, match=r"^relay_packet_size must lie in \[20, 65,535\], got 65536$"):
        ScanProfile(relay_packet_size=MAX_PACKET_SIZE + 1)
    ScanProfile(relay_packet_size=MAX_PACKET_SIZE)


@pytest.mark.parametrize("name", ["syscalls_per_probe", "syscalls_per_reply",
                                  "relay_syscalls_per_reply", "relay_packets_per_salvo"])
def test_scan_burst_counts_are_bounded(name):
    ScanProfile(**{name: 0})
    ScanProfile(**{name: MAX_BURST})
    for value in (-1, MAX_BURST + 1):
        with pytest.raises(ConfigError, match=f"^{name} must lie in \\[0, 1,000\\], got {value}$"):
            ScanProfile(**{name: value})


def test_the_largest_burst_spans_under_a_second():
    # GeneratedStream keeps a burst that runs past its second in a lane and re-sorts that lane
    # every second it runs on; MAX_EVENTS alone would admit one of over an hour.
    burst = _burst(*scenario.SCANNER, 5.0, MAX_BURST)
    assert len(burst) == MAX_BURST
    assert burst[-1].timestamp - burst[0].timestamp < 1.0


# --------------------------------------------------------------------------
# desktop traffic


def test_normal_traffic_rate_and_size():
    prof = NormalProfile(mean_pps=30, activity_period=0, download_period=0)
    packets, _ = _normal(prof, 100, random.Random(5))
    assert abs(len(packets) - 3000) < 450  # 30 pps for 100 s
    mean_size = sum(p.size_bytes for p in packets) / len(packets)
    assert 70 <= mean_size <= 90
    assert mean_size == pytest.approx(74, abs=3)


def test_normal_zero_rate_emits_only_syscalls():
    packets, procs = _normal(NormalProfile(mean_pps=0), 50, random.Random(5))
    assert packets == []
    assert procs and all(e.kind == "syscall" for e in procs)


def test_normal_stall_flush_concentrates_syscalls():
    prof = NormalProfile(mean_pps=0)
    _, calm = _normal(prof, 60, random.Random(8))
    _, busy = _normal(prof, 60, random.Random(8), busy_seconds={20, 40})
    flushed = [e for e in busy if int(e.timestamp) in (20, 40)]
    assert len(busy) > len(calm) + 80  # two flushes of ~60 calls each
    assert len(flushed) > 80


def test_normal_profile_validation():
    with pytest.raises(ConfigError):
        NormalProfile(mean_pps=-1)
    with pytest.raises(ConfigError, match=r"^mean_packet_size must lie in \[70, 90\], got 60.0$"):
        NormalProfile(mean_packet_size=60.0)
    with pytest.raises(ConfigError):
        NormalProfile(tcp_fraction=0.7, udp_fraction=0.4)
    NormalProfile(mean_pps=0, mean_packet_size=60.0)  # size band only matters when active
    for name in ("mean_pps", "syscall_rate", "activity_pps", "download_pps",
                 "stall_flush_syscalls"):
        NormalProfile(**{name: MAX_RATE})
        for value in (-0.5, MAX_RATE + 1):
            with pytest.raises(ConfigError, match=f"{name} must lie in \\[0, 10000\\]"):
                NormalProfile(**{name: value})
    for size in (19.5, MAX_PACKET_SIZE + 0.5):
        with pytest.raises(ConfigError, match=rf"^download_size must lie in \[20, 65,535\], got {size}$"):
            NormalProfile(download_size=size)
    for name in ("tcp_fraction", "udp_fraction", "sent_fraction"):
        for value in (-0.5, 1.5):
            with pytest.raises(ConfigError, match=rf"^{name} must lie in \[0, 1\], got {value}$"):
                NormalProfile(**{name: value})
    NormalProfile(tcp_fraction=1.0, udp_fraction=0.0, sent_fraction=0.0)
    NormalProfile(tcp_fraction=0.0, udp_fraction=1.0, sent_fraction=1.0)


def test_normal_download_sizes_stay_within_the_packet_size_bound():
    prof = NormalProfile(download_size=MAX_PACKET_SIZE, download_period=1.0)
    packets, _ = _normal(prof, 60, random.Random(3))
    sizes = [p.size_bytes for p in packets]
    assert max(sizes) == MAX_PACKET_SIZE  # draws above the bound are clamped to it


# --------------------------------------------------------------------------
# dataset assembly


def test_session_profile_validation():
    for login_time in (-1.0, float("nan"), 86_400.5):
        with pytest.raises(ConfigError, match="login_time"):
            SessionProfile(login_time=login_time)
    SessionProfile(login_time=0.0)
    SessionProfile(sshd_syscall_rate=MAX_RATE)
    for rate in (-0.5, MAX_RATE + 1):
        with pytest.raises(ConfigError, match="sshd_syscall_rate must lie in"):
            SessionProfile(sshd_syscall_rate=rate)


def test_dataset_kinds_and_aliases():
    assert DATASET_KINDS == ("passive-normal", "active-normal")
    for kind in DATASET_KINDS:
        stream = gen_dataset(kind, 120, 1)
        assert stream.duration == 120.0
    for kind in ("passive_normal", "active_normal"):
        with pytest.raises(ConfigError, match="unknown dataset kind"):
            gen_dataset(kind, 120, 1)


def test_dataset_rejects_bad_arguments():
    with pytest.raises(ConfigError, match="unknown dataset kind"):
        gen_dataset("mixed", 120, 1)
    with pytest.raises(ConfigError, match="^duration must be positive, got 0$"):
        gen_dataset("passive-normal", 0, 1)
    with pytest.raises(ConfigError):
        gen_dataset("passive-normal", 100, 1, scan_start=100)
    with pytest.raises(ConfigError, match="scan_start lies outside the session"):
        gen_dataset("passive-normal", 100, 1, scan_start=-5)
    with pytest.raises(ConfigError, match="scan_duration must be positive"):
        gen_dataset("passive-normal", 100, 1, scan_duration=-50)
    with pytest.raises(ConfigError, match=r"^duration must lie in \[0, 86400\], got 86400.5$"):
        gen_dataset("passive-normal", 86_400.5, 1)
    too_wide = ScanProfile(target_count=MAX_PROBES + 1, hosts_up=1)
    with pytest.raises(ConfigError, match="exceeds 2,000,000 probes"):
        gen_dataset("passive-normal", 100, 1, scan=too_wide)
    gen_dataset("passive-normal", 100, 1, scan=too_wide, include_scan=False)
    with pytest.raises(ConfigError, match="exceeds 2,000,000 probes"):
        gen_dataset("passive-normal", 100, 1, scan=ScanProfile(probe_interval=5e-324))


def test_probe_bound_admits_the_default_scan_over_the_longest_session(monkeypatch):
    class Generated(Exception):
        pass

    def note_probes(profile, probes, rng, start):
        raise Generated(probes)

    monkeypatch.setattr(scenario, "gen_syn_scan", note_probes)
    with pytest.raises(Generated) as generated:
        gen_dataset("passive-normal", MAX_DURATION, 1)
    assert 1_400_000 < generated.value.args[0] <= MAX_PROBES


@pytest.mark.parametrize("include_scan", [True, False])
@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_event_bound_admits_every_default_session_of_the_longest_duration(
        monkeypatch, kind, include_scan):
    class Generating(Exception):
        pass

    def stop(rng, lam):
        raise Generating

    monkeypatch.setattr(scenario, "_poisson", stop)
    with pytest.raises(Generating):
        gen_dataset(kind, MAX_DURATION, 1, include_scan=include_scan)


@pytest.mark.parametrize("kind, duration, profiles", [
    ("active-normal", 3000, {"normal": NormalProfile(mean_pps=MAX_RATE)}),  # about 30M
    ("active-normal", MAX_DURATION,
     {"normal": NormalProfile(activity_pps=MAX_RATE, activity_period=10.0)}),  # about 366M
    ("passive-normal", MAX_DURATION, {"scan": ScanProfile(syscalls_per_reply=MAX_BURST)}),  # 415M
])
def test_event_bound_rejects_sessions_whose_rates_pass_one_by_one(kind, duration, profiles):
    with pytest.raises(ConfigError, match=r"^the session would hold about [\d,]+ events, above 25,000,000$"):
        gen_dataset(kind, duration, 1, **profiles)


@pytest.mark.parametrize("name, value, message", [
    ("duration", math.nan, "duration must be positive, got nan"),
    ("duration", math.inf, "duration must lie in [0, 86400], got inf"),
    ("duration", -math.inf, "duration must be positive, got -inf"),
    *(("scan_start", value, "scan_start lies outside the session")
      for value in (math.nan, math.inf, -math.inf)),
    *(("scan_duration", value, f"scan_duration must be positive and finite, got {value}")
      for value in (math.nan, math.inf, -math.inf)),
], ids=[f"{name}-{value}" for name in ("duration", "scan_start", "scan_duration")
        for value in ("nan", "inf", "-inf")])
def test_dataset_rejects_non_finite_values(name, value, message):
    kwargs = {"duration": 100.0, "scan_start": None, "scan_duration": None, name: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        gen_dataset("passive-normal", seed=1, **kwargs)


def _packets(stream):
    return [ev for ev in stream.events if type(ev) is PacketEvent]


def _procs(stream):
    return [ev for ev in stream.events if type(ev) is ProcessEvent]


def test_dataset_event_ordering_and_bounds():
    stream = gen_dataset("active-normal", 300, 6)
    times = [ev.timestamp for ev in stream.events]
    assert times == sorted(times)
    assert all(t <= 300 for t in times)
    assert _packets(stream) and _procs(stream)
    assert any(e.kind == "login" for e in _procs(stream))


@pytest.mark.parametrize("include_scan", [True, False])
@pytest.mark.parametrize("kind", DATASET_KINDS)
@settings(deadline=None, max_examples=5)
@given(seed=st.integers(0, 2**32), duration=st.floats(1, 240))
def test_dataset_events_are_in_file_order(kind, include_scan, seed, duration):
    # The order the event file is written in: by time, packets first at equal times.
    events = list(gen_dataset(kind, duration, seed, include_scan=include_scan).events)
    for before, after in zip(events, events[1:]):
        assert before.timestamp <= after.timestamp
        if before.timestamp == after.timestamp:
            assert not (type(before) is ProcessEvent and type(after) is PacketEvent)


def test_dataset_same_seed_reproduces_exactly():
    first = list(gen_dataset("active-normal", 240, 42).events)
    second = list(gen_dataset("active-normal", 240, 42).events)
    other = list(gen_dataset("active-normal", 240, 43).events)
    assert first == second
    assert first != other


def test_passive_dataset_is_dominated_by_scanner_syscalls():
    stream = gen_dataset("passive-normal", 600, 11)
    by_name = Counter(e.process_name for e in _procs(stream) if e.kind == "syscall")
    share = (by_name["nmap"] + by_name["pts"]) / sum(by_name.values())
    assert share >= 0.95
    assert by_name["sshd"] > 0  # the session shell stays faintly alive


def test_bench_scores_the_generated_scanner_labels():
    # The bench reads its detection figures by these labels without importing the package.
    run = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    tree = ast.parse(run.read_text(encoding="utf-8"))
    labels = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["SCANNER_LABELS"])
    assert labels == (scenario.SCANNER[1], scenario.PARENT[1])


def test_dataset_derives_port_count_from_window():
    # 1000 s session: scan window 857 s at 0.05 s/probe over 254 targets
    # works out to 67 ports each, hence exactly 254 * 67 first contacts.
    stream = gen_dataset("passive-normal", 1000, 4)
    syns = sum(1 for p in _packets(stream)
               if p.direction == "sent" and p.tcp_flags == frozenset(("syn",)))
    assert syns == 254 * 67


def test_dataset_without_scan_has_no_probe_flood():
    stream = gen_dataset("active-normal", 200, 9, include_scan=False)
    packets = _packets(stream)
    per_second = Counter(int(p.timestamp) for p in packets if p.direction == "sent")
    assert max(per_second.values(), default=0) < 300
    syn_only = sum(1 for p in packets if p.tcp_flags == frozenset(("syn",)))
    # ordinary handshakes only: a few percent of traffic, never a sweep
    assert syn_only / len(packets) < 0.1


def test_session_profile_defaults():
    session = SessionProfile()
    stream = gen_dataset("passive-normal", 60, 2, session=session,
                         include_scan=False)
    logins = [e for e in _procs(stream) if e.kind == "login"]
    assert len(logins) == 1
    assert logins[0].timestamp == session.login_time
    assert logins[0].process_name == "sshd"


def test_generated_packets_share_their_flag_sets():
    stream = gen_dataset("active-normal", 300, 7)
    flags = [p.tcp_flags for p in _packets(stream)]
    assert len({id(f) for f in flags if f is not None}) <= 6
    assert [p.tcp_flags for p in _packets(parse_stream(serialize_stream(stream)))] == flags


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(DATASET_KINDS), include_scan=st.booleans(),
       seed=st.integers(0, 2**32), duration=st.floats(1, 20),
       start=st.none() | st.floats(0, 0.999), scan_duration=st.none() | st.floats(0.01, 30),
       probe_interval=st.sampled_from([0.002, 0.01, 0.05]),
       salvo_rate=st.sampled_from([3.0, 450.0]),
       syscalls_per_reply=st.sampled_from([0, 28, MAX_BURST - 3, MAX_BURST]))
def test_session_matches_the_reference_built_whole(kind, include_scan, seed, duration, start,
                                                  scan_duration, probe_interval,
                                                  salvo_rate, syscalls_per_reply):
    # Small salvos at short intervals share a second; long bursts cross into the next;
    # the one port per target a short window still gets runs the scan past the session's end.
    scan = ScanProfile(target_count=8, hosts_up=2, salvo_rate=salvo_rate,
                       probe_interval=probe_interval, syscalls_per_reply=syscalls_per_reply)
    kwargs = dict(scan_start=None if start is None else start * duration,
                  scan_duration=scan_duration, scan=scan, include_scan=include_scan)
    expected = reference_dataset(kind, duration, seed, **kwargs)
    stream = gen_dataset(kind, duration, seed, **kwargs)
    assert list(stream.events) == expected.events
    assert (stream.event_count, stream.duration) == (len(expected.events), expected.duration)


@given(tenths_of_ms=st.integers(0, int((MAX_DURATION + 2) * 10_000)), reply=st.booleans(),
       relay=st.booleans(), i=st.integers(0, MAX_BURST - 1))
def test_burst_times_are_the_rounded_sums(tenths_of_ms, reply, relay, i):
    # The times the scan passes: a probe's, its reply's 4 ms later, the relay's 1 ms after that.
    t = round(tenths_of_ms / 10_000, 4)
    if reply:
        t = round(t + 0.004, 4)
    if relay:
        t += 0.001
    assert _burst(1, "x", t, i + 1)[i].timestamp == round(t + i * 0.0002, 4)


@pytest.mark.parametrize("duration", [300, 1_500])
def test_reading_a_session_holds_one_second_at_a_time(duration):
    tracemalloc.start()
    try:
        stream = gen_dataset("passive-normal", duration, 7)
        count = sum(1 for _ in stream.events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == stream.event_count > 50_000 * duration // 300
    assert peak < 4_000_000  # a whole 1,500 s session holds about 38 MB
