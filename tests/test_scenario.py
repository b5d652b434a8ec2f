"""Scenario generators: scan shape, desktop traffic, dataset assembly."""

import random
from collections import Counter, defaultdict

import pytest

from dcascan.errors import ConfigError
from dcascan.scenario import (
    DATASET_KINDS,
    NormalProfile,
    ScanProfile,
    SessionProfile,
    gen_dataset,
    gen_normal,
    gen_syn_scan,
)


# --------------------------------------------------------------------------
# single-probe scans are fully determined by the profile


def _single_probe(**kwargs):
    defaults = dict(target_count=1, hosts_up=1, ports_per_host=1,
                    relay_packets_per_salvo=0)
    defaults.update(kwargs)
    return ScanProfile(**defaults)


def test_single_probe_open_port():
    packets, procs, salvos = gen_syn_scan(_single_probe(open_port_fraction=1.0),
                                          random.Random(0))
    assert [p.direction for p in packets] == ["sent", "recv", "sent"]
    syn, synack, rst = packets
    assert syn.tcp_flags == frozenset(("syn",)) and syn.size_bytes == 40
    assert synack.tcp_flags == frozenset(("syn", "ack")) and synack.size_bytes == 44
    assert rst.tcp_flags == frozenset(("rst",))
    by_name = Counter(e.process_name for e in procs)
    assert by_name == {"nmap": 30, "pts": 3}  # 2 probe + 28 reply, 3 relay
    assert len(salvos) == 1


def test_single_probe_closed_port():
    packets, _, _ = gen_syn_scan(_single_probe(open_port_fraction=0.0),
                                 random.Random(0))
    assert len(packets) == 2
    assert packets[1].direction == "recv"
    assert packets[1].tcp_flags == frozenset(("rst", "ack"))


def test_down_hosts_answer_with_icmp_when_forced():
    # One host in twenty is up; with a certain ICMP reply every down host
    # answers, so each of the 20 probes gets exactly one response.
    prof = _single_probe(target_count=20, icmp_reply_rate=1.0)
    packets, _, _ = gen_syn_scan(prof, random.Random(0))
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
    packets, _, _ = gen_syn_scan(prof, random.Random(0))
    assert not any(p.protocol == "icmp" for p in packets)
    assert sum(1 for p in packets if p.direction == "sent"
               and p.tcp_flags == frozenset(("syn",))) == 20


def test_probe_lands_inside_its_salvo_second():
    packets, _, salvos = gen_syn_scan(_single_probe(), random.Random(0))
    assert int(packets[0].timestamp) == salvos[0]
    assert packets[0].timestamp - salvos[0] == pytest.approx(0.02)


def test_gen_scan_requires_ports_per_host():
    with pytest.raises(ConfigError, match="ports_per_host"):
        gen_syn_scan(ScanProfile(), random.Random(0))


# --------------------------------------------------------------------------
# salvo pacing at full scale


def test_salvo_seconds_carry_the_scan_signature():
    """Each salvo second shows the flood: many RSTs, tcp-heavy, tiny packets."""
    packets, _, salvos = gen_syn_scan(ScanProfile(ports_per_host=60), random.Random(3))
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


# --------------------------------------------------------------------------
# desktop traffic


def test_normal_traffic_rate_and_size():
    prof = NormalProfile(mean_pps=30, activity_period=0, download_period=0)
    packets, _ = gen_normal(prof, 100, random.Random(5))
    assert abs(len(packets) - 3000) < 450  # 30 pps for 100 s
    mean_size = sum(p.size_bytes for p in packets) / len(packets)
    assert 70 <= mean_size <= 90
    assert mean_size == pytest.approx(74, abs=3)


def test_normal_zero_rate_emits_only_syscalls():
    packets, procs = gen_normal(NormalProfile(mean_pps=0), 50, random.Random(5))
    assert packets == []
    assert procs and all(e.kind == "syscall" for e in procs)


def test_normal_stall_flush_concentrates_syscalls():
    prof = NormalProfile(mean_pps=0)
    _, calm = gen_normal(prof, 60, random.Random(8))
    _, busy = gen_normal(prof, 60, random.Random(8), busy_seconds={20, 40})
    flushed = [e for e in busy if int(e.timestamp) in (20, 40)]
    assert len(busy) > len(calm) + 80  # two flushes of ~60 calls each
    assert len(flushed) > 80


def test_normal_profile_validation():
    with pytest.raises(ConfigError):
        NormalProfile(mean_pps=-1)
    with pytest.raises(ConfigError):
        NormalProfile(mean_packet_size=60.0)
    with pytest.raises(ConfigError):
        NormalProfile(tcp_fraction=0.7, udp_fraction=0.4)
    NormalProfile(mean_pps=0, mean_packet_size=60.0)  # size band only matters when active


# --------------------------------------------------------------------------
# dataset assembly


def test_dataset_kinds_and_aliases():
    assert DATASET_KINDS == ("passive-normal", "active-normal")
    for kind in DATASET_KINDS:
        stream = gen_dataset(kind, 120, 1)
        assert stream.duration == 120.0
    hyphen = gen_dataset("active-normal", 120, 1)
    assert hyphen == gen_dataset("active_normal", 120, 1)


def test_dataset_rejects_bad_arguments():
    with pytest.raises(ConfigError, match="unknown dataset kind"):
        gen_dataset("mixed", 120, 1)
    with pytest.raises(ConfigError):
        gen_dataset("passive_normal", 0, 1)
    with pytest.raises(ConfigError):
        gen_dataset("passive_normal", 100, 1, scan_start=100)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["duration", "scan_start", "scan_duration"])
def test_dataset_rejects_non_finite_values(name, value):
    kwargs = {"duration": 100.0, "scan_start": None, "scan_duration": None, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        gen_dataset("passive-normal", seed=1, **kwargs)


def test_dataset_event_ordering_and_bounds():
    stream = gen_dataset("active_normal", 300, 6)
    times = [p.timestamp for p in stream.packet_events]
    assert times == sorted(times)
    assert all(t <= 300 for t in times)
    proc_times = [e.timestamp for e in stream.process_events]
    assert proc_times == sorted(proc_times)
    assert all(t <= 300 for t in proc_times)
    assert any(e.kind == "login" for e in stream.process_events)


def test_dataset_same_seed_reproduces_exactly():
    first = gen_dataset("active_normal", 240, 42)
    second = gen_dataset("active_normal", 240, 42)
    other = gen_dataset("active_normal", 240, 43)
    assert first == second
    assert first != other


def test_passive_dataset_is_dominated_by_scanner_syscalls():
    stream = gen_dataset("passive_normal", 600, 11)
    by_name = Counter(e.process_name for e in stream.process_events
                      if e.kind == "syscall")
    share = (by_name["nmap"] + by_name["pts"]) / sum(by_name.values())
    assert share >= 0.95
    assert by_name["sshd"] > 0  # the session shell stays faintly alive


def test_dataset_derives_port_count_from_window():
    # 1000 s session: scan window 857 s at 0.05 s/probe over 254 targets
    # works out to 67 ports each, hence exactly 254 * 67 first contacts.
    stream = gen_dataset("passive_normal", 1000, 4)
    syns = sum(1 for p in stream.packet_events
               if p.direction == "sent" and p.tcp_flags == frozenset(("syn",)))
    assert syns == 254 * 67


def test_dataset_without_scan_has_no_probe_flood():
    stream = gen_dataset("active_normal", 200, 9, include_scan=False)
    per_second = Counter(int(p.timestamp) for p in stream.packet_events
                         if p.direction == "sent")
    assert max(per_second.values(), default=0) < 300
    syn_only = sum(1 for p in stream.packet_events
                   if p.tcp_flags == frozenset(("syn",)))
    # ordinary handshakes only: a few percent of traffic, never a sweep
    assert syn_only / len(stream.packet_events) < 0.1


def test_session_profile_defaults():
    session = SessionProfile()
    stream = gen_dataset("passive_normal", 60, 2, session=session,
                         include_scan=False)
    logins = [e for e in stream.process_events if e.kind == "login"]
    assert len(logins) == 1
    assert logins[0].timestamp == session.login_time
    assert logins[0].process_name == "sshd"
