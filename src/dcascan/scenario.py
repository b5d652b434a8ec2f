"""Synthetic scenario generation: SYN scans, desktop traffic, full datasets.

The scanner works through its target list in one-second salvos.  Within a
salvo probes go out at ``salvo_rate`` per second; salvos are spaced so the
long-run pace still matches ``probe_interval`` per probe.  Replies from
up hosts trigger bursts of bookkeeping system calls in the scanner and
output-relay activity in its parent terminal, which is where most of the
antigen volume comes from.

Desktop traffic is a smooth base rate with occasional activity bursts and
rare large downloads.  When the machine is saturated by a salvo, the
desktop processes stall and their queued system calls flush within that
same second; passing the salvo seconds via ``busy_seconds`` reproduces
that coupling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .errors import ConfigError
from .events import EventStream, PacketEvent, ProcessEvent

DATASET_KINDS = ("passive-normal", "active-normal")

# Fractions of the session given to lead-in quiet time and to the scan
# when no explicit window is requested.
_DEFAULT_SCAN_START_FRAC = 0.093
_DEFAULT_SCAN_LEN_FRAC = 0.857


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > 30:
        return max(0, round(rng.gauss(lam, math.sqrt(lam))))
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


@dataclass(frozen=True)
class ScanProfile:
    """Shape of the synthetic SYN scan."""

    start_time: float = 0.0
    target_count: int = 254
    hosts_up: int = 70
    ports_per_host: int | None = None
    probe_interval: float = 0.05
    scanner_pid: int = 3411
    scanner_label: str = "nmap"
    parent_pid: int = 3402
    parent_label: str = "pts"
    open_port_fraction: float = 0.02
    icmp_reply_rate: float = 0.05
    salvo_rate: float = 450.0
    syscalls_per_probe: int = 2
    syscalls_per_reply: int = 28
    relay_syscalls_per_reply: int = 3
    relay_packets_per_salvo: int = 30
    relay_packet_size: int = 150

    def __post_init__(self):
        if self.start_time < 0:
            raise ConfigError("scan start_time must be non-negative")
        if self.target_count <= 0:
            raise ConfigError("target_count must be positive")
        if not 0 < self.hosts_up <= self.target_count:
            raise ConfigError("hosts_up must be in [1, target_count]")
        if self.ports_per_host is not None and self.ports_per_host <= 0:
            raise ConfigError("ports_per_host must be positive")
        if self.probe_interval <= 0:
            raise ConfigError("probe_interval must be positive")
        if self.salvo_rate <= 0:
            raise ConfigError("salvo_rate must be positive")
        if not 0 <= self.open_port_fraction <= 1 or not 0 <= self.icmp_reply_rate <= 1:
            raise ConfigError("fractions must be in [0, 1]")


@dataclass(frozen=True)
class NormalProfile:
    """Shape of the benign desktop traffic."""

    mean_pps: float = 15.0
    mean_packet_size: float = 74.0
    browser_pid: int = 2864
    browser_label: str = "firefox"
    child_pids: tuple[int, ...] = (2871, 2902)
    syscall_rate: float = 0.25
    activity_period: float = 70.0
    activity_pps: float = 40.0
    activity_length: tuple[float, float] = (1.0, 4.0)
    download_period: float = 600.0
    download_pps: float = 180.0
    download_size: float = 320.0
    download_length: tuple[float, float] = (5.0, 12.0)
    stall_flush_syscalls: float = 60.0
    tcp_fraction: float = 0.80
    udp_fraction: float = 0.15
    sent_fraction: float = 0.45

    def __post_init__(self):
        if self.mean_pps < 0 or self.syscall_rate < 0:
            raise ConfigError("rates must be non-negative")
        if self.mean_pps > 0 and not 70 <= self.mean_packet_size <= 90:
            raise ConfigError("mean_packet_size must stay in the normal band [70, 90]")
        if self.tcp_fraction + self.udp_fraction > 1:
            raise ConfigError("protocol fractions exceed 1")


def _scan_syscalls(procs, pid, label, t, count, spread):
    for i in range(count):
        procs.append(ProcessEvent(round(t + i * spread, 4), pid, label, "syscall"))


def gen_syn_scan(profile: ScanProfile, rng: random.Random):
    """Generate one scan fragment.

    Returns (packet_events, process_events, salvo_seconds); lists are in
    emission order, not yet sorted.
    """
    if profile.ports_per_host is None:
        raise ConfigError("ports_per_host must be set before generating a scan")
    total_probes = profile.target_count * profile.ports_per_host
    salvo_size = max(1, round(profile.salvo_rate))
    period = salvo_size * profile.probe_interval
    n_salvos = math.ceil(total_probes / salvo_size)
    up_fraction = profile.hosts_up / profile.target_count

    packets: list[PacketEvent] = []
    procs: list[ProcessEvent] = []
    salvo_seconds: list[int] = []
    remaining = total_probes
    for s in range(n_salvos):
        base = profile.start_time + s * period
        sec = int(base + rng.uniform(0.0, 0.2 * period))
        salvo_seconds.append(sec)
        probes = min(salvo_size, remaining)
        remaining -= probes
        step = 0.92 / max(probes, 1)
        for j in range(probes):
            pt = round(sec + 0.02 + j * step, 4)
            packets.append(PacketEvent(pt, "sent", "tcp", frozenset(("syn",)), 40))
            _scan_syscalls(procs, profile.scanner_pid, profile.scanner_label,
                           pt, profile.syscalls_per_probe, 0.0002)
            if rng.random() < up_fraction:
                rt = round(pt + 0.004, 4)
                if rng.random() < profile.open_port_fraction:
                    packets.append(PacketEvent(rt, "recv", "tcp", frozenset(("syn", "ack")), 44))
                    packets.append(PacketEvent(round(rt + 0.002, 4), "sent", "tcp",
                                               frozenset(("rst",)), 40))
                else:
                    packets.append(PacketEvent(rt, "recv", "tcp", frozenset(("rst", "ack")), 40))
                _scan_syscalls(procs, profile.scanner_pid, profile.scanner_label,
                               rt, profile.syscalls_per_reply, 0.0002)
                _scan_syscalls(procs, profile.parent_pid, profile.parent_label,
                               rt + 0.001, profile.relay_syscalls_per_reply, 0.0002)
            elif rng.random() < profile.icmp_reply_rate:
                packets.append(PacketEvent(round(pt + 0.02, 4), "recv", "icmp",
                                           None, 56, "dest_unreachable"))
        # The parent terminal ships the scanner's output to the operator.
        n_relay = profile.relay_packets_per_salvo
        for m in range(n_relay):
            mt = round(sec + 0.05 + m * 0.9 / max(n_relay, 1), 4)
            packets.append(PacketEvent(mt, "sent", "tcp", frozenset(("ack",)),
                                       profile.relay_packet_size))
            if m % 3 == 0:
                packets.append(PacketEvent(round(mt + 0.003, 4), "recv", "tcp",
                                           frozenset(("ack",)), 52))
    return packets, procs, salvo_seconds


def gen_normal(profile: NormalProfile, duration: float, rng: random.Random,
               busy_seconds: frozenset[int] | set[int] = frozenset()):
    """Generate a desktop-traffic fragment of the given length.

    Returns (packet_events, process_events) in emission order.
    """
    packets: list[PacketEvent] = []
    procs: list[ProcessEvent] = []
    pids = (profile.browser_pid, *profile.child_pids)
    seconds = math.ceil(duration)
    rate = profile.mean_pps
    next_activity = rng.expovariate(1.0 / profile.activity_period) if profile.activity_period > 0 else math.inf
    activity_until = -1.0
    next_download = rng.expovariate(1.0 / profile.download_period) if profile.download_period > 0 else math.inf
    download_until = -1.0
    for sec in range(seconds):
        if profile.mean_pps > 0:
            rate = profile.mean_pps + 0.8 * (rate - profile.mean_pps) \
                + rng.gauss(0.0, 0.15 * profile.mean_pps)
            effective = max(0.0, rate)
            size_mean = profile.mean_packet_size
            if sec >= next_activity:
                activity_until = sec + rng.uniform(*profile.activity_length)
                next_activity += rng.expovariate(1.0 / profile.activity_period)
            if sec >= next_download:
                download_until = sec + rng.uniform(*profile.download_length)
                next_download += rng.expovariate(1.0 / profile.download_period)
            if sec < activity_until:
                effective += profile.activity_pps
            if sec < download_until:
                effective += profile.download_pps
                size_mean = profile.download_size
            for _ in range(_poisson(rng, effective)):
                ts = round(sec + rng.random(), 4)
                direction = "sent" if rng.random() < profile.sent_fraction else "recv"
                roll = rng.random()
                size = max(40, round(rng.gauss(size_mean, 0.15 * size_mean)))
                if roll < profile.tcp_fraction:
                    flag_roll = rng.random()
                    if flag_roll < 0.05:
                        flags = frozenset(("syn",))
                    elif flag_roll < 0.08:
                        flags = frozenset(("fin", "ack"))
                    else:
                        flags = frozenset(("ack",))
                    packets.append(PacketEvent(ts, direction, "tcp", flags, size))
                elif roll < profile.tcp_fraction + profile.udp_fraction:
                    packets.append(PacketEvent(ts, direction, "udp", None, size))
                else:
                    packets.append(PacketEvent(ts, direction, "other", None, size))
        lam = profile.syscall_rate
        if sec in busy_seconds:
            lam += profile.stall_flush_syscalls
        for _ in range(_poisson(rng, lam)):
            pid = pids[rng.randrange(len(pids))]
            procs.append(ProcessEvent(round(sec + rng.random(), 4), pid,
                                      profile.browser_label, "syscall"))
    return packets, procs


@dataclass(frozen=True)
class SessionProfile:
    """Monitoring-session framing shared by every dataset."""

    sshd_pid: int = 3319
    sshd_label: str = "sshd"
    sshd_syscall_rate: float = 0.2
    login_time: float = 2.0


def gen_dataset(kind: str, duration: float, seed: int, *,
                scan_start: float | None = None,
                scan_duration: float | None = None,
                scan: ScanProfile | None = None,
                normal: NormalProfile | None = None,
                session: SessionProfile | None = None,
                include_scan: bool = True) -> EventStream:
    """Generate a complete labelled session as an EventStream.

    ``passive-normal`` holds the scan and its ssh session only;
    ``active-normal`` adds concurrent desktop traffic; underscores may
    stand for the hyphen.  The scan window defaults to roughly the middle
    nine tenths of the session.
    """
    kind = kind.replace("_", "-")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    for name, value in (("duration", duration), ("scan_start", scan_start),
                        ("scan_duration", scan_duration)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if duration <= 0:
        raise ConfigError("duration must be positive")
    scan = scan or ScanProfile()
    normal = normal or NormalProfile()
    session = session or SessionProfile()
    if scan_start is None:
        scan_start = round(_DEFAULT_SCAN_START_FRAC * duration, 1)
    if scan_start >= duration:
        raise ConfigError("scan_start lies outside the session")
    if scan_duration is None:
        scan_duration = min(_DEFAULT_SCAN_LEN_FRAC * duration, duration - scan_start)
    scan_duration = min(scan_duration, duration - scan_start)
    if scan.ports_per_host is None and include_scan:
        per_host = max(1, round(scan_duration / scan.probe_interval / scan.target_count))
        scan = replace(scan, ports_per_host=per_host)
    scan = replace(scan, start_time=scan_start)

    rng = random.Random(seed)
    packets: list[PacketEvent] = []
    procs: list[ProcessEvent] = [
        ProcessEvent(session.login_time, session.sshd_pid, session.sshd_label, "login")
    ]
    for sec in range(math.ceil(duration)):
        for _ in range(_poisson(rng, session.sshd_syscall_rate)):
            procs.append(ProcessEvent(round(sec + rng.random(), 4), session.sshd_pid,
                                      session.sshd_label, "syscall"))
    salvo_seconds: list[int] = []
    if include_scan:
        scan_packets, scan_procs, salvo_seconds = gen_syn_scan(scan, rng)
        packets += scan_packets
        procs += scan_procs
    if kind == "active-normal":
        busy = frozenset(salvo_seconds)
        normal_packets, normal_procs = gen_normal(normal, duration, rng, busy)
        packets += normal_packets
        procs += normal_procs

    packets = [p for p in packets if p.timestamp <= duration]
    procs = [e for e in procs if e.timestamp <= duration]
    packets.sort(key=lambda p: p.timestamp)
    procs.sort(key=lambda e: e.timestamp)
    return EventStream(packets, procs, float(duration))
