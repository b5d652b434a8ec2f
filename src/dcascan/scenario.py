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

import copy
import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterator

from .errors import ConfigError, check_fields, check_value
from .events import (MAX_DURATION, MAX_PACKET_SIZE, MIN_PACKET_SIZE, TCP_FLAG_SETS, PacketEvent,
                     ProcessEvent)

DATASET_KINDS = ("passive-normal", "active-normal")

# Fractions of the session given to lead-in quiet time and to the scan
# when no explicit window is requested.
_DEFAULT_SCAN_START_FRAC = 0.093
_DEFAULT_SCAN_LEN_FRAC = 0.857

# Bounds of what the generator is asked to emit: probes per scan (the default scan over the
# longest session sends about 1.48M) and per salvo; events per second for each Poisson rate of
# a profile, as each event drawn is one loop pass; events per probe, reply or salvo for each
# burst count, so that a burst (0.2 ms a call) spans under a second, as GeneratedStream keeps
# and re-sorts its lane each second it runs on; and the events a session is expected to hold
# (about 20M by default at most), which bounds the time, not the memory, of making them.
MAX_PROBES = 2_000_000
MAX_RATE = 10_000.0
MAX_BURST = 1_000
MAX_EVENTS = 25_000_000

# The generated processes, each a (pid, label): the scanner, the terminal that relays its
# output and the ssh session's shell; the browser's system calls draw one of its pids.
SCANNER = (3411, "nmap")
PARENT = (3402, "pts")
SSHD = (3319, "sshd")
BROWSER_PIDS = (2864, 2871, 2902)
BROWSER_LABEL = "firefox"


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

    target_count: int = 254
    hosts_up: int = 70
    probe_interval: float = 0.05
    open_port_fraction: float = 0.02
    icmp_reply_rate: float = 0.05
    salvo_rate: float = 450.0
    syscalls_per_probe: int = 2
    syscalls_per_reply: int = 28
    relay_syscalls_per_reply: int = 3
    relay_packets_per_salvo: int = 30
    relay_packet_size: int = 150

    def __post_init__(self):
        burst = (0, MAX_BURST)
        check_fields(self, positive=("target_count", "probe_interval", "salvo_rate"),
                     hosts_up=(1, self.target_count), probe_interval=(0, MAX_DURATION),
                     salvo_rate=(0, MAX_PROBES), open_port_fraction=(0, 1),
                     icmp_reply_rate=(0, 1), syscalls_per_probe=burst, syscalls_per_reply=burst,
                     relay_syscalls_per_reply=burst, relay_packets_per_salvo=burst,
                     relay_packet_size=(MIN_PACKET_SIZE, MAX_PACKET_SIZE))


@dataclass(frozen=True)
class NormalProfile:
    """Shape of the benign desktop traffic."""

    mean_pps: float = 15.0
    mean_packet_size: float = 74.0
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
        rate = (0, MAX_RATE)
        check_fields(self, mean_pps=rate, syscall_rate=rate, activity_pps=rate, download_pps=rate,
                     stall_flush_syscalls=rate, tcp_fraction=(0, 1), udp_fraction=(0, 1),
                     sent_fraction=(0, 1), download_size=(MIN_PACKET_SIZE, MAX_PACKET_SIZE))
        if self.mean_pps > 0:
            check_value("mean_packet_size", self.mean_packet_size, bounds=(70, 90))
        if not self.tcp_fraction + self.udp_fraction <= 1:
            raise ConfigError("protocol fractions exceed 1")


# A probe's outcome, one byte: 0 for no answer, or an ICMP unreachable, a closed or an open port.
_UNREACHABLE, _CLOSED, _OPEN = 1, 2, 3


def _burst(pid, label, t, count):
    """``count`` system calls at round(t + i * 0.0002, 4): as ``t`` lies within float error of
    a 4-decimal value, that is the correctly rounded quotient of two ints, a third of the cost."""
    k = round(t * 10000)
    return [ProcessEvent(n / 10000, pid, label, "syscall") for n in range(k, k + 2 * count, 2)]


def gen_syn_scan(profile: ScanProfile, total_probes: int, rng: random.Random, start: float = 0.0):
    """Make the draws of one scan of ``total_probes`` probes whose first salvo is due at
    ``start``: return each salvo's second and the outcomes of its probes, from which
    scan_salvos makes the events.  gen_dataset derives the count from the scan window."""
    salvo_size = max(1, round(profile.salvo_rate))
    period = salvo_size * profile.probe_interval
    up_fraction = profile.hosts_up / profile.target_count
    salvos: list[tuple[int, bytearray]] = []
    for first in range(0, total_probes, salvo_size):
        salvos.append((int(start + first // salvo_size * period + rng.uniform(0.0, 0.2 * period)),
                       outcomes := bytearray(min(salvo_size, total_probes - first))))
        for j in range(len(outcomes)):
            if rng.random() < up_fraction:
                outcomes[j] = _OPEN if rng.random() < profile.open_port_fraction else _CLOSED
            elif rng.random() < profile.icmp_reply_rate:
                outcomes[j] = _UNREACHABLE
    return salvos


def scan_salvos(profile: ScanProfile, salvos: list[tuple[int, bytearray]]):
    """Yield the events of gen_syn_scan's salvos, one (second, packets, process events) each."""
    n_relay = profile.relay_packets_per_salvo
    for sec, outcomes in salvos:
        packets, procs = [], []
        step = 0.92 / len(outcomes)
        for j, outcome in enumerate(outcomes):
            pt = round(sec + 0.02 + j * step, 4)
            packets.append(PacketEvent(pt, "sent", "tcp", TCP_FLAG_SETS["syn"], 40))
            procs += _burst(*SCANNER, pt, profile.syscalls_per_probe)
            if outcome >= _CLOSED:
                rt = round(pt + 0.004, 4)
                if outcome == _OPEN:
                    packets.append(PacketEvent(rt, "recv", "tcp", TCP_FLAG_SETS["syn,ack"], 44))
                    packets.append(PacketEvent(round(rt + 0.002, 4), "sent", "tcp",
                                               TCP_FLAG_SETS["rst"], 40))
                else:
                    packets.append(PacketEvent(rt, "recv", "tcp", TCP_FLAG_SETS["ack,rst"], 40))
                procs += _burst(*SCANNER, rt, profile.syscalls_per_reply)
                procs += _burst(*PARENT, rt + 0.001, profile.relay_syscalls_per_reply)
            elif outcome == _UNREACHABLE:
                packets.append(PacketEvent(round(pt + 0.02, 4), "recv", "icmp",
                                           None, 56, "dest_unreachable"))
        # The parent terminal ships the scanner's output to the operator.
        for m in range(n_relay):
            mt = round(sec + 0.05 + m * 0.9 / max(n_relay, 1), 4)
            packets.append(PacketEvent(mt, "sent", "tcp", TCP_FLAG_SETS["ack"],
                                       profile.relay_packet_size))
            if m % 3 == 0:
                packets.append(PacketEvent(round(mt + 0.003, 4), "recv", "tcp",
                                           TCP_FLAG_SETS["ack"], 52))
        yield sec, packets, procs


def gen_normal(profile: NormalProfile, duration: float, rng: random.Random,
               busy_seconds: frozenset[int] | set[int] = frozenset()):
    """Yield desktop traffic of the given length, one (second, packets, process events) a second."""
    rate = profile.mean_pps
    next_activity = rng.expovariate(1.0 / profile.activity_period) if profile.activity_period > 0 else math.inf
    activity_until = -1.0
    next_download = rng.expovariate(1.0 / profile.download_period) if profile.download_period > 0 else math.inf
    download_until = -1.0
    for sec in range(math.ceil(duration)):
        packets, procs = [], []
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
                size = min(MAX_PACKET_SIZE, max(40, round(rng.gauss(size_mean, 0.15 * size_mean))))
                if roll < profile.tcp_fraction:
                    flag_roll = rng.random()
                    if flag_roll < 0.05:
                        flags = TCP_FLAG_SETS["syn"]
                    elif flag_roll < 0.08:
                        flags = TCP_FLAG_SETS["ack,fin"]
                    else:
                        flags = TCP_FLAG_SETS["ack"]
                    packets.append(PacketEvent(ts, direction, "tcp", flags, size))
                elif roll < profile.tcp_fraction + profile.udp_fraction:
                    packets.append(PacketEvent(ts, direction, "udp", None, size))
                else:
                    packets.append(PacketEvent(ts, direction, "other", None, size))
        lam = profile.syscall_rate
        if sec in busy_seconds:
            lam += profile.stall_flush_syscalls
        for _ in range(_poisson(rng, lam)):
            pid = BROWSER_PIDS[rng.randrange(len(BROWSER_PIDS))]
            procs.append(ProcessEvent(round(sec + rng.random(), 4), pid, BROWSER_LABEL, "syscall"))
        yield sec, packets, procs


@dataclass(frozen=True)
class SessionProfile:
    """Monitoring-session framing shared by every dataset."""

    sshd_syscall_rate: float = 0.2
    login_time: float = 2.0

    def __post_init__(self):
        check_fields(self, sshd_syscall_rate=(0, MAX_RATE), login_time=(0, MAX_DURATION))


def _sshd(session: SessionProfile, duration: float, rng: random.Random):
    """Yield the session shell's system calls, one (second, (), process events) chunk a second."""
    for sec in range(math.ceil(duration)):
        yield sec, (), [ProcessEvent(round(sec + rng.random(), 4), *SSHD, "syscall")
                        for _ in range(_poisson(rng, session.sshd_syscall_rate))]


class GeneratedStream:
    """A session read like an EventStream: each read of ``events`` makes them afresh, one
    second at a time.  ``event_count`` is kept from the last full read, or counted by one.

    ``sources()`` returns new iterators of (second, packets, process events) chunks, in
    seconds that never decrease and with no event before its second, so a second is whole
    once each source's next chunk lies past it.  The second's packets, then its process
    events, in source and emission order, take one stable sort by time: the session's order.
    """

    def __init__(self, sources, duration: float):
        self.sources, self.duration, self._count = sources, duration, None

    @property
    def events(self) -> Iterator[PacketEvent | ProcessEvent]:
        return chain.from_iterable(self._seconds())

    @property
    def event_count(self) -> int:
        return sum(map(len, self._seconds())) if self._count is None else self._count

    def _seconds(self) -> Iterator[list[PacketEvent | ProcessEvent]]:
        sources, time = [iter(source) for source in self.sources()], attrgetter("timestamp")
        heads = [next(source, None) for source in sources]
        lanes, count = [[] for _ in range(2 * len(sources))], 0
        for sec in range(math.floor(self.duration) + 1):
            for i, source in enumerate(sources):
                while (head := heads[i]) is not None and head[0] <= sec:
                    lanes[i] += head[1]
                    lanes[len(sources) + i] += head[2]
                    heads[i] = next(source, None)
            events = []
            for lane in lanes:
                if lane:  # what lies past this second stays in the lane, sorted
                    lane.sort(key=time)
                    cut = bisect_left(lane, sec + 1, key=time)
                    events += lane[:cut]
                    del lane[:cut]
            events.sort(key=time)
            del events[bisect_right(events, self.duration, key=time):]
            count += len(events)
            yield events
        self._count = count


def gen_dataset(kind: str, duration: float, seed: int, *,
                scan_start: float | None = None,
                scan_duration: float | None = None,
                scan: ScanProfile | None = None,
                normal: NormalProfile | None = None,
                session: SessionProfile | None = None,
                include_scan: bool = True) -> GeneratedStream:
    """Generate a complete labelled session as a GeneratedStream.

    ``passive-normal`` holds the scan and its ssh session only;
    ``active-normal`` adds concurrent desktop traffic.  The scan window
    defaults to roughly the middle nine tenths of the session.  Arguments
    are checked here, not on a read.
    """
    if kind not in DATASET_KINDS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    check_value("duration", duration, positive=True, bounds=(0, MAX_DURATION))
    scan = scan or ScanProfile()
    normal = normal or NormalProfile()
    session = session or SessionProfile()
    if scan_start is None:
        scan_start = round(_DEFAULT_SCAN_START_FRAC * duration, 1)
    if not 0 <= scan_start < duration:
        raise ConfigError("scan_start lies outside the session")
    if scan_duration is None:
        scan_duration = _DEFAULT_SCAN_LEN_FRAC * duration
    elif not 0 < scan_duration < math.inf:
        raise ConfigError(f"scan_duration must be positive and finite, got {scan_duration}")
    scan_duration = min(scan_duration, duration - scan_start)
    # The events the session is expected to hold: rates times seconds, bursts times their causes.
    expected, salvos = session.sshd_syscall_rate * duration, 0
    if include_scan:
        # Each target gets the ports the scan window holds.  The clamps keep the division
        # and round() finite and still fail the bound below.
        per_host = scan_duration / scan.probe_interval / min(scan.target_count, MAX_PROBES + 1)
        probes = scan.target_count * max(1, round(min(per_host, MAX_PROBES + 1)))
        if probes > MAX_PROBES:
            raise ConfigError(f"the scan window x target_count exceeds {MAX_PROBES:,} probes")
        salvos = math.ceil(probes / max(1, round(scan.salvo_rate)))
        per_probe = 1 + scan.syscalls_per_probe + scan.icmp_reply_rate + scan.hosts_up * (
            2 + scan.syscalls_per_reply + scan.relay_syscalls_per_reply) / scan.target_count
        expected += probes * per_probe + salvos * 2 * scan.relay_packets_per_salvo
    if kind == "active-normal":
        bursts = ((normal.activity_pps, normal.activity_length, normal.activity_period),
                  (normal.download_pps, normal.download_length, normal.download_period))
        pps = normal.mean_pps + sum(rate * min(1.0, max(0.0, *length) / period)
                                    for rate, length, period in bursts if period > 0)
        expected += (pps + normal.syscall_rate) * duration + normal.stall_flush_syscalls * salvos
    if expected > MAX_EVENTS:
        raise ConfigError(f"the session would hold about {expected:,.0f} events, above {MAX_EVENTS:,}")

    # Make every draw up to the desktop's, which come last, and keep what the events need.
    rng = random.Random(seed)
    deque(_sshd(session, duration, rng), 0)
    salvos = gen_syn_scan(scan, probes, rng, scan_start) if include_scan else []
    login = ProcessEvent(session.login_time, *SSHD, "login")

    def sources():
        return [[(int(login.timestamp), (), [login])],
                _sshd(session, duration, random.Random(seed)),
                scan_salvos(scan, salvos),
                gen_normal(normal, duration, copy.copy(rng), frozenset(sec for sec, _ in salvos))
                if kind == "active-normal" else ()]
    return GeneratedStream(sources, float(duration))
