"""Derivation of the seven per-second input signals from event buckets.

All signals are normalized to [0, SIGNAL_MAX], that is [0, 100].
Categories follow the usual dendritic cell algorithm vocabulary: two
PAMPs, two danger signals, two safe signals, plus a binary inflammation
flag.

    pamp1  ICMP destination-unreachable packets received per second
    pamp2  TCP RST packets per second, sent and received
    ds1    outbound packet rate through a logistic curve
    ds2    share of TCP packets among all packets
    ss1    stability of the outbound packet rate
    ss2    stepped score of the mean packet size over a sliding minute
    inflammation  1 while a remote root session is open
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, ValidationError, check_fields
from .events import TickBucket

SIGNAL_MAX = 100.0


@dataclass(frozen=True)
class SignalConfig:
    """Tunable constants of the signal normalizations."""

    icmp_multiplier: float = 5.0
    ds1_midpoint: float = 400.0
    ds1_scale: float = 75.0
    ds1_input_cap: float = 1000.0
    ss1_delta_max: float = 500.0
    ss2_window_seconds: int = 60
    ss2_default: float = 100.0
    # Upper bounds of the size steps and the score for each band; means
    # above the last bound score ss2_top.
    ss2_step_bounds: tuple[float, ...] = (45.0, 50.0, 60.0)
    ss2_step_values: tuple[float, ...] = (0.0, 10.0, 50.0)
    ss2_top: float = 100.0

    def __post_init__(self):
        if len(self.ss2_step_bounds) != len(self.ss2_step_values):
            raise ConfigError("ss2 step bounds and values differ in length")
        if not all(b < c for b, c in zip(self.ss2_step_bounds, self.ss2_step_bounds[1:])):
            raise ConfigError("ss2 step bounds must increase")
        # Every signal must land in [0, SIGNAL_MAX]; reject scores that can
        # only break that range here rather than on the first tick.
        score = (0, SIGNAL_MAX)
        # sys.maxsize: the longest window a deque holds.
        check_fields(self, positive=("ss2_window_seconds", "ds1_scale", "ds1_input_cap",
                                     "ss1_delta_max"), ss2_window_seconds=(1, sys.maxsize),
                     icmp_multiplier=(0, math.inf), ss2_default=score, ss2_top=score,
                     ss2_step_values=score)


@dataclass(frozen=True, slots=True)
class SignalVector:
    """One second's signals: each in [0, SIGNAL_MAX] under any config that loads."""

    pamp1: float
    pamp2: float
    ds1: float
    ds2: float
    ss1: float
    ss2: float
    inflammation: int


def icmp_unreachable_pamp(rate: float, config: SignalConfig = SignalConfig()) -> float:
    """pamp1: unreachable replies scaled up and capped."""
    return min(SIGNAL_MAX, config.icmp_multiplier * rate)


def rst_rate_pamp(rate: float) -> float:
    """pamp2: RST packets per second, capped."""
    return min(SIGNAL_MAX, rate)


def send_rate_danger(pps: float, config: SignalConfig = SignalConfig()) -> float:
    """ds1: logistic curve over the outbound packet rate.

    The input is capped, and the curve is steepest around the midpoint, so
    mid-range rate changes move the signal most.
    """
    x = min(pps, config.ds1_input_cap)
    z = (config.ds1_midpoint - x) / config.ds1_scale
    # Past exp(700) the curve is below 1e-302; stop before exp overflows.
    return 0.0 if z > 700.0 else SIGNAL_MAX / (1.0 + math.exp(z))


def tcp_ratio_danger(tcp_packets: int, all_packets: int) -> float:
    """ds2: percentage of packets that are TCP; zero for an idle second."""
    if all_packets == 0:
        return 0.0
    return SIGNAL_MAX * tcp_packets / all_packets


def rate_stability_safe(delta_pps: float, config: SignalConfig = SignalConfig()) -> float:
    """ss1: full score for a steady send rate, fading to zero at large swings."""
    return SIGNAL_MAX * max(0.0, 1.0 - delta_pps / config.ss1_delta_max)


def size_step_safe(mean_size: float, config: SignalConfig = SignalConfig()) -> float:
    """ss2 step function applied to a window-mean packet size."""
    for bound, value in zip(config.ss2_step_bounds, config.ss2_step_values):
        if mean_size <= bound:
            return value
    return config.ss2_top


class SignalDeriver:
    """Stateful mapping of one-second buckets onto signal vectors."""

    def __init__(self, config: SignalConfig | None = None):
        self.config = config or SignalConfig()
        self._prev_sent_pps: float | None = None
        self._size_window: deque = deque(maxlen=self.config.ss2_window_seconds)
        self._window_bytes = self._window_packets = 0
        self._last_ss2: float | None = None
        self._root_sessions = 0

    def _ss1(self, sent_pps: float) -> float:
        prev = self._prev_sent_pps
        delta = 0.0 if prev is None else abs(sent_pps - prev)
        self._prev_sent_pps = sent_pps
        return rate_stability_safe(delta, self.config)

    def _ss2(self, size_sum: int, packet_count: int) -> float:
        cfg = self.config
        if packet_count == 0:
            # An idle second leaves the window untouched and repeats the
            # previous score; before any traffic the benign default applies.
            return cfg.ss2_default if self._last_ss2 is None else self._last_ss2
        # Running integer totals of the window: exact, so equal to a re-sum.
        window = self._size_window
        old_sum, old_count = window[0] if len(window) == window.maxlen else (0, 0)
        window.append((size_sum, packet_count))
        self._window_bytes += size_sum - old_sum
        self._window_packets += packet_count - old_count
        value = size_step_safe(self._window_bytes / self._window_packets, cfg)
        self._last_ss2 = value
        return value

    def _inflammation(self, bucket: TickBucket) -> int:
        for ev in bucket.process_events:
            if ev.kind == "login":
                self._root_sessions += 1
            elif ev.kind == "logout":
                if self._root_sessions == 0:
                    raise ValidationError(
                        f"logout at t={ev.timestamp} with no open root session"
                    )
                self._root_sessions -= 1
        return 1 if self._root_sessions > 0 else 0

    def derive(self, bucket: TickBucket) -> SignalVector:
        """Fold one bucket into the state and return its signal vector."""
        cfg = self.config
        icmp_unreachable = 0
        rst = 0
        sent = 0
        tcp = 0
        total = 0
        size_sum = 0
        for p in bucket.packet_events:
            total += 1
            size_sum += p.size_bytes
            if p.direction == "sent":
                sent += 1
            if p.protocol == "tcp":
                tcp += 1
                if "rst" in p.tcp_flags:
                    rst += 1
            elif (
                p.protocol == "icmp"
                and p.icmp_type == "dest_unreachable"
                and p.direction == "recv"
            ):
                icmp_unreachable += 1
        return SignalVector(
            pamp1=icmp_unreachable_pamp(icmp_unreachable, cfg),
            pamp2=rst_rate_pamp(rst),
            ds1=send_rate_danger(sent, cfg),
            ds2=tcp_ratio_danger(tcp, total),
            ss1=self._ss1(float(sent)),
            ss2=self._ss2(size_sum, total),
            inflammation=self._inflammation(bucket),
        )
