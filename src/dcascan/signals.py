"""Derivation of the seven per-second input signals from event buckets.

All signals are normalized to [0, 100].  Categories follow the usual
dendritic cell algorithm vocabulary: two PAMPs, two danger signals, two
safe signals, plus a binary inflammation flag.

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
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigError, ValidationError
from .events import TickBucket

SIZE_WEIGHTINGS = ("packets", "seconds")


@dataclass(frozen=True)
class SignalConfig:
    """Tunable constants of the signal normalizations."""

    icmp_multiplier: float = 5.0
    signal_cap: float = 100.0
    rst_cap: float = 100.0
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
    # "packets" averages sizes over all packets of the window, "seconds"
    # averages the per-second means.
    ss2_weighting: str = "packets"

    def __post_init__(self):
        if self.ss2_weighting not in SIZE_WEIGHTINGS:
            raise ConfigError(f"unknown ss2 weighting {self.ss2_weighting!r}")
        if len(self.ss2_step_bounds) != len(self.ss2_step_values):
            raise ConfigError("ss2 step bounds and values differ in length")
        if any(b >= c for b, c in zip(self.ss2_step_bounds, self.ss2_step_bounds[1:])):
            raise ConfigError("ss2 step bounds must increase")
        if self.ss2_window_seconds <= 0:
            raise ConfigError("ss2 window must cover at least one second")
        if self.ds1_scale <= 0 or self.ds1_input_cap <= 0 or self.ss1_delta_max <= 0:
            raise ConfigError("signal scale parameters must be positive")
        # Every signal must land in [0, 100]; reject values that can only
        # break that range here rather than on the first tick.
        for name in ("signal_cap", "rst_cap"):
            if not 0.0 < getattr(self, name) <= 100.0:
                raise ConfigError(f"{name}={getattr(self, name)} outside (0, 100]")
        scores = {"ss2_default": self.ss2_default, "ss2_top": self.ss2_top}
        scores.update((f"ss2_step_values[{i}]", v) for i, v in enumerate(self.ss2_step_values))
        for name, value in scores.items():
            if not 0.0 <= value <= 100.0:
                raise ConfigError(f"{name}={value} outside [0, 100]")


@dataclass(frozen=True, slots=True)
class SignalVector:
    """One second's worth of normalized input signals."""

    pamp1: float
    pamp2: float
    ds1: float
    ds2: float
    ss1: float
    ss2: float
    inflammation: int

    def __post_init__(self):
        for name in ("pamp1", "pamp2", "ds1", "ds2", "ss1", "ss2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValidationError(f"{name}={v} outside [0, 100]")
        if self.inflammation not in (0, 1):
            raise ValidationError(f"inflammation must be 0 or 1, got {self.inflammation}")


def icmp_unreachable_pamp(rate: float, config: SignalConfig = SignalConfig()) -> float:
    """pamp1: unreachable replies scaled up and capped."""
    if rate < 0:
        raise ValidationError(f"negative rate {rate}")
    return min(config.signal_cap, config.icmp_multiplier * rate)


def rst_rate_pamp(rate: float, config: SignalConfig = SignalConfig()) -> float:
    """pamp2: RST packets per second, capped."""
    if rate < 0:
        raise ValidationError(f"negative rate {rate}")
    return min(config.rst_cap, rate)


def send_rate_danger(pps: float, config: SignalConfig = SignalConfig()) -> float:
    """ds1: logistic curve over the outbound packet rate.

    The input is capped, and the curve is steepest around the midpoint, so
    mid-range rate changes move the signal most.
    """
    if pps < 0:
        raise ValidationError(f"negative rate {pps}")
    x = min(pps, config.ds1_input_cap)
    return config.signal_cap / (1.0 + math.exp(-(x - config.ds1_midpoint) / config.ds1_scale))


def tcp_ratio_danger(tcp_packets: int, all_packets: int, config: SignalConfig = SignalConfig()) -> float:
    """ds2: percentage of packets that are TCP; zero for an idle second."""
    if tcp_packets < 0 or all_packets < 0:
        raise ValidationError("packet counts must be non-negative")
    if tcp_packets > all_packets:
        raise ValidationError(f"tcp count {tcp_packets} exceeds total {all_packets}")
    if all_packets == 0:
        return 0.0
    return config.signal_cap * tcp_packets / all_packets


def rate_stability_safe(delta_pps: float, config: SignalConfig = SignalConfig()) -> float:
    """ss1: full score for a steady send rate, fading to zero at large swings."""
    if delta_pps < 0:
        raise ValidationError(f"negative delta {delta_pps}")
    return config.signal_cap * max(0.0, 1.0 - delta_pps / config.ss1_delta_max)


def size_step_safe(mean_size: float, config: SignalConfig = SignalConfig()) -> float:
    """ss2 step function applied to a window-mean packet size."""
    for bound, value in zip(config.ss2_step_bounds, config.ss2_step_values):
        if mean_size <= bound:
            return value
    return config.ss2_top


@dataclass
class DerivationState:
    """Carry-over between consecutive buckets."""

    prev_sent_pps: float | None = None
    size_window: deque = field(default_factory=deque)
    last_ss2: float | None = None
    root_sessions: int = 0


class SignalDeriver:
    """Stateful mapping of one-second buckets onto signal vectors."""

    def __init__(self, config: SignalConfig | None = None):
        self.config = config or SignalConfig()
        self.state = DerivationState()
        self.state.size_window = deque(maxlen=self.config.ss2_window_seconds)

    def reset(self) -> None:
        self.__init__(self.config)

    def _ss1(self, sent_pps: float) -> float:
        prev = self.state.prev_sent_pps
        delta = 0.0 if prev is None else abs(sent_pps - prev)
        self.state.prev_sent_pps = sent_pps
        return rate_stability_safe(delta, self.config)

    def _ss2(self, size_sum: int, packet_count: int) -> float:
        cfg = self.config
        if packet_count == 0:
            # An idle second leaves the window untouched and repeats the
            # previous score; before any traffic the benign default applies.
            if self.state.last_ss2 is None:
                return cfg.ss2_default
            return self.state.last_ss2
        self.state.size_window.append((size_sum, packet_count))
        if cfg.ss2_weighting == "packets":
            total_bytes = sum(b for b, _ in self.state.size_window)
            total_packets = sum(c for _, c in self.state.size_window)
            mean = total_bytes / total_packets
        else:
            mean = sum(b / c for b, c in self.state.size_window) / len(self.state.size_window)
        value = size_step_safe(mean, cfg)
        self.state.last_ss2 = value
        return value

    def _inflammation(self, bucket: TickBucket) -> int:
        for ev in bucket.process_events:
            if ev.kind == "login":
                self.state.root_sessions += 1
            elif ev.kind == "logout":
                if self.state.root_sessions == 0:
                    raise ValidationError(
                        f"logout at t={ev.timestamp} with no open root session"
                    )
                self.state.root_sessions -= 1
        return 1 if self.state.root_sessions > 0 else 0

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
            pamp2=rst_rate_pamp(rst, cfg),
            ds1=send_rate_danger(sent, cfg),
            ds2=tcp_ratio_danger(tcp, total, cfg),
            ss1=self._ss1(float(sent)),
            ss2=self._ss2(size_sum, total),
            inflammation=self._inflammation(bucket),
        )
