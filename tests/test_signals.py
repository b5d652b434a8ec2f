"""Signal normalization functions and the stateful deriver.

The logistic reference values below were frozen from an independent
arbitrary-precision evaluation (mpmath, 30 digits) of
100 / (1 + exp(-(x - 400) / 75)).
"""

from __future__ import annotations

import random

import pytest

from dcascan.errors import ConfigError, ValidationError
from dcascan.events import PacketEvent, ProcessEvent, TickBucket
from dcascan.signals import (
    SignalConfig,
    SignalDeriver,
    SignalVector,
    icmp_unreachable_pamp,
    rate_stability_safe,
    rst_rate_pamp,
    send_rate_danger,
    size_step_safe,
    tcp_ratio_danger,
)

DS1_REFERENCE = {
    0: 0.4804752887159517,
    100: 1.7986209962091557,
    400: 50.0,
    700: 98.20137900379085,
    1000: 99.96646498695335,
}


def test_pamp1_exact_values():
    assert icmp_unreachable_pamp(0) == 0.0
    assert icmp_unreachable_pamp(10) == 50.0
    assert icmp_unreachable_pamp(20) == 100.0
    assert icmp_unreachable_pamp(25) == 100.0


def test_pamp2_exact_values():
    assert rst_rate_pamp(0) == 0.0
    assert rst_rate_pamp(50) == 50.0
    assert rst_rate_pamp(100) == 100.0
    assert rst_rate_pamp(250) == 100.0


def test_pamp_rejects_negative_rates():
    with pytest.raises(ValidationError):
        icmp_unreachable_pamp(-1)
    with pytest.raises(ValidationError):
        rst_rate_pamp(-0.5)


def test_ds1_frozen_reference_points():
    assert send_rate_danger(400) == 50.0
    for x, expected in DS1_REFERENCE.items():
        assert send_rate_danger(x) == pytest.approx(expected, abs=1e-12)
    # Input cap: anything past the cap scores like the cap.
    assert send_rate_danger(5000) == send_rate_danger(1000)


def test_ds1_against_live_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(13)
    for _ in range(200):
        x = rng.uniform(0, 1500)
        capped = min(x, 1000.0)
        expected = float(100 / (1 + mpmath.exp(-(mpmath.mpf(capped) - 400) / 75)))
        assert send_rate_danger(x) == pytest.approx(expected, abs=1e-9)


def test_ds1_monotone():
    rng = random.Random(5)
    for _ in range(500):
        a, b = sorted((rng.uniform(0, 1200), rng.uniform(0, 1200)))
        assert send_rate_danger(a) <= send_rate_danger(b)


def test_ds2_ratio():
    assert tcp_ratio_danger(0, 0) == 0.0
    assert tcp_ratio_danger(50, 100) == 50.0
    assert tcp_ratio_danger(100, 100) == 100.0
    with pytest.raises(ValidationError):
        tcp_ratio_danger(5, 4)
    with pytest.raises(ValidationError):
        tcp_ratio_danger(-1, 4)


def test_ss1_exact_values():
    assert rate_stability_safe(0) == 100.0
    assert rate_stability_safe(250) == 50.0
    assert rate_stability_safe(500) == 0.0
    assert rate_stability_safe(800) == 0.0


def test_ss2_step_table():
    assert size_step_safe(30) == 0.0
    assert size_step_safe(42) == 0.0
    assert size_step_safe(45) == 0.0
    assert size_step_safe(48) == 10.0
    assert size_step_safe(50) == 10.0
    assert size_step_safe(55) == 50.0
    assert size_step_safe(60) == 50.0
    assert size_step_safe(61) == 100.0
    assert size_step_safe(80) == 100.0


def test_ss2_step_monotone():
    rng = random.Random(17)
    for _ in range(500):
        a, b = sorted((rng.uniform(0, 200), rng.uniform(0, 200)))
        assert size_step_safe(a) <= size_step_safe(b)


def test_signal_config_validation():
    with pytest.raises(ConfigError):
        SignalConfig(ss2_weighting="bytes")
    with pytest.raises(ConfigError):
        SignalConfig(ss2_step_bounds=(50.0, 45.0, 60.0))
    with pytest.raises(ConfigError):
        SignalConfig(ds1_scale=0)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"ss2_top": float("nan")}, "ss2_top"),
        ({"ss2_default": 100.5}, "ss2_default"),
        ({"ss2_step_values": (-0.5, 10.0, 50.0)}, r"ss2_step_values\[0\]"),
        ({"ss2_step_values": (0.0, float("nan"), 50.0)}, r"ss2_step_values\[1\]"),
        ({"ss2_top": 101.0}, "ss2_top"),
        ({"ss2_default": -1.0}, "ss2_default"),
        ({"ss2_step_values": (0.0, 10.0, 150.0)}, r"ss2_step_values\[2\]"),
    ],
)
def test_signal_config_rejects_scores_outside_range(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SignalConfig(**kwargs)


def test_signal_config_accepts_range_edges():
    SignalConfig(ss2_top=0.0, ss2_default=100.0, ss2_step_values=(0.0, 0.0, 100.0))


def test_signal_vector_range_checks():
    with pytest.raises(ValidationError):
        SignalVector(101, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValidationError):
        SignalVector(0, 0, 0, 0, 0, 0, 2)


def _packet(t, direction="sent", proto="tcp", flags=("syn",), size=40, icmp=None):
    return PacketEvent(t, direction, proto,
                       frozenset(flags) if proto == "tcp" else None, size, icmp)


def _bucket(second, packets=(), procs=()):
    return TickBucket(second, list(packets), list(procs))


def test_derive_empty_bucket():
    deriver = SignalDeriver()
    sv = deriver.derive(_bucket(0))
    assert sv.pamp1 == 0.0
    assert sv.pamp2 == 0.0
    assert sv.ds1 == pytest.approx(DS1_REFERENCE[0], abs=1e-12)
    assert sv.ds2 == 0.0
    assert sv.ss1 == 100.0  # no previous rate to differ from
    assert sv.ss2 == 100.0  # benign default before any traffic
    assert sv.inflammation == 0


def test_derive_scan_heavy_bucket():
    packets = [_packet(0.001 * i, "sent", "tcp", ("syn",), 40) for i in range(600)]
    packets += [_packet(0.5 + 0.0001 * i, "recv", "tcp", ("rst", "ack"), 40) for i in range(80)]
    packets += [_packet(0.6 + 0.0001 * i, "recv", "icmp", None, 56, "dest_unreachable")
                for i in range(12)]
    deriver = SignalDeriver()
    sv = deriver.derive(_bucket(0, packets))
    assert sv.pamp1 == 60.0           # 12 unreachables, scaled by 5
    assert sv.pamp2 == 80.0           # 80 RSTs
    assert sv.ds1 == pytest.approx(93.50335, abs=1e-3)
    assert sv.ds2 == pytest.approx(100 * 680 / 692, abs=1e-9)
    assert sv.ss2 == 0.0              # mean size just over 40


def test_derive_browse_like_bucket():
    deriver = SignalDeriver()
    packets = [_packet(0.01 * i, "recv" if i % 2 else "sent", "tcp", ("ack",), 80)
               for i in range(30)]
    packets += [_packet(0.5 + 0.01 * i, "sent", "udp", None, 70) for i in range(5)]
    sv = deriver.derive(_bucket(0, packets))
    assert sv.pamp1 == 0.0
    assert sv.pamp2 == 0.0
    assert sv.ds2 == pytest.approx(100 * 30 / 35, abs=1e-9)
    assert sv.ss1 == 100.0
    assert sv.ss2 == 100.0            # mean size 78.6 sits above every step


def test_ss1_tracks_rate_changes_across_buckets():
    deriver = SignalDeriver()
    def sent_bucket(second, n):
        return _bucket(second, [_packet(second + 0.0001 * i, "sent", "udp", None, 60)
                                for i in range(n)])
    assert deriver.derive(sent_bucket(0, 300)).ss1 == 100.0   # first bucket, no delta
    assert deriver.derive(sent_bucket(1, 300)).ss1 == 100.0   # steady
    assert deriver.derive(sent_bucket(2, 50)).ss1 == 50.0     # swing of 250
    assert deriver.derive(sent_bucket(3, 850)).ss1 == 0.0     # swing of 800


def test_ss2_empty_bucket_reuses_previous_value():
    deriver = SignalDeriver()
    first = _bucket(0, [_packet(0.1, "sent", "udp", None, 42)])
    assert deriver.derive(first).ss2 == 0.0
    # An idle second must not dilute the window or change the score.
    assert deriver.derive(_bucket(1)).ss2 == 0.0
    again = _bucket(2, [_packet(2.1, "sent", "udp", None, 42)])
    assert deriver.derive(again).ss2 == 0.0


def test_ss2_window_evicts_after_sixty_seconds():
    deriver = SignalDeriver(SignalConfig(ss2_window_seconds=3))
    for sec, size in enumerate((40, 40, 40)):
        deriver.derive(_bucket(sec, [_packet(sec + 0.1, "sent", "udp", None, size)]))
    assert deriver.derive(_bucket(3)).ss2 == 0.0   # an idle second repeats the last score
    for sec in range(4, 7):
        sv = deriver.derive(_bucket(sec, [_packet(sec + 0.1, "sent", "udp", None, 90)]))
    assert sv.ss2 == 100.0            # all small-packet seconds have rolled out


def test_ss2_weighting_modes_differ():
    # One second with many small packets, one with a single large packet.
    buckets = [
        [_packet(0.001 * i, "sent", "udp", None, 40) for i in range(199)],
        [_packet(1.5, "sent", "udp", None, 1400)],
    ]
    by_packets = SignalDeriver(SignalConfig(ss2_weighting="packets"))
    by_seconds = SignalDeriver(SignalConfig(ss2_weighting="seconds"))
    for mode in (by_packets, by_seconds):
        for sec, packets in enumerate(buckets):
            mode.derive(_bucket(sec, packets))
    # Weighted by packets the mean is 46.8; per-second means average to 720.
    # An idle second repeats the last score.
    assert by_packets.derive(_bucket(2)).ss2 == 10.0
    assert by_seconds.derive(_bucket(2)).ss2 == 100.0


def test_inflammation_sessions():
    deriver = SignalDeriver()
    login = ProcessEvent(10.2, 3319, "sshd", "login")
    logout = ProcessEvent(30.8, 3319, "sshd", "logout")
    assert deriver.derive(_bucket(9)).inflammation == 0
    assert deriver.derive(_bucket(10, procs=[login])).inflammation == 1
    assert deriver.derive(_bucket(11)).inflammation == 1
    assert deriver.derive(_bucket(30, procs=[logout])).inflammation == 0
    assert deriver.derive(_bucket(31)).inflammation == 0


def test_inflammation_login_logout_same_bucket():
    deriver = SignalDeriver()
    events = [ProcessEvent(5.1, 1, "sshd", "login"), ProcessEvent(5.9, 1, "sshd", "logout")]
    assert deriver.derive(_bucket(5, procs=events)).inflammation == 0


def test_inflammation_logout_without_login_fails():
    deriver = SignalDeriver()
    with pytest.raises(ValidationError):
        deriver.derive(_bucket(0, procs=[ProcessEvent(0.5, 1, "sshd", "logout")]))


def _random_bucket(rng: random.Random, second: int) -> TickBucket:
    packets = []
    for _ in range(rng.randrange(0, 40)):
        proto = rng.choice(("tcp", "udp", "icmp", "other"))
        flags = frozenset(rng.sample(("syn", "ack", "rst", "fin"), rng.randrange(1, 3))) \
            if proto == "tcp" else None
        icmp = rng.choice(("dest_unreachable", "echo_reply")) if proto == "icmp" else None
        packets.append(PacketEvent(second + rng.random() * 0.99, rng.choice(("sent", "recv")),
                                   proto, flags, rng.randrange(20, 1500), icmp))
    packets.sort(key=lambda p: p.timestamp)
    return TickBucket(second, packets, [])


def test_all_signals_stay_in_range():
    rng = random.Random(31)
    deriver = SignalDeriver()
    for second in range(300):
        sv = deriver.derive(_random_bucket(rng, second))
        for name in ("pamp1", "pamp2", "ds1", "ds2", "ss1", "ss2"):
            assert 0.0 <= getattr(sv, name) <= 100.0
        assert sv.inflammation in (0, 1)


def test_derive_is_deterministic_per_state():
    rng = random.Random(77)
    buckets = [_random_bucket(rng, s) for s in range(50)]
    a = SignalDeriver()
    b = SignalDeriver()
    for bucket in buckets:
        assert a.derive(bucket) == b.derive(bucket)
