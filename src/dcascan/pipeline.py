"""Glue: replay one-second event buckets through signal derivation and the engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .engine import DcaEngine, EngineConfig
from .events import ProcessEvent, TickBucket
from .signals import SignalConfig, SignalDeriver, SignalVector


@dataclass
class RunResult:
    ticks: int
    audit: dict[str, int]


def run_stream(buckets: Iterable[TickBucket],
               engine_config: EngineConfig | None = None,
               signal_config: SignalConfig | None = None,
               *,
               seed: int = 0,
               each_tick: Callable[[int, SignalVector, list[tuple[ProcessEvent, int]]], object]
               ) -> RunResult:
    """Replay one-second buckets in order, as ``events.iter_buckets`` yields
    them, through a fresh deriver and an engine seeded with ``seed``; each
    bucket's syscall events are the antigens, not copies.  After each tick's
    conservation check, ``each_tick(second, signals, records)`` gets the
    tick's output, which the replay does not keep."""
    deriver = SignalDeriver(signal_config)
    engine = DcaEngine(engine_config, seed)
    for bucket in buckets:
        signals = deriver.derive(bucket)
        antigens = [ev for ev in bucket.process_events if ev.kind == "syscall"]
        records = engine.tick(signals, antigens)
        engine.check_conservation()
        each_tick(bucket.second, signals, records)
    return RunResult(engine.ticks_run, engine.audit())


SIGNAL_HEADER = ["t", "pamp1", "pamp2", "ds1", "ds2", "ss1", "ss2", "inflammation"]


def signal_row(second: int, sv: SignalVector) -> list:
    return [second, f"{sv.pamp1:.4f}", f"{sv.pamp2:.4f}", f"{sv.ds1:.4f}", f"{sv.ds2:.4f}",
            f"{sv.ss1:.4f}", f"{sv.ss2:.4f}", sv.inflammation]
