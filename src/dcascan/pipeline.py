"""Glue: replay one-second event buckets through signal derivation and the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .analysis import write_table
from .engine import DcaEngine, EngineConfig, PresentationRecord
from .events import TickBucket
from .signals import SignalConfig, SignalDeriver, SignalVector


@dataclass
class RunResult:
    records: list[PresentationRecord] = field(default_factory=list)
    signal_trace: list[tuple[int, SignalVector]] = field(default_factory=list)
    ticks: int = 0
    audit: dict[str, int] = field(default_factory=dict)


def run_stream(buckets: Iterable[TickBucket],
               engine_config: EngineConfig | None = None,
               signal_config: SignalConfig | None = None,
               *,
               seed: int = 0,
               collect_trace: bool = False) -> RunResult:
    """Replay one-second buckets in order, as ``events.iter_buckets`` or
    ``events.read_frames`` yields them, tick by tick through a fresh deriver
    and an engine seeded with ``seed``; each bucket's syscall events are the
    antigens, not copies.  Antigen conservation is checked after every tick.
    """
    deriver = SignalDeriver(signal_config)
    engine = DcaEngine(engine_config, seed)
    result = RunResult()
    for bucket in buckets:
        signals = deriver.derive(bucket)
        antigens = [ev for ev in bucket.process_events if ev.kind == "syscall"]
        result.records.extend(engine.tick(signals, antigens, float(bucket.second)))
        engine.check_conservation()
        if collect_trace:
            result.signal_trace.append((bucket.second, signals))
    result.ticks = engine.ticks_run
    result.audit = engine.audit()
    return result


def write_signal_trace(trace: list[tuple[int, SignalVector]], path) -> None:
    write_table(path, ["t", "pamp1", "pamp2", "ds1", "ds2", "ss1", "ss2", "inflammation"],
                ([second, f"{sv.pamp1:.4f}", f"{sv.pamp2:.4f}", f"{sv.ds1:.4f}", f"{sv.ds2:.4f}",
                  f"{sv.ss1:.4f}", f"{sv.ss2:.4f}", sv.inflammation] for second, sv in trace))
