"""Dendritic cell algorithm engine for detecting outbound SYN port scans.

The package covers the full loop: synthetic scenario generation, a
deterministic one-second replay harness, signal derivation, the cell
population engine, and MCAV-based analysis of what the cells present.
"""

from .analysis import AnalysisConfig, classify, compute_mcav_windows, session_summary
from .engine import Antigen, DcaEngine, EngineConfig, PresentationRecord, WeightMatrix
from .events import EventStream, PacketEvent, ProcessEvent, parse_stream, serialize_stream
from .pipeline import RunResult, run_stream
from .scenario import NormalProfile, ScanProfile, SessionProfile, gen_dataset
from .signals import SignalConfig, SignalDeriver, SignalVector

__all__ = [
    "AnalysisConfig",
    "Antigen",
    "DcaEngine",
    "EngineConfig",
    "EventStream",
    "NormalProfile",
    "PacketEvent",
    "PresentationRecord",
    "ProcessEvent",
    "RunResult",
    "ScanProfile",
    "SessionProfile",
    "SignalConfig",
    "SignalDeriver",
    "SignalVector",
    "WeightMatrix",
    "classify",
    "compute_mcav_windows",
    "gen_dataset",
    "parse_stream",
    "run_stream",
    "serialize_stream",
    "session_summary",
]
