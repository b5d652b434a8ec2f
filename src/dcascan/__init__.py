"""Dendritic cell algorithm engine for detecting outbound SYN port scans.

The package covers the full loop: synthetic scenario generation, a
deterministic one-second replay harness, signal derivation, the cell
population engine, and MCAV-based analysis of what the cells present.
"""

from .analysis import AnalysisConfig, classify, compute_mcav_windows, session_summary
from .engine import DcaEngine, EngineConfig, WeightMatrix
from .events import PacketEvent, ProcessEvent
from .pipeline import RunResult, run_stream
from .scenario import NormalProfile, ScanProfile, SessionProfile, gen_dataset
from .signals import SignalConfig, SignalDeriver, SignalVector

__all__ = [
    "AnalysisConfig",
    "DcaEngine",
    "EngineConfig",
    "NormalProfile",
    "PacketEvent",
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
    "run_stream",
    "session_summary",
]
