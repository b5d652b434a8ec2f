"""Windowed MCAV computation, session summaries and verdicts.

Presentation records are cut into fixed-count windows (not time windows).
Within a window, each antigen label gets MCAV = mature presentations over
total presentations of that label.  Session statistics average the
per-window MCAVs; the standard deviation is the population form (divide
by n), as noted in the output headers.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field

from .engine import Antigen, PresentationRecord
from .errors import ConfigError, ValidationError
from .events import format_time


@dataclass(frozen=True)
class AnalysisConfig:
    window_size: int = 10000
    mcav_threshold: float = 0.5
    min_confidence: int = 1000
    include_partial: bool = False

    def __post_init__(self):
        if self.window_size <= 0:
            raise ConfigError("window_size must be positive")
        if not 0.0 <= self.mcav_threshold <= 1.0:
            raise ConfigError("mcav_threshold must lie in [0, 1]")
        if self.min_confidence < 0:
            raise ConfigError("min_confidence must be non-negative")


@dataclass(frozen=True)
class LabelWindowStats:
    presentations: int
    mature: int
    mcav: float
    proportion: float


@dataclass
class McavWindow:
    index: int
    size: int
    partial: bool
    labels: dict[str, LabelWindowStats] = field(default_factory=dict)


@dataclass(frozen=True)
class LabelSummary:
    windows: int
    mean_mcav: float
    std_mcav: float
    presentations: int
    proportion: float


VERDICT_ANOMALOUS = "anomalous"
VERDICT_NORMAL = "normal"
VERDICT_INSUFFICIENT = "insufficient-evidence"


def compute_mcav_windows(records: list[PresentationRecord],
                         config: AnalysisConfig = AnalysisConfig()) -> list[McavWindow]:
    """Cut the record sequence into count windows and score each label."""
    windows: list[McavWindow] = []
    size = config.window_size
    for start in range(0, len(records), size):
        chunk = records[start:start + size]
        window = McavWindow(
            index=len(windows),
            size=len(chunk),
            partial=len(chunk) < size,
        )
        counts: dict[str, list[int]] = {}
        for record in chunk:
            pair = counts.setdefault(record.antigen.label, [0, 0])
            pair[0] += 1
            pair[1] += record.context
        for label in sorted(counts):
            total, mature = counts[label]
            window.labels[label] = LabelWindowStats(
                presentations=total,
                mature=mature,
                mcav=mature / total,
                proportion=total / len(chunk),
            )
        windows.append(window)
    return windows


def session_summary(records: list[PresentationRecord],
                    config: AnalysisConfig = AnalysisConfig()) -> dict[str, LabelSummary]:
    """Average the per-window MCAVs per label over the whole session.

    Windows where a label never appears do not contribute to its mean, and
    a trailing partial window is left out unless configured otherwise.
    Proportions cover every record, partial window included.
    """
    windows = compute_mcav_windows(records, config)
    total_records = len(records)
    session_counts: dict[str, int] = {}
    for record in records:
        session_counts[record.antigen.label] = session_counts.get(record.antigen.label, 0) + 1
    per_label_mcavs: dict[str, list[float]] = {label: [] for label in session_counts}
    for window in windows:
        if window.partial and not config.include_partial:
            continue
        for label, stats in window.labels.items():
            per_label_mcavs[label].append(stats.mcav)
    summaries: dict[str, LabelSummary] = {}
    for label in sorted(session_counts):
        mcavs = per_label_mcavs[label]
        mean = statistics.fmean(mcavs) if mcavs else 0.0
        std = statistics.pstdev(mcavs) if mcavs else 0.0
        summaries[label] = LabelSummary(
            windows=len(mcavs),
            mean_mcav=mean,
            std_mcav=std,
            presentations=session_counts[label],
            proportion=session_counts[label] / total_records if total_records else 0.0,
        )
    return summaries


def classify(summaries: dict[str, LabelSummary],
             config: AnalysisConfig = AnalysisConfig()) -> dict[str, str]:
    """Per-label verdict from mean MCAV and the amount of evidence."""
    verdicts = {}
    for label, summary in summaries.items():
        if summary.presentations < config.min_confidence:
            verdicts[label] = VERDICT_INSUFFICIENT
        elif summary.mean_mcav > config.mcav_threshold:
            verdicts[label] = VERDICT_ANOMALOUS
        else:
            verdicts[label] = VERDICT_NORMAL
    return verdicts


def write_presentations(records: list[PresentationRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["presented_at", "pid", "label", "context"])
        for r in records:
            writer.writerow([format_time(r.presented_at), r.antigen.pid, r.antigen.label, r.context])


def read_presentations(path) -> list[PresentationRecord]:
    """Load a presentation log; arrival times are not kept in the log, so
    the rebuilt antigens reuse the presentation time."""
    records: list[PresentationRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["presented_at", "pid", "label", "context"]:
            raise ValidationError(f"unexpected presentation log header: {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValidationError(f"row {line_no}: expected 4 columns, got {len(row)}")
            try:
                t = float(row[0])
                pid = int(row[1])
                context = int(row[3])
            except ValueError as exc:
                raise ValidationError(f"row {line_no}: {exc}") from None
            if context not in (0, 1):
                raise ValidationError(f"row {line_no}: context must be 0 or 1")
            records.append(PresentationRecord(Antigen(pid, row[2], t), context, t))
    return records


def write_mcav_csv(windows: list[McavWindow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "label", "presentations", "mature", "mcav", "proportion"])
        for window in windows:
            for label, stats in window.labels.items():
                writer.writerow([
                    window.index, label, stats.presentations, stats.mature,
                    f"{stats.mcav:.6f}", f"{stats.proportion:.6f}",
                ])


def write_summary_csv(summaries: dict[str, LabelSummary], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        # std_mcav_pop: population standard deviation (divide by n).
        writer.writerow(["label", "windows", "mean_mcav", "std_mcav_pop",
                         "presentations", "proportion"])
        for label in sorted(summaries):
            s = summaries[label]
            writer.writerow([label, s.windows, f"{s.mean_mcav:.6f}", f"{s.std_mcav:.6f}",
                             s.presentations, f"{s.proportion:.6f}"])


def write_verdicts_csv(summaries: dict[str, LabelSummary], verdicts: dict[str, str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "verdict", "mean_mcav", "presentations"])
        for label in sorted(verdicts):
            s = summaries[label]
            writer.writerow([label, verdicts[label], f"{s.mean_mcav:.6f}", s.presentations])
