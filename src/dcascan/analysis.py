"""Windowed MCAV computation, session summaries and verdicts.

Presentations, (label, context) pairs, are cut into fixed-count windows
(not time windows).  Within a window, each label gets MCAV = mature
presentations over total presentations of that label.  Session statistics
average the per-window MCAVs; the standard deviation is the population
form (divide by n), as noted in the output headers.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ValidationError, check_fields
from .events import replacing


@dataclass(frozen=True)
class AnalysisConfig:
    window_size: int = 10000
    mcav_threshold: float = 0.5
    min_confidence: int = 1000

    def __post_init__(self):
        # sys.maxsize: the longest window itertools.islice cuts.
        check_fields(self, positive=("window_size",), window_size=(1, sys.maxsize),
                     mcav_threshold=(0, 1), min_confidence=(0, math.inf))


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


def compute_mcav_windows(records: Iterable[tuple[str, int]],
                         config: AnalysisConfig = AnalysisConfig()) -> list[McavWindow]:
    """Cut the (label, context) pairs, any iterable, into count windows and
    score each label, holding one window of pairs at a time."""
    windows: list[McavWindow] = []
    size = config.window_size
    records = iter(records)
    while chunk := list(itertools.islice(records, size)):
        window = McavWindow(
            index=len(windows),
            size=len(chunk),
            partial=len(chunk) < size,
        )
        totals = Counter(label for label, _ in chunk)
        mature = Counter(label for label, context in chunk if context == 1)
        for label in sorted(totals):
            window.labels[label] = LabelWindowStats(
                presentations=totals[label],
                mature=mature[label],
                mcav=mature[label] / totals[label],
                proportion=totals[label] / len(chunk),
            )
        windows.append(window)
    return windows


def session_summary(windows: list[McavWindow]) -> dict[str, LabelSummary]:
    """Average the per-window MCAVs of ``compute_mcav_windows`` per label.

    Windows where a label never appears do not contribute to its mean, and
    neither does a trailing partial window.  Counts and proportions cover
    every record, partial window included.
    """
    total_records = sum(window.size for window in windows)
    session_counts: dict[str, int] = {}
    per_label_mcavs: dict[str, list[float]] = {}
    for window in windows:
        for label, stats in window.labels.items():
            session_counts[label] = session_counts.get(label, 0) + stats.presentations
            mcavs = per_label_mcavs.setdefault(label, [])
            if not window.partial:
                mcavs.append(stats.mcav)
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
            proportion=session_counts[label] / total_records,
        )
    return summaries


def classify(summaries: dict[str, LabelSummary],
             config: AnalysisConfig = AnalysisConfig()) -> dict[str, str]:
    """Per-label verdict from mean MCAV and the amount of evidence."""
    verdicts = {}
    for label, summary in summaries.items():
        if summary.presentations < config.min_confidence or summary.windows == 0:
            verdicts[label] = VERDICT_INSUFFICIENT
        elif summary.mean_mcav > config.mcav_threshold:
            verdicts[label] = VERDICT_ANOMALOUS
        else:
            verdicts[label] = VERDICT_NORMAL
    return verdicts


@contextmanager
def open_table(path, header: list[str]):
    """Write a CSV file's header row through ``events.replacing`` and yield its ``writerows``."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer.writerows


LOG_HEADER = ["presented_at", "pid", "label", "context"]


def write_presentations(records: list[tuple], second: int, write) -> None:
    """Write a tick's pairs with the ``writerows`` of ``open_table(path, LOG_HEADER)``."""
    write([second, antigen.pid, antigen.process_name, context] for antigen, context in records)


def read_presentations(path) -> Iterator[tuple[str, int]]:
    """Check each row of a presentation log, its time and pid numeric and its
    context the text ``0`` or ``1``, and yield its (label, context) pair, one row at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != LOG_HEADER:
                raise ValidationError(f"unexpected presentation log header: {header}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ValidationError(f"row {line_no}: expected 4 columns, got {len(row)}")
                try:
                    float(row[0])
                    int(row[1])
                except ValueError as exc:
                    raise ValidationError(f"row {line_no}: {exc}") from None
                if row[3] not in ("0", "1"):  # the only texts a run writes
                    raise ValidationError(f"row {line_no}: context must be 0 or 1")
                yield row[2], int(row[3])
        except csv.Error as exc:
            # A line csv cannot read, the header included, e.g. a field over its size limit.
            raise ValidationError(f"row {reader.line_num}: {exc}") from None


def write_mcav_csv(windows: list[McavWindow], path) -> None:
    with open_table(path, ["window", "label", "presentations", "mature", "mcav", "proportion"]) as write:
        write([window.index, label, stats.presentations, stats.mature,
               f"{stats.mcav:.6f}", f"{stats.proportion:.6f}"]
              for window in windows for label, stats in window.labels.items())


def write_summary_csv(summaries: dict[str, LabelSummary], path) -> None:
    # std_mcav_pop: population standard deviation (divide by n).
    with open_table(path, ["label", "windows", "mean_mcav", "std_mcav_pop", "presentations",
                           "proportion"]) as write:
        write([label, s.windows, f"{s.mean_mcav:.6f}", f"{s.std_mcav:.6f}",
               s.presentations, f"{s.proportion:.6f}"] for label, s in sorted(summaries.items()))


def write_verdicts_csv(summaries: dict[str, LabelSummary], verdicts: dict[str, str], path) -> None:
    with open_table(path, ["label", "verdict", "mean_mcav", "presentations"]) as write:
        write([label, verdicts[label], f"{summaries[label].mean_mcav:.6f}",
               summaries[label].presentations] for label in sorted(verdicts))
