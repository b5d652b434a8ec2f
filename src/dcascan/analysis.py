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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ValidationError, check_fields, check_printable, not_utf8, open_text, quoted, read_number
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
class LabelSummary:
    windows: int
    mean_mcav: float
    std_mcav: float
    presentations: int
    proportion: float


VERDICT_ANOMALOUS = "anomalous"
VERDICT_NORMAL = "normal"
VERDICT_INSUFFICIENT = "insufficient-evidence"


def compute_mcav_windows(records: Iterable[tuple[str, int]], config: AnalysisConfig = AnalysisConfig()
                         ) -> list[tuple[int, Counter, Counter]]:
    """Cut the (label, context) pairs, any iterable, into count windows,
    holding one window of pairs at a time.  A window is its size and, per
    label, its presentations and its mature presentations: two ``Counter``s."""
    windows = []
    records = iter(records)
    while chunk := list(itertools.islice(records, config.window_size)):
        windows.append((len(chunk), Counter(label for label, _ in chunk),
                        Counter(label for label, context in chunk if context == 1)))
    return windows


def session_summary(windows: list[tuple[int, Counter, Counter]],
                    config: AnalysisConfig) -> dict[str, LabelSummary]:
    """Average each label's MCAV over the windows of ``compute_mcav_windows``.

    Windows where a label never appears do not contribute to its mean, and
    neither does a partial window, one shorter than ``config.window_size``.
    A label with no complete window takes its session MCAV, its mature over
    all of its presentations, as its mean.  Counts and proportions cover
    every record, partial window included.
    """
    counts: Counter = Counter()
    matures: Counter = Counter()
    per_label_mcavs: dict[str, list[float]] = {}
    for size, totals, mature in windows:
        counts.update(totals)
        matures.update(mature)
        for label, presentations in totals.items():
            mcavs = per_label_mcavs.setdefault(label, [])
            if size >= config.window_size:
                mcavs.append(mature[label] / presentations)
    total_records = sum(size for size, _, _ in windows)
    return {label: LabelSummary(windows=len(mcavs),
                                mean_mcav=statistics.fmean(mcavs) if mcavs else matures[label] / counts[label],
                                std_mcav=statistics.pstdev(mcavs) if mcavs else 0.0,
                                presentations=counts[label],
                                proportion=counts[label] / total_records)
            for label, mcavs in sorted(per_label_mcavs.items())}


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
    """Check that each row of a presentation log is one a run writes, each number spelled
    as a run writes it, ``str(n)`` of an int, its time not negative, its pid positive, its
    label printable and its context 0 or 1, and yield its (label, context) pair, one row at a time."""
    line_no = 0  # the lines read

    def lines(fh):  # csv itself refuses a NUL only up to CPython 3.10
        nonlocal line_no
        for line_no, line in enumerate(fh, start=1):
            if why := not_utf8(line):  # checked by line, as a quoted field may hold a line end
                raise ValidationError(why)
            if "\0" in line:
                raise ValidationError("line contains NUL")
            yield line

    with open_text(path, newline="") as fh:
        reader = csv.reader(lines(fh))
        try:
            if (header := next(reader, None)) != LOG_HEADER:
                raise ValidationError(f"unexpected presentation log header: {quoted(str(header), str)}")
            for row in filter(None, reader):  # csv reads a blank line as []
                if len(row) != 4:
                    raise ValidationError(f"expected 4 columns, got {len(row)}")
                read_number("presented_at", row[0], bounds=(0, math.inf))
                read_number("pid", row[1], positive=True)
                yield check_printable("label", row[2]), read_number("context", row[3], bounds=(0, 1))
        except (csv.Error, ValidationError) as exc:
            # csv.Error: a line csv cannot read, the header included, e.g. a field over its size limit.
            raise ValidationError(f"row {max(line_no, 1)}: {exc}") from None  # an empty log's header: row 1


def write_mcav_csv(windows: list[tuple[int, Counter, Counter]], path) -> None:
    with open_table(path, ["window", "label", "presentations", "mature", "mcav", "proportion"]) as write:
        write([index, label, totals[label], mature[label], f"{mature[label] / totals[label]:.6f}",
               f"{totals[label] / size:.6f}"]
              for index, (size, totals, mature) in enumerate(windows) for label in sorted(totals))


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
