"""Boundary tracer for one in-process ``dcascan`` CLI call.

Run as a script, it wraps the public functions at each module boundary of
``dcascan``, calls ``dcascan.cli.main`` with the arguments after ``--``,
takes the wrappers off again and writes every span and count as JSON::

    python3 bench/tracer.py --out trace.json --run-id 7 -- run events.txt --seed 7

The wrappers live only in this process and only while the call runs; no
file of ``dcascan`` changes.  A span is ``[name, start, end, parent]`` with
``perf_counter`` seconds and the index of the enclosing span (``None`` for
the root ``cli.main``).  ``layer_metrics`` turns a written trace into the
per-layer figures the benchmark reports, and ``check_trace`` verifies that
spans nest and that the engine counts seen at the boundary match
``DcaEngine.audit()``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

ROOT_SPAN = "cli.main"
SCORE_SPANS = ("analysis.compute_mcav_windows", "analysis.session_summary", "analysis.classify")
CSV_SPANS = ("analysis.write_mcav_csv", "analysis.write_summary_csv", "analysis.write_verdicts_csv")
ENGINE_COUNTS = ("ingested", "overwritten", "presented")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counts of one traced call, kept in memory until it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.audit: dict[str, int] | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts,
                "gauges": self.gauges, "audit": self.audit}


def timed(tracer: Tracer, name: str, before=None, after=None):
    """Wrap a function in a span; ``before``/``after`` hooks run outside it."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after:
                after(state, result, *args, **kwargs)
            return result
        return wrapper
    return make


def timed_iterator(tracer: Tracer, name: str, count: str):
    """Wrap a generator function so that every ``next()`` is one span."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                tracer.add(count, 1)
                yield item
        return wrapper
    return make


def counted(tracer: Tracer, count: str):
    """Wrap a function so that every call adds one to ``count``; no span."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(count, 1)
            return fn(*args, **kwargs)
        return wrapper
    return make


def boundary(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from dcascan import analysis, engine, events, pipeline, scenario, signals

    def gauge(key):
        def after(*_):
            tracer.gauges[key] = peak_rss_mb()
        return after

    def stream_built(_, stream, *args, **kwargs):
        tracer.add("scenario.events_out", stream.event_count)
        tracer.gauges["rss.after_input_mb"] = peak_rss_mb()

    def file_written(_, __, stream, path, *args, **kwargs):
        tracer.add("events.bytes_out", os.path.getsize(path))

    def text_parsed(_, __, text, *args, **kwargs):
        tracer.add("events.lines_in", text.count("\n") + (not text.endswith("\n") and bool(text)))

    def replayed(_, result, *args, **kwargs):
        tracer.gauges["rss.after_replay_mb"] = peak_rss_mb()
        tracer.audit = dict(result.audit)

    def packets_in(_, bucket, *args, **kwargs):
        tracer.add("signals.packets_in", len(bucket.packet_events))

    def tick_before(engine_, signals_, antigens, *args, **kwargs):
        tissue = engine_.tissue
        return tissue.occupied_count, len(antigens), tissue.capacity

    def tick_after(state, records, *args, **kwargs):
        occupied, arriving, capacity = state
        tracer.add("pipeline.antigens_built", arriving)
        tracer.add("engine.ingested", arriving)
        # Arrivals fill free slots first and overwrite only once the tissue is full.
        tracer.add("engine.overwritten", max(0, occupied + arriving - capacity))
        tracer.add("engine.presented", len(records))

    def records_written(_, __, records, *args, **kwargs):
        tracer.add("analysis.records", len(records))

    targets = [
        (scenario, "gen_dataset", timed(tracer, "scenario.gen_dataset", after=stream_built)),
        (events, "serialize_stream", timed(tracer, "events.serialize_stream")),
        (events, "save_stream", timed(tracer, "events.save_stream", after=file_written)),
        (events, "parse_stream", timed(tracer, "events.parse_stream", after=text_parsed)),
        (events, "load_stream", timed(tracer, "events.load_stream",
                                      after=gauge("rss.after_input_mb"))),
        (events, "iter_buckets", timed_iterator(tracer, "events.iter_buckets", "events.buckets")),
        (pipeline, "run_stream", timed(tracer, "pipeline.run_stream", after=replayed)),
        (signals.SignalDeriver, "derive", timed(tracer, "signals.derive", before=packets_in)),
        (engine.DcaEngine, "tick", timed(tracer, "engine.tick",
                                         before=tick_before, after=tick_after)),
        (engine.DendriticCell, "reset", counted(tracer, "engine.migrations")),
        (analysis, "write_presentations", timed(tracer, "analysis.write_presentations",
                                                after=records_written)),
    ]
    targets += [(analysis, name.split(".")[1], timed(tracer, name))
                for name in SCORE_SPANS + CSV_SPANS]
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Install the boundary wrappers for the duration of the block.

    A module-level function is replaced in every ``dcascan`` module that
    holds it, so calls through ``from x import f`` names are traced too.
    Every replaced attribute is put back on exit, whatever happened.
    """
    patched: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in boundary(tracer):
            original = vars(owner)[attr]
            wrapper = make(original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for name, m in list(sys.modules.items())
                           if m is not None and (name == "dcascan" or name.startswith("dcascan."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)


def traced_main(argv: list[str], run_id: str) -> tuple[int, Tracer]:
    """Run ``dcascan.cli.main(argv)`` under the wrappers; return its exit code."""
    from dcascan import cli

    tracer = Tracer(run_id)
    with installed(tracer):
        span = tracer.begin(ROOT_SPAN)
        try:
            code = cli.main(argv)
        finally:
            tracer.end(span)
    return code, tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def check_trace(trace: dict) -> list[str]:
    """Problems with a written trace; an empty list means it is consistent."""
    spans = trace["spans"]
    problems = []
    roots = [i for i, s in enumerate(spans) if s[3] is None]
    if roots != [0] or spans[0][0] != ROOT_SPAN:
        problems.append(f"expected one root span {ROOT_SPAN!r}, got {len(roots)}")
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent is not None:
            p = spans[parent]
            if not (parent < i and p[1] <= start and end <= p[2]):
                problems.append(f"span {i} {name} does not nest inside span {parent} {p[0]}")
    total_self = sum(self_times(spans))
    if spans and abs(total_self - (spans[0][2] - spans[0][1])) > 1e-6:
        problems.append(f"self times sum to {total_self}, root lasts {spans[0][2] - spans[0][1]}")
    audit = trace["audit"]
    if audit is None:
        problems.append("no engine audit was recorded")
    else:
        for key in ENGINE_COUNTS:
            seen = trace["counts"].get(f"engine.{key}", 0)
            if seen != audit[key]:
                problems.append(f"engine.{key}: {seen} counted at the boundary, "
                                f"{audit[key]} in the audit")
        if audit["balanced"] != 1:
            problems.append(f"engine audit is not balanced: {audit}")
    return problems[:20]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one trace, keyed by benchmark metric name."""
    spans = trace["spans"]
    selfs = self_times(spans)
    counts = trace["counts"]
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_sum[name] = self_sum.get(name, 0.0) + own

    def total(*names):
        return sum(sum(durations.get(n, ())) for n in names)

    score = sum(end - start for name, start, end, parent in spans
                if name in SCORE_SPANS and spans[parent][0] not in SCORE_SPANS)
    ticks = durations.get("engine.tick", [])
    if len(ticks) >= 2:
        cuts = statistics.quantiles(ticks, n=100)
    else:
        cuts = [ticks[0] if ticks else 0.0] * 99
    audit = trace["audit"] or {}
    ingested = counts.get("engine.ingested", 0)
    return {
        "scenario.gen_dataset.s": total("scenario.gen_dataset"),
        "scenario.events_out": counts.get("scenario.events_out", 0),
        "events.serialize_stream.s": total("events.serialize_stream"),
        "events.bytes_out": counts.get("events.bytes_out", 0),
        "events.save_stream.self_s": self_sum.get("events.save_stream", 0.0),
        "events.parse_stream.s": total("events.parse_stream"),
        "events.lines_in": counts.get("events.lines_in", 0),
        "events.load_stream.self_s": self_sum.get("events.load_stream", 0.0),
        "rss.after_input_mb": trace["gauges"].get("rss.after_input_mb", 0.0),
        "events.iter_buckets.s": total("events.iter_buckets"),
        "events.buckets": counts.get("events.buckets", 0),
        "signals.derive.s": total("signals.derive"),
        "signals.packets_in": counts.get("signals.packets_in", 0),
        "pipeline.run_stream.s": total("pipeline.run_stream"),
        "pipeline.run_stream.self_s": self_sum.get("pipeline.run_stream", 0.0),
        "pipeline.antigens_built": counts.get("pipeline.antigens_built", 0),
        "engine.tick.s": total("engine.tick"),
        "engine.tick.p50_ms": cuts[49] * 1000.0,
        "engine.tick.p99_ms": cuts[98] * 1000.0,
        "engine.ingested": ingested,
        "engine.overwritten": counts.get("engine.overwritten", 0),
        "engine.presented": counts.get("engine.presented", 0),
        "engine.migrations": counts.get("engine.migrations", 0),
        "engine.presented_per_ingested":
            counts.get("engine.presented", 0) / ingested if ingested else 0.0,
        "engine.balanced": audit.get("balanced", 0),
        "analysis.write_presentations.s": total("analysis.write_presentations"),
        "analysis.score.s": score,
        "analysis.write_csv.s": total(*CSV_SPANS),
        "analysis.records": counts.get("analysis.records", 0),
        "cli.main.s": total(ROOT_SPAN),
        "cli.main.self_s": self_sum.get(ROOT_SPAN, 0.0),
        "rss.after_replay_mb": trace["gauges"].get("rss.after_replay_mb", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the dcascan command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    code, tracer = traced_main(cli_args, args.run_id)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
