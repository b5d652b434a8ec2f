"""Command-line interface.

Commands:
    generate   write a synthetic labelled event file
    run        replay an event file through the engine, log presentations
    analyze    score a presentation log into MCAV windows and verdicts
    pipeline   generate, run and analyze in one call

Exit codes: 0 success, 1 usage, 2 invalid data or configuration, 3 I/O.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import os
import signal
import sys
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from functools import partial

from . import analysis, pipeline
from .config import PipelineConfig, build_config
from .errors import ConfigError, DcaError, open_text
from .events import FrameStream, iter_buckets, replacing, save_stream, write_frames, write_stream
from .scenario import DATASET_KINDS, gen_dataset


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_config_arg(sub):
    sub.add_argument("--config", metavar="FILE", default=None,
                     help="flat key=value config file with dotted section keys")


def _add_scan_args(sub):
    sub.add_argument("--scan-start", type=float, default=None,
                     help="second at which the scan begins (default: scaled to duration)")
    sub.add_argument("--scan-duration", type=float, default=None,
                     help="length of the scan window in seconds")
    sub.add_argument("--no-scan", action="store_true",
                     help="leave the scan out (benign traffic only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcascan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a synthetic event file")
    gen.add_argument("kind", choices=DATASET_KINDS)
    gen.add_argument("--duration", type=float, default=7000.0,
                     help="session length in virtual seconds (default 7000)")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True, metavar="FILE")
    _add_scan_args(gen)
    _add_config_arg(gen)
    gen.set_defaults(func=cmd_generate)

    run = commands.add_parser("run", help="replay an event file through the engine")
    run.add_argument("events", metavar="EVENTS_FILE")
    run.add_argument("--seed", type=int, required=True,
                     help="engine seed; runs never draw entropy from the clock")
    run.add_argument("--out", default="presentations.csv", metavar="FILE")
    run.add_argument("--signal-trace", default=None, metavar="FILE",
                     help="also write the per-second signal vectors")
    _add_config_arg(run)
    run.set_defaults(func=cmd_run)

    ana = commands.add_parser("analyze", help="score a presentation log")
    ana.add_argument("log", metavar="PRESENTATIONS_CSV")
    ana.add_argument("--out-dir", default=".", metavar="DIR")
    _add_config_arg(ana)
    ana.set_defaults(func=cmd_analyze)

    pipe = commands.add_parser("pipeline", help="generate, run and analyze in one call")
    pipe.add_argument("kind", choices=DATASET_KINDS)
    pipe.add_argument("--duration", type=float, default=7000.0)
    pipe.add_argument("--seed", type=int, required=True,
                      help="seed for both generation and the engine")
    pipe.add_argument("--out-dir", required=True, metavar="DIR")
    pipe.add_argument("--signal-trace", action="store_true",
                      help="also write signals.csv")
    _add_scan_args(pipe)
    _add_config_arg(pipe)
    pipe.set_defaults(func=cmd_pipeline)
    return parser


def _generate_stream(args, config: PipelineConfig):
    return gen_dataset(
        args.kind,
        args.duration,
        args.seed,
        scan_start=args.scan_start,
        scan_duration=args.scan_duration,
        scan=config.scan,
        normal=config.normal,
        session=config.session,
        include_scan=not args.no_scan,
    )


def _check_paths(inputs, outputs) -> None:
    """Reject, before anything is read or written, an output that would replace
    an input or another output.  Both are (name, path) pairs, and a path of None
    is left out.  An output is written to ``<path>.part`` and renamed to ``path``,
    so it clashes with a file that either name resolves to."""
    real = os.path.realpath
    sources = {real(path): what for what, path in inputs if path}
    written = []
    for name, path in ((name, path) for name, path in outputs if path):
        final, part = real(path), real(f"{path}.part")
        if what := sources.get(final) or sources.get(part):
            raise _UsageError(f"{name} would overwrite the {what}: {path}")
        for other, other_path, other_final, other_part in written:
            if final == other_final:
                raise _UsageError(f"{other} and {name} name the same file: {other_path}")
            if final == other_part or part == other_final:
                raise _UsageError(f"{other} and {name} name a file and its .part file: "
                                  f"{other_path}, {path}")
        written.append((name, path, final, part))


def cmd_generate(args) -> int:
    _check_paths([("config file", args.config)], [("--out", args.out)])
    config = build_config(args.config)
    stream = _generate_stream(args, config)
    packets, processes = save_stream(stream, args.out)
    print(f"wrote {args.out}: {packets} packet events, "
          f"{processes} process events, duration {stream.duration:g}s")
    return 0


@contextmanager
def _tick_writer(log_path, trace_path):
    """Open the presentation log and, when ``trace_path`` is set, the signal trace;
    yield the ``each_tick`` of ``pipeline.run_stream`` that writes a tick's rows."""
    with analysis.open_table(log_path, analysis.LOG_HEADER) as write_log, \
            (analysis.open_table(trace_path, pipeline.SIGNAL_HEADER) if trace_path
             else nullcontext()) as write_trace:
        def each_tick(second, signals, records):
            analysis.write_presentations(records, second, write_log)
            if write_trace is not None:
                write_trace((pipeline.signal_row(second, signals),))
        yield each_tick


def cmd_run(args) -> int:
    _check_paths([("events file", args.events), ("config file", args.config)],
                 [("--out", args.out), ("--signal-trace", args.signal_trace)])
    config = build_config(args.config)
    # The log's block holds the reader's, so a reader that fails after its last frame leaves no log.
    with open_text(args.events) as fh, \
            _tick_writer(args.out, args.signal_trace) as each_tick, \
            _in_child(f"the reader of {args.events}", partial(write_frames, fh)) as receive:
        result = pipeline.run_stream(iter_buckets(FrameStream(receive)), config.engine, config.signals,
                                     seed=args.seed, each_tick=each_tick)
    print(f"replayed {result.ticks} ticks: {result.audit['presented']} presentations "
          f"({result.audit['ingested']} antigen ingested, "
          f"{result.audit['overwritten']} overwritten) -> {args.out}")
    return 0


def _analysis_outputs(out_dir) -> list[tuple[str, str]]:
    """The (name, path) pair of each file ``_analyze`` writes."""
    return [(name, os.path.join(out_dir, name))
            for name in ("mcav.csv", "summary.csv", "verdicts.csv")]


def _analyze(log, out_dir, config: analysis.AnalysisConfig) -> None:
    """Score a presentation log, one window at a time, into the three CSVs of ``out_dir``."""
    windows = analysis.compute_mcav_windows(analysis.read_presentations(log), config)
    if not windows:
        print("warning: presentation log is empty", file=sys.stderr)
    summaries = analysis.session_summary(windows, config)
    verdicts = analysis.classify(summaries, config)
    os.makedirs(out_dir, exist_ok=True)
    mcav_path, summary_path, verdicts_path = (path for _, path in _analysis_outputs(out_dir))
    analysis.write_mcav_csv(windows, mcav_path)
    analysis.write_summary_csv(summaries, summary_path)
    analysis.write_verdicts_csv(summaries, verdicts, verdicts_path)
    for label in sorted(verdicts):
        summary = summaries[label]
        print(f"{label}: {verdicts[label]} (mean mcav {summary.mean_mcav:.3f} "
              f"over {summary.presentations} presentations)")
    print(f"wrote mcav.csv, summary.csv, verdicts.csv in {out_dir}")


def cmd_analyze(args) -> int:
    _check_paths([("log", args.log), ("config file", args.config)],
                 _analysis_outputs(args.out_dir))
    _analyze(args.log, args.out_dir, build_config(args.config).analysis)
    return 0


def _send(out, obj, error=None) -> None:
    data = marshal.dumps((obj, error))
    out.write(len(data).to_bytes(8, "little"))
    out.write(data)
    out.flush()


def _receive(pipe):
    """The next object the child sent; raises what it raised, or EOFError."""
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    if not 0 < len(data) == size:
        raise EOFError("the child ended before its last message")
    obj, error = marshal.loads(data)
    if error is not None:
        import pickle  # only for an error, so that a run imports no more than marshal
        raise pickle.loads(error)
    return obj


@contextmanager
def _in_child(who: str, work):
    """Run the generator ``work()`` in a forked child while the block runs and
    yield ``receive``, which returns the next object that ``work()`` yields.

    The child sends each object up a pipe with marshal, so the child and the
    block use two cores (dcascan starts no threads, so the child inherits no
    held lock).  What ``work`` raises is its last message, raised again as the
    same type.  The parent closes its end of the pipe before it reaps the
    child in a ``finally``, so a child blocked on a full pipe ends.  A child
    killed or failed before its last message is one OSError naming ``who``.
    Without fork, ``receive`` is ``work().__next__`` and what is left of
    ``work()`` runs after the block; as with a child, the block's error wins.
    """
    if not hasattr(os, "fork"):
        items = work()
        try:
            yield items.__next__
        except Exception:
            with suppress(Exception):
                deque(items, 0)
            raise
        deque(items, 0)
        return
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        with open(write_end, "wb") as out:
            if (pid := os.fork()) == 0:  # the child, which leaves by os._exit on every path
                code = 1
                try:
                    pipe.close()  # or a write to a pipe the parent has closed would block
                    for obj in work():
                        _send(out, obj)
                    code = 0
                except Exception as exc:
                    import pickle
                    _send(out, None, pickle.dumps(exc))
                finally:
                    os._exit(code)
        done = False
        try:
            yield partial(_receive, pipe)
            done = True
            _receive(pipe)  # a failure sent after the block's last message
        except EOFError:
            pass
        finally:
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise OSError(f"{who} was killed by signal {-code} ({signal.strsignal(-code)})")
    if code or not done:
        raise OSError(f"{who} exited with status {code}")


def _write_events(stream, fh):
    """Write the event file and close it, so that a failed flush is raised
    here; for _in_child, a generator that yields the number of events written."""
    written = sum(write_stream(stream, fh))
    fh.close()
    yield written


def cmd_pipeline(args) -> int:
    events_path = os.path.join(args.out_dir, "events.txt")
    log_path = os.path.join(args.out_dir, "presentations.csv")
    trace_path = os.path.join(args.out_dir, "signals.csv") if args.signal_trace else None
    _check_paths([("config file", args.config)],
                 [("events.txt", events_path), ("presentations.csv", log_path),
                  ("signals.csv", trace_path), *_analysis_outputs(args.out_dir)])
    config = build_config(args.config)
    stream = _generate_stream(args, config)
    os.makedirs(args.out_dir, exist_ok=True)
    # The writer makes the events anew; events.txt is renamed first, the tables only once it is.
    with _tick_writer(log_path, trace_path) as each_tick, replacing(events_path) as fh, \
            _in_child(f"the writer of {events_path}", partial(_write_events, stream, fh)) as receive:
        result = pipeline.run_stream(iter_buckets(stream), config.engine, config.signals,
                                     seed=args.seed, each_tick=each_tick)
        if (written := receive()) != stream.event_count:
            raise OSError(f"the writer of {events_path} wrote {written} events, "
                          f"the replay read {stream.event_count}")
    print(f"generated {events_path}: {written} events")
    print(f"replayed {result.ticks} ticks: {result.audit['presented']} presentations")
    _analyze(log_path, args.out_dir, config.analysis)
    return 0


def main(argv=None) -> int:
    # Apart from the argument parser, nothing a command builds forms a reference
    # cycle, so reference counting frees it; the collector would only rescan events.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
