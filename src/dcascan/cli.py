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
import os
import sys
from dataclasses import replace

from . import analysis, pipeline
from .config import PipelineConfig, build_config
from .errors import ConfigError, DcaError
from .events import load_stream, save_stream
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


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


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
    run.add_argument("--audit-every", type=non_negative_int, default=0, metavar="N",
                     help="verify antigen accounting every N ticks")
    _add_config_arg(run)
    run.set_defaults(func=cmd_run)

    ana = commands.add_parser("analyze", help="score a presentation log")
    ana.add_argument("log", metavar="PRESENTATIONS_CSV")
    ana.add_argument("--out-dir", default=".", metavar="DIR")
    ana.add_argument("--window-size", type=int, default=None)
    ana.add_argument("--mcav-threshold", type=float, default=None)
    ana.add_argument("--min-confidence", type=int, default=None)
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
    pipe.add_argument("--audit-every", type=non_negative_int, default=0, metavar="N")
    _add_scan_args(pipe)
    _add_config_arg(pipe)
    pipe.set_defaults(func=cmd_pipeline)
    return parser


def _analysis_config(config: PipelineConfig, args) -> analysis.AnalysisConfig:
    """The analysis section with the flags of ``analyze`` applied over it."""
    flags = ("window_size", "mcav_threshold", "min_confidence")
    updates = {name: getattr(args, name) for name in flags if getattr(args, name, None) is not None}
    return replace(config.analysis, **updates)


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


def cmd_generate(args) -> int:
    config = build_config(args.config)
    stream = _generate_stream(args, config)
    save_stream(stream, args.out)
    print(f"wrote {args.out}: {len(stream.packet_events)} packet events, "
          f"{len(stream.process_events)} process events, duration {stream.duration:g}s")
    return 0


def _run_and_write(args, config: PipelineConfig, stream, out, trace_out):
    """Replay the stream with the engine seeded from --seed, write the
    presentation log and, when ``trace_out`` is set, the signal trace."""
    result = pipeline.run_stream(
        stream,
        replace(config.engine, seed=args.seed),
        config.signals,
        audit_every=args.audit_every,
        collect_trace=trace_out is not None,
    )
    analysis.write_presentations(result.records, out)
    if trace_out is not None:
        pipeline.write_signal_trace(result.signal_trace, trace_out)
    return result


def cmd_run(args) -> int:
    config = build_config(args.config)
    stream = load_stream(args.events)
    result = _run_and_write(args, config, stream, args.out, args.signal_trace)
    print(f"replayed {result.ticks} ticks: {len(result.records)} presentations "
          f"({result.audit['ingested']} antigen ingested, "
          f"{result.audit['overwritten']} overwritten) -> {args.out}")
    return 0


def _analyze_records(records, out_dir, analysis_config) -> None:
    windows = analysis.compute_mcav_windows(records, analysis_config)
    summaries = analysis.session_summary(records, analysis_config)
    verdicts = analysis.classify(summaries, analysis_config)
    os.makedirs(out_dir, exist_ok=True)
    analysis.write_mcav_csv(windows, os.path.join(out_dir, "mcav.csv"))
    analysis.write_summary_csv(summaries, os.path.join(out_dir, "summary.csv"))
    analysis.write_verdicts_csv(summaries, verdicts, os.path.join(out_dir, "verdicts.csv"))
    for label in sorted(verdicts):
        summary = summaries[label]
        print(f"{label}: {verdicts[label]} (mean mcav {summary.mean_mcav:.3f} "
              f"over {summary.presentations} presentations)")
    print(f"wrote mcav.csv, summary.csv, verdicts.csv in {out_dir}")


def cmd_analyze(args) -> int:
    config = build_config(args.config)
    records = analysis.read_presentations(args.log)
    if not records:
        print("warning: presentation log is empty", file=sys.stderr)
    _analyze_records(records, args.out_dir, _analysis_config(config, args))
    return 0


def cmd_pipeline(args) -> int:
    config = build_config(args.config)
    stream = _generate_stream(args, config)
    os.makedirs(args.out_dir, exist_ok=True)
    events_path = os.path.join(args.out_dir, "events.txt")
    save_stream(stream, events_path)
    print(f"generated {events_path}: {stream.event_count} events")
    trace_out = os.path.join(args.out_dir, "signals.csv") if args.signal_trace else None
    result = _run_and_write(args, config, stream,
                            os.path.join(args.out_dir, "presentations.csv"), trace_out)
    print(f"replayed {result.ticks} ticks: {len(result.records)} presentations")
    _analyze_records(result.records, args.out_dir, _analysis_config(config, args))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DcaError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
