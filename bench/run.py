"""dcascan benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan-pipeline --seed 7 --seconds 55 --trace 0
    python3 bench/run.py --workload all --duration 7000   # full-scale sessions
    python3 bench/run.py --workload all --duration 500    # smoke test

Every measured invocation runs the ``dcascan`` CLI of this checkout
(``src/``) as a child process, by default on a 2000 s session.  The child is
timed from spawn to exit and its CPU time and peak RSS come from
``os.wait4``.  Invocations repeat until ``--seconds`` would be exceeded (at
least one), each followed by one set-up probe, so that both sample the
whole run, and each reported figure is the median of them.  On a shared
host a core runs the same code up to 1.5x slower while a neighbour uses
it, switching within a second and drifting over minutes, so many short
sessions over a long run give a steadier median than a few long ones.
Every invocation's output files are hashed: at a seed with pinned digests
(``digests.json``) they must match those, at any other seed they must match
the run's first invocation.  A non-zero exit or a mismatch counts the
invocation as failed.

``setup_s`` is the median spawn-to-exit time of fresh interpreters that
import ``dcascan.cli`` and build its parser, the fixed cost each call pays.

With ``--trace 1`` one more invocation runs in-process under the boundary
wrappers of ``tracer.py`` and the per-layer metrics are reported instead.
The benchmark's own tests use 500 s sessions (``SMOKE_DURATION``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a ``result`` JSON line with the environment,
argv, input counts, digests and every metric with its quartiles.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

DEFAULT_SEED = 7
DURATION = 2000.0
SMOKE_DURATION = 500.0
# At least this many set-up probes, however few invocations fit in a run.
SETUP_SAMPLES = 9
# A run must end within 180 s; no child may outlive this many seconds of it.
DEADLINE_S = 170.0
# dcascan's default analysis settings: MCAV count windows and their threshold.
WINDOW_SIZE = 10000
MCAV_THRESHOLD = 0.5
SCANNER_LABELS = ("nmap", "pts")
# Off-scan cut of the acceptance suite: presentations after the scan ends
# may still carry its context for a minute.
SCAN_TAIL_S = 60.0
ANALYSIS_OUTPUTS = ("presentations.csv", "mcav.csv", "summary.csv", "verdicts.csv")

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported on every run next to END_TO_END; outputs are pinned by digest
# instead of bounded, and the scanner figures do not exist on a scan-free
# session, so they stay out of the result's metrics.
QUALITY = {
    "failed_share": "ratio",
    "scanner_mean_mcav": "mcav",
    "benign_offscan_mcav": "mcav",
    "time_to_detect_vs": "vs",
}


@dataclass(frozen=True)
class Workload:
    """One timed CLI call on a generated session.

    ``replay`` workloads generate their events file untimed and time
    ``dcascan run`` on it; the others time ``dcascan pipeline``.
    """

    kind: str
    replay: bool = False
    scan: bool = True

    @property
    def outputs(self) -> tuple[str, ...]:
        return ANALYSIS_OUTPUTS if self.replay else ("events.txt",) + ANALYSIS_OUTPUTS

    def command(self, seed: int, duration: float, out_dir: str, events_path: str) -> list[str]:
        if self.replay:
            return ["run", events_path, "--seed", str(seed),
                    "--out", os.path.join(out_dir, "presentations.csv")]
        scan = [] if self.scan else ["--no-scan"]
        return ["pipeline", self.kind, *scan, "--duration", f"{duration:g}",
                "--seed", str(seed), "--out-dir", out_dir]


# BENCHMARK.json measures scan-pipeline and mixed-replay.  quiet-pipeline
# (the engine's per-tick cost, with intake, parse and I/O bypassed) is for
# manual runs: its benign-only input differs by up to 15% in size between
# seeds, which its events_per_s would show as noise.
WORKLOADS = {
    "scan-pipeline": Workload("passive-normal"),
    "mixed-replay": Workload("active-normal", replay=True),
    "quiet-pipeline": Workload("active-normal", scan=False),
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "dcascan.cli", *args]


def spawn(argv: list[str], deadline: float, log_dir: str) -> Invocation:
    """Run one child to completion, killing it at ``deadline``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-2000:]
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stderr)


def scan_file(path: str) -> tuple[str, int]:
    """sha256 of a file and the number of event lines (``P``/``E``) in it."""
    digest = hashlib.sha256()
    events = 0
    tail = b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            data = tail + chunk
            events += data.count(b"\nP ") + data.count(b"\nE ")
            tail = data[-2:]
    return digest.hexdigest(), events


def scan_window(duration: float) -> tuple[float, float]:
    """dcascan's default scan window: from 9.3% of the session for 85.7% of it."""
    start = round(0.093 * duration, 1)
    return start, start + min(0.857 * duration, duration - start)


def read_quality(out_dir: str, workload: Workload, duration: float) -> dict:
    """Detection figures of one output directory."""
    with open(os.path.join(out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        means = {row["label"]: float(row["mean_mcav"]) for row in csv.DictReader(fh)}
    with open(os.path.join(out_dir, "verdicts.csv"), newline="", encoding="utf-8") as fh:
        verdicts = {row["label"]: row["verdict"] for row in csv.DictReader(fh)}
    scan_start, scan_end = scan_window(duration) if workload.scan else (math.inf, -math.inf)
    times: list[float] = []
    off_scan: dict[str, list[int]] = {}
    with open(os.path.join(out_dir, "presentations.csv"), newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for presented_at, _, label, context in rows:
            t = float(presented_at)
            times.append(t)
            if label not in SCANNER_LABELS and not scan_start <= t <= scan_end + SCAN_TAIL_S:
                pair = off_scan.setdefault(label, [0, 0])
                pair[0] += 1
                pair[1] += context == "1"
    windows: dict[int, list[int]] = {}
    with open(os.path.join(out_dir, "mcav.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            window = windows.setdefault(int(row["window"]), [0, 0, 0])
            window[0] += int(row["presentations"])
            if row["label"] == SCANNER_LABELS[0]:
                window[1] += int(row["presentations"])
                window[2] += int(row["mature"])
    detect = None
    for index in sorted(windows):
        size, scanner, mature = windows[index]
        if size == WINDOW_SIZE and scanner and mature / scanner > MCAV_THRESHOLD:
            detect = times[(index + 1) * WINDOW_SIZE - 1] - scan_start
            break
    return {
        "scanner_mean_mcav": means.get(SCANNER_LABELS[0]) if workload.scan else None,
        "benign_offscan_mcav": max((m / n for n, m in off_scan.values()), default=0.0),
        "time_to_detect_vs": detect if workload.scan else None,
        "verdicts": verdicts,
    }


def summarize(values: list[float]) -> dict:
    """Extremes, median, quartiles and sample count of one metric."""
    quartiles = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"min": min(values), "q1": quartiles[0], "median": statistics.median(values),
            "q3": quartiles[2], "max": max(values), "n": len(values)}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown"


def load_pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def pin_key(name: str, duration: float, seed: int) -> str:
    return f"{name} {duration:g} {seed}"


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_share", "_per_ingested")):
        return "ratio"
    if name.endswith("balanced"):
        return "bool"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, duration: float,
                 pinned: dict | None = None) -> dict:
    """Measure one workload and return its full result."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[name]
    pinned = load_pinned() if pinned is None else pinned
    expected = pinned.get(pin_key(name, duration, seed))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        setup_argv = [sys.executable, "-c", "import dcascan.cli; dcascan.cli.build_parser()"]
        setup: list[float] = []

        def probe_setup(keep: bool = True) -> None:
            probe = spawn(setup_argv, deadline, work)
            if probe.code != 0:
                raise BenchError(f"importing dcascan.cli failed: {probe.stderr.strip()}")
            if keep:
                setup.append(probe.wall_s)

        probe_setup(keep=False)  # the first start compiles bytecode, which users pay once

        events_path = os.path.join(work, "events.txt")
        input_events = None
        input_gen_s = None
        if workload.replay:
            gen_argv = cli("generate", workload.kind, "--duration", f"{duration:g}",
                           "--seed", str(seed), "--out", events_path)
            gen = spawn(gen_argv, deadline, work)
            if gen.code != 0:
                raise BenchError(f"generating the input failed: {gen.stderr.strip()}")
            input_gen_s = gen.wall_s
            input_events = scan_file(events_path)[1]

        argv = cli(*workload.command(seed, duration, os.path.join(work, "out"), events_path))
        samples: dict[str, list[float]] = {key: [] for key in END_TO_END if key != "setup_s"}
        attempted = failed = 0
        reference = expected
        quality = None
        errors: list[str] = []
        loop_start = time.monotonic()
        while True:
            digests, inv = run_once(workload, argv, work, deadline)
            attempted += 1
            ok = inv.code == 0 and (reference is None or digests == reference)
            if not ok:
                failed += 1
                errors.append(f"exit {inv.code}: {inv.stderr.strip()[-300:]}" if inv.code
                              else f"digests differ: {digests} != {reference}")
            else:
                reference = reference or digests
                if quality is None:
                    quality = read_quality(os.path.join(work, "out"), workload, duration)
                    if input_events is None:
                        input_events = scan_file(os.path.join(work, "out", "events.txt"))[1]
                samples["wall_s"].append(inv.wall_s)
                samples["cpu_s"].append(inv.cpu_s)
                samples["peak_rss_mb"].append(inv.peak_rss_mb)
                samples["events_per_s"].append(input_events / inv.wall_s)
            shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
            probe_setup()
            if not samples["wall_s"]:
                break
            typical = statistics.median(samples["wall_s"])
            reserve = 1.5 * typical if trace else 0.0
            now = time.monotonic()
            if now - loop_start + typical > seconds or now + typical + reserve > deadline:
                break

        while len(setup) < SETUP_SAMPLES:
            probe_setup()

        layers = None
        checks: list[str] = []
        if trace and samples["wall_s"]:
            spans_path = os.path.join(work, "trace.json")
            traced_argv = [sys.executable, os.path.join(ROOT, "bench", "tracer.py"),
                           "--out", spans_path, "--run-id", f"{name}-{seed}-{os.getpid()}",
                           "--", *argv[3:]]
            digests, inv = run_once(workload, traced_argv, work, deadline, analyze=False)
            attempted += 1
            # The traced call is not followed by `analyze`, so a replay has one output.
            traced_files = ("presentations.csv",) if workload.replay else workload.outputs
            if inv.code != 0 or digests != {f: reference[f] for f in traced_files}:
                failed += 1
                checks.append(f"traced run: exit {inv.code}, digests {digests}")
            else:
                with open(spans_path, encoding="utf-8") as fh:
                    trace_data = json.load(fh)
                checks += tracer.check_trace(trace_data)
                layers = tracer.layer_metrics(trace_data)
                layers["trace.overhead_share"] = (
                    layers["cli.main.s"] / statistics.median(samples["wall_s"]) - 1.0)
            shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scanner_verdict = (quality or {}).get("verdicts", {}).get(SCANNER_LABELS[0])
    if quality is not None and workload.scan and scanner_verdict != "anomalous":
        checks.append(f"scanner not flagged: {quality['verdicts']}")
    metrics = {key: summarize(values) for key, values in samples.items() if values}
    metrics["setup_s"] = summarize(setup)
    readings = {"failed_share": failed / attempted}
    readings.update({k: v for k, v in (quality or {}).items() if k in QUALITY})
    correct = (failed == 0 and not checks and len(metrics) == len(END_TO_END)
               and (layers is not None or not trace))
    return {
        "workload": name,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "readings": readings,
        "layers": layers,
        "checks": checks,
        "errors": errors[:5],
        "digests": reference,
        "pinned": expected is not None,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "commit": git_commit(),
            "seed": seed,
            "duration": duration,
            "seconds": seconds,
            "trace": int(trace),
            "argv": [os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in argv[1:]],
            "input_events": input_events,
            "input_gen_s": input_gen_s,
            "verdicts": (quality or {}).get("verdicts"),
        },
        "elapsed_s": time.monotonic() - started,
    }


def run_once(workload: Workload, argv: list[str], work: str, deadline: float,
             analyze: bool = True):
    """One invocation: returns the digests of its outputs and its timing."""
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    inv = spawn(argv, deadline, work)
    if inv.code == 0 and workload.replay and analyze:
        scored = spawn(cli("analyze", os.path.join(out_dir, "presentations.csv"),
                           "--out-dir", out_dir), deadline, work)
        if scored.code != 0:
            inv.code, inv.stderr = scored.code, scored.stderr
    digests = {f: scan_file(os.path.join(out_dir, f))[0] for f in workload.outputs
               if os.path.exists(os.path.join(out_dir, f))}
    return digests, inv


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> list[str]:
    """Readable lines: every metric by name with its unit."""
    lines = [f"== {result['workload']} seed {result['env']['seed']} "
             f"duration {result['env']['duration']:g}s: {result['attempted']} attempted, "
             f"{result['failed']} failed, correct {result['correct']}"]
    for key, unit in END_TO_END.items():
        m = result["metrics"].get(key)
        if m:
            lines.append(f"  {key:<26} {fmt(m['median']):>12} {unit:<6} "
                         f"q1 {fmt(m['q1'])} q3 {fmt(m['q3'])} min {fmt(m['min'])} "
                         f"n {m['n']}")
    for key, unit in QUALITY.items():
        lines.append(f"  {key:<26} {fmt(result['readings'].get(key)):>12} {unit}")
    for key, value in (result["layers"] or {}).items():
        lines.append(f"  {key:<30} {fmt(value):>12} {layer_unit(key)}")
    lines += [f"  check failed: {c}" for c in result["checks"]]
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def contract_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in (result["layers"] or {}).items()}
    else:
        metrics = {k: {"value": result["metrics"][k]["median"], "unit": unit}
                   for k, unit in END_TO_END.items() if k in result["metrics"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measure for about this long (at least one invocation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=DURATION,
                        help="virtual seconds of each session (default %(default)g)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcascan", "cli.py")):
        print(f"bench: no dcascan sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.duration)
            print("\n".join(report(result)))
            print("result " + json.dumps(result, sort_keys=True))
            lines.append(contract_line(result, bool(args.trace)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(r["correct"] for r in lines),
                 "attempted": sum(r["attempted"] for r in lines),
                 "failed": sum(r["failed"] for r in lines),
                 "metrics": {f"{n}/{k}": v for n, r in zip(names, lines)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
