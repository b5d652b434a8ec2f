"""Acceptance suite: eight checks covering exact signal normalization,
context decisions, polar-stream oracles, antigen conservation, the two
scaled detection scenarios, full-scale throughput, and reproducibility.

Each check prints exactly one PASS/FAIL verdict line on the terminal,
with the measured values it was judged on.
"""

import csv
import random
import time

import pytest

from dcascan.analysis import AnalysisConfig, compute_mcav_windows, session_summary
from dcascan.cli import main as cli_main
from dcascan.engine import DcaEngine, DendriticCell
from dcascan.errors import EngineInvariantError
from dcascan.events import ProcessEvent, iter_buckets
from dcascan.scenario import gen_dataset
from dcascan.signals import (
    SignalVector,
    icmp_unreachable_pamp,
    rst_rate_pamp,
    size_step_safe,
    tcp_ratio_danger,
)
from reference import collect_run, labelled

DESK_DURATION = 1000.0
FULL_DURATION = 7000.0
SCAN_START = 65.0
SCAN_LENGTH = 860.0
SCAN_END = SCAN_START + SCAN_LENGTH
DESK_WINDOWS = AnalysisConfig(window_size=2000)


def _announce(capsys, num, title, checks, detail=""):
    problems = [msg for ok, msg in checks if not ok]
    line = f"acceptance {num}/8 {'PASS' if not problems else 'FAIL'} {title}"
    if detail:
        line += f" ({detail})"
    if problems:
        line += " !! " + "; ".join(problems)
    with capsys.disabled():
        print(line)
    assert not problems, line


def _window_spans(records, size):
    """(first, last) presentation second of each count window, in order."""
    return [
        (records[i][0], records[min(i + size, len(records)) - 1][0])
        for i in range(0, len(records), size)
    ]


def _label_mcav(records, label):
    mine = [context for _, antigen, context in records if antigen.process_name == label]
    return sum(mine) / len(mine) if mine else 0.0


# --------------------------------------------------------------------------


def test_signal_normalization_exact(capsys):
    checks = [
        (icmp_unreachable_pamp(10) == 50.0, "pamp1(10) != 50"),
        (icmp_unreachable_pamp(25) == 100.0, "pamp1(25) != 100"),
        (rst_rate_pamp(250) == 100.0, "pamp2(250) != 100"),
        (tcp_ratio_danger(50, 100) == 50.0, "ds2(50 of 100) != 50"),
        (size_step_safe(42) == 0.0, "ss2(42) != 0"),
        (size_step_safe(48) == 10.0, "ss2(48) != 10"),
        (size_step_safe(55) == 50.0, "ss2(55) != 50"),
        (size_step_safe(80) == 100.0, "ss2(80) != 100"),
    ]
    _announce(capsys, 1, "signal normalizations hit their anchor points exactly",
              checks, "8 fixed input/output pairs")


def test_context_requires_strictly_more_mature(capsys):
    rng = random.Random(2024)
    cell = DendriticCell(50, 150.0)
    violations = 0
    for i in range(10_000):
        cell.semi = rng.uniform(0.0, 400.0)
        cell.mature = cell.semi if i % 5 == 0 else rng.uniform(0.0, 400.0)
        expected = 1 if cell.mature > cell.semi else 0
        violations += cell.context() != expected
    _announce(capsys, 2, "context is 1 iff mature strictly exceeds semi",
              [(violations == 0, f"{violations} violations")],
              "10000 random states incl. forced ties")


def test_polar_streams_give_extreme_scores(capsys):
    def drive(vector):
        engine = DcaEngine(seed=101)
        labels = ("alpha", "beta", "gamma")
        records, n = [], 0
        for t in range(200):
            antigens = [ProcessEvent(float(t), 5000 + n + j, labels[(n + j) % 3], "syscall")
                        for j in range(9)]
            n += 9
            records += engine.tick(vector, antigens)
        return records

    start = time.perf_counter()
    safe = drive(SignalVector(0, 0, 0, 0, 100, 100, 0))
    pamp = drive(SignalVector(100, 100, 0, 0, 0, 0, 0))
    elapsed = time.perf_counter() - start
    scoring = AnalysisConfig(window_size=50)

    def means(records):
        windows = compute_mcav_windows([(a.process_name, c) for a, c in records], scoring)
        return {lb: s.mean_mcav for lb, s in session_summary(windows, scoring).items()}

    safe_means, pamp_means = means(safe), means(pamp)
    checks = [
        (len(safe_means) == 3 and len(pamp_means) == 3, "some label never presented"),
        (all(v == 0.0 for v in safe_means.values()),
         f"safe-only stream scored {safe_means}"),
        (all(v == 1.0 for v in pamp_means.values()),
         f"pamp-only stream scored {pamp_means}"),
        (elapsed < 1.0, f"took {elapsed:.2f}s"),
    ]
    _announce(capsys, 3, "safe-only scores 0, pamp-only scores 1, exactly", checks,
              f"200 ticks each, {len(safe)}+{len(pamp)} presentations, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def full_scale_run():
    stream = gen_dataset("passive-normal", FULL_DURATION, 7)
    start = time.perf_counter()
    error, result = None, None
    try:
        result, _, _ = collect_run(iter_buckets(stream))
    except EngineInvariantError as exc:
        error = exc
    return result, time.perf_counter() - start, error


def test_antigen_conservation_full_run(capsys, full_scale_run):
    result, _, error = full_scale_run
    audit = result.audit if result else {}
    checks = [
        (error is None, f"invariant broke mid-run: {error}"),
        (bool(audit) and audit.get("balanced") == 1, f"final audit {audit}"),
        (result is not None and result.ticks == int(FULL_DURATION),
         "run did not cover every tick"),
    ]
    _announce(capsys, 4, "ingested = tissue + cells + presented + overwritten",
              checks, "checked every tick of 7000" if error is None else "")


def test_lone_scan_windows_all_flagged(capsys):
    start = time.perf_counter()
    stream = gen_dataset("passive-normal", DESK_DURATION, 1,
                         scan_start=SCAN_START, scan_duration=SCAN_LENGTH)
    _, records, _ = collect_run(iter_buckets(stream))
    elapsed = time.perf_counter() - start
    windows = compute_mcav_windows(labelled(records), DESK_WINDOWS)
    spans = _window_spans(records, DESK_WINDOWS.window_size)
    overlap_mcavs = [
        mature["nmap"] / totals["nmap"]
        for (size, totals, mature), (t_first, t_last) in zip(windows, spans)
        if size == DESK_WINDOWS.window_size and t_last >= SCAN_START and t_first <= SCAN_END
        and "nmap" in totals
    ]
    scan_share = sum(1 for _, antigen, _ in records
                     if antigen.process_name in ("nmap", "pts")) / len(records)
    checks = [
        (len(overlap_mcavs) >= 3, f"only {len(overlap_mcavs)} windows overlap the scan"),
        (all(v > 0.5 for v in overlap_mcavs),
         f"window mcav fell to {min(overlap_mcavs, default=0.0):.3f}"),
        (scan_share >= 0.95, f"scanner/parent share only {scan_share:.3f}"),
        (elapsed < 10.0, f"took {elapsed:.2f}s"),
    ]
    _announce(capsys, 5, "lone scan: every scan window flagged, share dominant",
              checks,
              f"min window mcav {min(overlap_mcavs, default=0.0):.3f}, "
              f"share {scan_share:.3f}, {elapsed:.1f}s")


def test_browsing_co_elevates_only_during_scan(capsys):
    start = time.perf_counter()
    stream = gen_dataset("active-normal", DESK_DURATION, 1,
                         scan_start=SCAN_START, scan_duration=SCAN_LENGTH)
    _, records, _ = collect_run(iter_buckets(stream))
    elapsed = time.perf_counter() - start
    windows = compute_mcav_windows(labelled(records), DESK_WINDOWS)
    spans = _window_spans(records, DESK_WINDOWS.window_size)
    browser_during = [
        mature["firefox"] / totals["firefox"]
        for (size, totals, mature), (t_first, t_last) in zip(windows, spans)
        if size == DESK_WINDOWS.window_size and t_last >= SCAN_START and t_first <= SCAN_END
        and "firefox" in totals
    ]
    off_scan = [r for r in records
                if r[0] < SCAN_START or r[0] > SCAN_END + 60]
    browser_off = _label_mcav(off_scan, "firefox")
    checks = [
        (len(browser_during) >= 3, f"only {len(browser_during)} scan windows"),
        (max(browser_during, default=0.0) > 0.3,
         f"browser never rose above {max(browser_during, default=0.0):.3f}"),
        (browser_off < 0.1, f"browser mcav {browser_off:.3f} while scan-off"),
        (elapsed < 10.0, f"took {elapsed:.2f}s"),
    ]
    _announce(capsys, 6, "concurrent browsing co-elevates inside the scan only",
              checks,
              f"peak during {max(browser_during, default=0.0):.3f}, "
              f"off-scan {browser_off:.3f}, {elapsed:.1f}s")


def test_full_scale_throughput_and_compression(capsys, full_scale_run):
    result, elapsed, error = full_scale_run
    audit = result.audit if result else {}
    ingested = audit.get("ingested", 0)
    presented = audit.get("presented", 0)
    checks = [
        (error is None, f"run aborted: {error}"),
        (1_000_000 <= ingested <= 1_600_000,
         f"antigen volume {ingested} outside ~1.3M band"),
        (elapsed < 120.0, f"took {elapsed:.1f}s"),
        (50_000 <= presented <= 400_000,
         f"presented {presented} outside [50k, 400k]"),
    ]
    _announce(capsys, 7, "full scale: ~1.3M antigen compressed into the log in time",
              checks,
              f"{ingested} ingested -> {presented} presented, {elapsed:.1f}s")


def test_seeded_runs_reproduce_and_agree(capsys, tmp_path):
    def run_pipeline(seed, name):
        out = tmp_path / name
        code = cli_main([
            "pipeline", "passive-normal", "--duration", str(int(DESK_DURATION)),
            "--seed", str(seed), "--scan-start", str(int(SCAN_START)),
            "--scan-duration", str(int(SCAN_LENGTH)), "--out-dir", str(out),
        ])
        assert code == 0
        with open(out / "summary.csv", newline="") as fh:
            means = {row["label"]: float(row["mean_mcav"])
                     for row in csv.DictReader(fh)}
        return out, means

    dir_a, means_a = run_pipeline(11, "a")
    dir_b, means_b = run_pipeline(11, "b")
    _, means_c = run_pipeline(12, "c")
    identical = (dir_a / "mcav.csv").read_bytes() == (dir_b / "mcav.csv").read_bytes()
    spread = abs(means_a["nmap"] - means_c["nmap"])
    checks = [
        (identical, "same seed produced different mcav.csv bytes"),
        (spread < 0.05, f"scanner mean moved {spread:.3f} across seeds"),
    ]
    _announce(capsys, 8, "same seed reproduces bytes, new seed stays close",
              checks, f"cross-seed scanner mean spread {spread:.4f}")
