"""Tests of the benchmark itself, on short smoke sessions.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SMOKE = f"{run.SMOKE_DURATION:g}"


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_reports():
    spec = contract()
    # quiet-pipeline is a manual workload only: its input varies too much by seed.
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in run.WORKLOADS if n != "quiet-pipeline"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in names}
    empty = {"spans": [["cli.main", 0.0, 1.0, None]], "counts": {}, "gauges": {},
             "audit": None}
    assert names == [*tracer.layer_metrics(empty), "trace.overhead_share"]


def test_every_end_to_end_metric_prints_with_its_unit(capsys):
    assert run.main(["--workload", "quiet-pipeline", "--duration", SMOKE, "--seconds", "1"]) == 0
    out = capsys.readouterr().out
    final = last_json(out)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in final["metrics"].values())
    report = out.splitlines()
    for name, unit in {**run.END_TO_END, **run.QUALITY}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in report), name
    result = json.loads(next(line[7:] for line in report if line.startswith("result ")))
    assert result["pinned"] and result["env"]["input_events"] > 0
    assert set(result["env"]) >= {"cpu_count", "python", "platform", "commit", "seed", "argv"}


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "scan-pipeline", "--duration", SMOKE, "--seconds", "1",
                     "--trace", "1"]) == 0
    final = last_json(capsys.readouterr().out)
    assert final["correct"], final
    spec = {m["name"]: m["unit"] for m in contract()["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert metrics["engine.balanced"] == 1
    assert metrics["engine.ingested"] == metrics["pipeline.antigens_built"] > 0
    assert metrics["events.parse_stream.s"] == 0 < metrics["scenario.gen_dataset.s"]


def test_wrappers_leave_dcascan_unpatched(tmp_path):
    from dcascan import cli, engine, signals  # noqa: F401  (loads every module)

    def snapshot():
        owners = [m for n, m in sys.modules.items() if n == "dcascan" or n.startswith("dcascan.")]
        owners += [engine.DcaEngine, engine.DendriticCell, signals.SignalDeriver]
        return {(repr(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    code, trace = tracer.traced_main(
        ["pipeline", "passive-normal", "--duration", "60", "--seed", "3",
         "--out-dir", str(tmp_path)], "test")
    after = snapshot()
    assert code == 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    data = trace.to_json()
    assert tracer.check_trace(data) == []
    assert {"engine.tick", "signals.derive", "events.iter_buckets"} <= {s[0] for s in data["spans"]}
    assert data["counts"]["engine.migrations"] > 0


def test_self_times_cover_the_root_exactly():
    spans = [["cli.main", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    trace = {"spans": spans, "counts": {}, "gauges": {}, "audit": None}
    assert tracer.check_trace(trace) == ["no engine audit was recorded"]
    spans.append(["d", 8.0, 11.0, 0])
    assert any("does not nest" in p for p in tracer.check_trace(trace))


def test_digest_mismatch_counts_as_failure():
    key = run.pin_key("quiet-pipeline", run.SMOKE_DURATION, 7)
    pinned = run.load_pinned()[key]
    wrong = dict(pinned, **{"summary.csv": "0" * 64})
    result = run.run_workload("quiet-pipeline", 7, 1, False, run.SMOKE_DURATION,
                              pinned={key: wrong})
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert not result["correct"] and result["readings"]["failed_share"] == 1.0


def test_unpinned_seed_checks_runs_agree():
    result = run.run_workload("quiet-pipeline", 12345, 5, False, run.SMOKE_DURATION, pinned={})
    assert not result["pinned"] and result["attempted"] >= 2
    assert result["correct"] and result["failed"] == 0


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

