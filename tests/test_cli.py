"""End-to-end behaviour of the dcascan command line."""

import pytest

from dcascan.analysis import write_presentations
from dcascan.cli import main
from dcascan.engine import Antigen, PresentationRecord


def _rec(label, context, t, pid=1):
    return PresentationRecord(Antigen(pid, label, t), context, t)


# --------------------------------------------------------------------------
# generate


def test_generate_writes_deterministic_file(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        code = main(["generate", "passive-normal", "--duration", "80",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert "packet events" in capsys.readouterr().out


def test_generate_different_seed_changes_file(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "passive-normal", "--duration", "80", "--seed", "3", "--out", str(a)])
    main(["generate", "passive-normal", "--duration", "80", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_generate_rejects_zero_duration(tmp_path, capsys):
    code = main(["generate", "passive-normal", "--duration", "0",
                 "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "duration" in capsys.readouterr().err


def test_generate_without_scan(tmp_path):
    out = tmp_path / "quiet.txt"
    code = main(["generate", "active-normal", "--duration", "60",
                 "--seed", "2", "--no-scan", "--out", str(out)])
    assert code == 0
    assert out.exists()


# --------------------------------------------------------------------------
# run


@pytest.fixture(scope="module")
def small_events(tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.txt"
    assert main(["generate", "active-normal", "--duration", "120",
                 "--seed", "5", "--out", str(path)]) == 0
    return path


def test_run_writes_presentations_and_trace(small_events, tmp_path, capsys):
    out = tmp_path / "presentations.csv"
    trace = tmp_path / "signals.csv"
    code = main(["run", str(small_events), "--seed", "7", "--out", str(out),
                 "--signal-trace", str(trace), "--audit-every", "10"])
    assert code == 0
    assert out.read_text().splitlines()[0] == "presented_at,pid,label,context"
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "t,pamp1,pamp2,ds1,ds2,ss1,ss2,inflammation"
    assert len(trace_lines) == 1 + 120  # one row per virtual second
    assert "replayed 120 ticks" in capsys.readouterr().out


def test_run_same_seed_same_bytes(small_events, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["run", str(small_events), "--seed", "7", "--out", str(a)])
    main(["run", str(small_events), "--seed", "7", "--out", str(b)])
    main(["run", str(small_events), "--seed", "8", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_run_missing_events_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.txt"), "--seed", "1",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fragment",
    [
        # a leading NaN used to stall bucketing and drop every packet silently
        ("P nan sent tcp syn 40\nP 1.0 sent tcp syn 40\n", "line 1: timestamp nan"),
        # a trailing NaN used to end in a raw ValueError traceback
        ("P 1.0 sent tcp syn 40\nP nan sent tcp syn 40\n", "line 2: timestamp nan"),
        ("E 1.0 5 nmap syscall\nE nan 5 nmap syscall\n", "line 2: timestamp nan"),
        # an infinite duration used to end in a raw OverflowError traceback
        ("# duration=inf\nP 1.0 sent tcp syn 40\n", "line 1: duration inf"),
    ],
)
def test_run_rejects_non_finite_times(tmp_path, capsys, text, fragment):
    events = tmp_path / "events.txt"
    events.write_text(text)
    out = tmp_path / "out.csv"
    code = main(["run", str(events), "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and fragment in err
    assert not out.exists()


def test_run_rejects_out_of_range_signal_config(small_events, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("signals.signal_cap = 200\n")
    code = main(["run", str(small_events), "--seed", "1", "--config", str(conf),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err == "config error: signal_cap=200.0 outside (0, 100]\n"


# --------------------------------------------------------------------------
# analyze


def test_analyze_verdict_per_label(tmp_path, capsys):
    log = tmp_path / "log.csv"
    records = (
        [_rec("nmap", 1, 10.0)] * 40
        + [_rec("firefox", 0, 11.0)] * 40
        + [_rec("pts", 1, 12.0)] * 3
    )
    write_presentations(records, log)
    out_dir = tmp_path / "scores"
    code = main(["analyze", str(log), "--out-dir", str(out_dir),
                 "--window-size", "20", "--min-confidence", "10"])
    assert code == 0
    verdict_lines = (out_dir / "verdicts.csv").read_text().splitlines()
    assert verdict_lines[0] == "label,verdict,mean_mcav,presentations"
    by_label = {line.split(",")[0]: line.split(",")[1] for line in verdict_lines[1:]}
    assert by_label == {
        "nmap": "anomalous",
        "firefox": "normal",
        "pts": "insufficient-evidence",
    }
    assert (out_dir / "mcav.csv").exists()
    assert (out_dir / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "nmap: anomalous" in out


def test_analyze_empty_log_warns(tmp_path, capsys):
    log = tmp_path / "empty.csv"
    write_presentations([], log)
    code = main(["analyze", str(log), "--out-dir", str(tmp_path / "scores")])
    assert code == 0
    assert "empty" in capsys.readouterr().err


def test_analyze_corrupt_log(tmp_path, capsys):
    log = tmp_path / "bad.csv"
    log.write_text("presented_at,pid,label,context\n1.0,x,y,1\n")
    code = main(["analyze", str(log), "--out-dir", str(tmp_path / "scores")])
    assert code == 2


# --------------------------------------------------------------------------
# pipeline


def test_pipeline_matches_staged_commands(tmp_path):
    fused = tmp_path / "fused"
    code = main(["pipeline", "active-normal", "--duration", "120",
                 "--seed", "5", "--out-dir", str(fused)])
    assert code == 0

    staged = tmp_path / "staged"
    staged.mkdir()
    events = staged / "events.txt"
    log = staged / "presentations.csv"
    assert main(["generate", "active-normal", "--duration", "120",
                 "--seed", "5", "--out", str(events)]) == 0
    assert main(["run", str(events), "--seed", "5", "--out", str(log)]) == 0
    assert main(["analyze", str(log), "--out-dir", str(staged)]) == 0

    assert (fused / "events.txt").read_bytes() == events.read_bytes()
    assert (fused / "presentations.csv").read_bytes() == log.read_bytes()
    for name in ("mcav.csv", "summary.csv", "verdicts.csv"):
        assert (fused / name).read_bytes() == (staged / name).read_bytes()


def test_pipeline_signal_trace_flag(tmp_path):
    out = tmp_path / "run"
    code = main(["pipeline", "passive-normal", "--duration", "60",
                 "--seed", "2", "--out-dir", str(out), "--signal-trace"])
    assert code == 0
    assert (out / "signals.csv").exists()


# --------------------------------------------------------------------------
# exit codes and config plumbing


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuchcommand"],
        ["run", "events.txt"],              # missing --seed
        ["generate", "weird-kind", "--out", "x"],
        ["generate", "passive-normal"],     # missing --out
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_config_file_reaches_engine(small_events, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("analysis.window_size = 10\n")
    out_dir = tmp_path / "scores"
    log = tmp_path / "p.csv"
    write_presentations([_rec("nmap", 1, 1.0)] * 25, log)
    assert main(["analyze", str(log), "--out-dir", str(out_dir),
                 "--config", str(conf)]) == 0
    windows = {line.split(",")[0] for line in
               (out_dir / "mcav.csv").read_text().splitlines()[1:]}
    assert windows == {"0", "1", "2"}  # 25 records in windows of 10


def test_bad_config_key_exits_2(small_events, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("engine.nosuch = 1\n")
    code = main(["run", str(small_events), "--seed", "1",
                 "--out", str(tmp_path / "o.csv"), "--config", str(conf)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_exits_3(small_events, tmp_path):
    code = main(["run", str(small_events), "--seed", "1",
                 "--out", str(tmp_path / "o.csv"),
                 "--config", str(tmp_path / "absent.conf")])
    assert code == 3
