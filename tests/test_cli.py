"""End-to-end behaviour of the dcascan command line."""

import argparse
import errno
import gc
import itertools
import os
import signal
import subprocess
import sys

import pytest

from dcascan import cli, events, pipeline
from dcascan.cli import main
from dcascan.events import MAX_TAILS, ProcessEvent, format_time
from reference import write_log

# The environment of a CLI started in a child interpreter: this checkout's src first on its path.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))


def _rec(label, context, t, pid=1):
    return t, ProcessEvent(t, pid, label, "syscall"), context


def _no_work(*args, **kwargs):
    pytest.fail("the work ran before the output path was checked")


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


def test_generate_scan_duration_sets_the_probe_count(tmp_path):
    # A set port count used to override the window: both files held 2,540 probes.
    probes = []
    for window in ("100", "500"):
        out = tmp_path / f"scan-{window}.txt"
        code = main(["generate", "passive-normal", "--duration", "1000", "--seed", "1",
                     "--scan-duration", window, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        probes.append(sum(line.endswith(" sent tcp syn 40") for line in lines))
    assert probes == [254 * 8, 254 * 39]  # round(window / 0.05 / 254) ports per target


def test_generate_rejects_zero_duration(tmp_path, capsys):
    code = main(["generate", "passive-normal", "--duration", "0",
                 "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    pytest.param("--duration=nan", "duration must be positive, got nan", id="--duration=nan"),
    pytest.param("--scan-start=nan", "scan_start lies outside the session", id="--scan-start=nan"),
    pytest.param("--scan-duration=inf", "scan_duration must be positive and finite, got inf",
                 id="--scan-duration=inf"),
    # about 33M events over the default 7000 s; the stream is made after the checks
    pytest.param("--config={tmp}/bursts.conf", "events, above 25,000,000", id="max-events"),
])
def test_pipeline_rejects_non_finite_scenario_values(tmp_path, capsys, flag, message):
    (tmp_path / "bursts.conf").write_text("scan.syscalls_per_reply = 1000\n")
    out_dir = tmp_path / "run"
    code = main(["pipeline", "passive-normal", "--seed", "1", "--out-dir", str(out_dir),
                 flag.format(tmp=tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [
    ["--duration", "100", "--scan-duration", "-50"],  # used to generate a scan anyway
    ["--duration", "1e9"],  # used to loop over a billion seconds
])
def test_generate_rejects_bad_session_window(tmp_path, capsys, flags):
    out = tmp_path / "x.txt"
    code = main(["generate", "passive-normal", "--seed", "1", "--out", str(out), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "signals.icmp_multiplier = -1",
    # used to end in an OverflowError traceback from deque(maxlen=...) after the fork
    "signals.ss2_window_seconds = 100000000000000000000",
    # keys no rule reads: an IndexError traceback, an ignored line, and deleted knobs
    "engine.weights = 1",
    "engine.weights = none",
    "analysis.include_partial = yes",
    "scan.scanner_label = n map",
    "session.sshd_pid = 0",
    # used to merge the scanner's presentations into the browser's under one label
    "scan.scanner_label = firefox",
])
def test_pipeline_rejects_event_breaking_config_at_load(tmp_path, capsys, setting):
    conf = tmp_path / "bad.conf"
    conf.write_text(setting + "\n")
    out_dir = tmp_path / "run"
    code = main(["pipeline", "passive-normal", "--duration", "300", "--seed", "7",
                 "--config", str(conf), "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("kind, setting", [
    ("passive-normal", "scan.salvo_rate = nan"),  # used to raise a ValueError traceback
    ("active-normal", "normal.syscall_rate = inf"),  # used to raise an OverflowError traceback
    ("active-normal", "normal.mean_pps = nan"),  # used to write a file without desktop packets
])
def test_generate_rejects_non_finite_profile_values(tmp_path, capsys, kind, setting):
    conf = tmp_path / "bad.conf"
    conf.write_text(setting + "\n")
    out = tmp_path / "x.txt"
    code = main(["generate", kind, "--duration", "100", "--seed", "1",
                 "--config", str(conf), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, setting", [
    ("passive-normal", "scan.probe_interval = 0.000001"),  # about 86M probes: MemoryError
    ("passive-normal", "scan.probe_interval = 5e-324"),  # an infinite port count: OverflowError
    ("passive-normal", "scan.target_count = 1000000000"),  # one port on each of 1e9 targets
    # each looped about 1e9 times per virtual second
    ("passive-normal", "session.sshd_syscall_rate = 1e9"),
    ("active-normal", "normal.syscall_rate = 1e9"),
    ("active-normal", "normal.mean_pps = 1e9"),
    ("active-normal", "normal.activity_pps = 1e9"),
    ("active-normal", "normal.download_pps = 1e9"),
    ("active-normal", "normal.stall_flush_syscalls = 1e9"),
    # each used to load and then crash the generator: an OverflowError at the derived
    # port count, a NaN salvo second's ValueError, an OverflowError in a burst's times
    ("passive-normal", "scan.target_count = 1" + "0" * 400),
    ("passive-normal", "scan.probe_interval = 1e306"),
    ("passive-normal", "scan.salvo_rate = 1e308"),
])
def test_generate_rejects_unbounded_output(tmp_path, capsys, kind, setting):
    conf = tmp_path / "big.conf"
    conf.write_text(setting + "\n")
    out = tmp_path / "x.txt"
    code = main(["generate", kind, "--duration", "100", "--seed", "1",
                 "--config", str(conf), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert not out.exists()


def test_generate_rejects_a_session_past_the_event_bound(tmp_path, capsys):
    # 10,000 packets a second pass the rate bound, but 3000 s of them are about
    # 30M packets: this used to end in a MemoryError
    conf = tmp_path / "busy.conf"
    conf.write_text("normal.mean_pps = 10000\n")
    out = tmp_path / "x.txt"
    code = main(["generate", "active-normal", "--duration", "3000", "--seed", "1",
                 "--config", str(conf), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and "above 25,000,000" in err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    # each used to loop until a MemoryError, so the command runs in a child with a timeout
    "scan.syscalls_per_probe = 1000000000",
    "scan.syscalls_per_reply = 1000000000",
    "scan.relay_syscalls_per_reply = 1000000000",
    "scan.relay_packets_per_salvo = 1000000000",
])
def test_generate_rejects_unbounded_scan_bursts(tmp_path, setting):
    conf = tmp_path / "big.conf"
    conf.write_text(setting + "\n")
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from dcascan.cli import main; sys.exit(main())",
         "generate", "passive-normal", "--duration", "100", "--seed", "1",
         "--config", str(conf), "--out", str(out)],
        capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    # each used to run to exit 0 with 0 presentations or every MCAV at 0.000
    ("engine.threshold_min", "nan"),
    ("engine.threshold_max", "inf"),
    ("weights.csm_pamp", "nan"),
    ("weights.mature_safe", "nan"),
    ("weights.inflammation_base", "inf"),
    # used to fail on tick 0, after events.txt was written
    ("signals.ds1_midpoint", "nan"),
    ("signals.ds1_scale", "nan"),
])
def test_pipeline_rejects_non_finite_config_numbers_at_load(tmp_path, capsys, key, value):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key} = {value}\n")
    out_dir = tmp_path / "run"
    code = main(["pipeline", "passive-normal", "--duration", "300", "--seed", "7",
                 "--config", str(conf), "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: config line 1: {key} must be finite, got '{value}'\n"
    assert not out_dir.exists()


def test_pipeline_survives_a_steep_ds1_curve(tmp_path):
    # ds1_scale = 0.5 used to raise OverflowError in math.exp on an idle second.
    conf = tmp_path / "steep.conf"
    conf.write_text("signals.ds1_scale = 0.5\n")
    code = main(["pipeline", "passive-normal", "--duration", "60", "--seed", "7",
                 "--config", str(conf), "--out-dir", str(tmp_path / "run")])
    assert code == 0


def test_pipeline_without_a_complete_window_judges_the_session_mcav(tmp_path, capsys):
    # 300 s fills no 10,000-record window, so nmap is judged on its session MCAV.
    code = main(["pipeline", "passive-normal", "--duration", "300", "--seed", "7",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 0
    assert "nmap: anomalous (mean mcav 0.798 over 5529 presentations)" in capsys.readouterr().out
    summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert next(row for row in summary if row.startswith("nmap,")).split(",")[1] == "0"  # windows


def test_generate_without_scan(tmp_path):
    out = tmp_path / "quiet.txt"
    code = main(["generate", "active-normal", "--duration", "60",
                 "--seed", "2", "--no-scan", "--out", str(out)])
    assert code == 0
    assert out.exists()


def _fails_after_a_line(error):
    def write_stream(stream, fh):
        fh.write("# duration=60.0\n")
        raise error
    return write_stream


def _generate_once(out):
    return main(["generate", "passive-normal", "--duration", "60", "--seed", "2", "--out", str(out)])


@pytest.mark.parametrize("old", [None, b"an older file\n"], ids=["new", "existing"])
def test_a_failed_generate_leaves_no_file(tmp_path, capsys, monkeypatch, old):
    out = tmp_path / "events.txt"
    if old is not None:
        out.write_bytes(old)
    monkeypatch.setattr(events, "write_stream",
                        _fails_after_a_line(OSError(28, "No space left on device")))
    assert _generate_once(out) == 3
    assert capsys.readouterr() == ("", "io error: [Errno 28] No space left on device\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["events.txt"])
    assert old is None or out.read_bytes() == old


def test_an_interrupted_generate_leaves_no_file(tmp_path, monkeypatch):
    out = tmp_path / "events.txt"
    out.write_bytes(b"an older file\n")
    monkeypatch.setattr(events, "write_stream", _fails_after_a_line(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        _generate_once(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.txt"]
    assert out.read_bytes() == b"an older file\n"


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
                 "--signal-trace", str(trace)])
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
        ("P nan sent tcp syn 40\nP 1.0 sent tcp syn 40\n",
         "line 1: timestamp must lie in [0, 86400], got nan"),
        # a trailing NaN used to end in a raw ValueError traceback
        ("P 1.5 sent tcp syn 40\nP nan sent tcp syn 40\n",
         "line 2: timestamp must lie in [1.5, 86400], got nan"),
        ("E 1 5 nmap syscall\nE nan 5 nmap syscall\n",
         "line 2: timestamp must lie in [1, 86400], got nan"),
        # an infinite duration used to end in a raw OverflowError traceback
        ("# duration=inf\nP 1.0 sent tcp syn 40\n", "line 1: duration must lie in [0, 86400], got inf"),
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


@pytest.mark.parametrize(
    "text, fragment",
    [
        # an out-of-order file used to be re-sorted silently
        ("# duration=10\nP 5 sent udp - 60\nP 2 sent udp - 60\n",
         "line 3: timestamp must lie in [5, 10], got 2.0"),
        # an event past the duration used to end in an error without a line
        ("# duration=3\nP 5 sent udp - 60\n", "line 2: timestamp must lie in [0, 3], got 5.0"),
        # a huge duration used to run about a billion ticks
        ("# duration=1e9\nP 1 sent udp - 60\n",
         "line 1: duration must lie in [0, 86400], got 1000000000.0"),
        # a size past float range used to end in an OverflowError traceback in ss2; a long
        # number is cut to its first 40 characters
        (f"P 1 sent udp - {10**309}\n",
         f"line 1: size must lie in [20, 65,535], got 1{'0' * 39}... (310 characters)"),
        # a 5,000-digit size used to be echoed whole
        (f"# duration=3.0\nP 1 sent udp - {'7' * 5000}\n",
         f"line 2: size: bad numeric field: '{'7' * 40}'... (5,000 characters)"),
        # a later annotation used to lift the first one's limit and replay 100 ticks
        ("# duration=5\nE 1 7 sshd syscall\n# duration=100\nE 50 7 sshd syscall\n",
         "line 3: second duration annotation"),
        # a flag set spelled as the writer never writes it used to replay
        ("P 1 recv tcp ack,syn 44\n", "line 1: bad tcp flags 'ack,syn' for protocol tcp"),
        # a NUL in a name used to end in a _csv.Error traceback on CPython 3.10, and
        # to reach the terminal through `analyze` on later releases
        ("# duration=3.0\nE 1 5 a\0b syscall\n", "line 2: process name 'a\\x00b' is not printable"),
    ],
)
def test_run_rejects_invalid_event_files(tmp_path, capsys, text, fragment):
    events = tmp_path / "events.txt"
    events.write_text(text)
    out = tmp_path / "out.csv"
    code = main(["run", str(events), "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {fragment}\n"
    assert not out.exists()


def test_run_reports_a_corrupt_line_deep_in_a_valid_file(small_events, tmp_path, capsys):
    lines = small_events.read_text().splitlines(keepends=True)
    assert len(lines) > 3000
    lines[2999] = "P 40.5 sent tcp syn\n"
    events = tmp_path / "events.txt"
    events.write_text("".join(lines))
    out = tmp_path / "out.csv"
    code = main(["run", str(events), "--seed", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: line 3000: packet line needs 6 or 7 fields, got 5\n"
    assert not out.exists()


def test_run_reports_a_replay_error_before_a_later_parse_error(tmp_path, capsys):
    # The file is read as it is replayed: second 1 runs once line 2 is read.
    events = tmp_path / "events.txt"
    events.write_text("E 1 5 sshd logout\nP 3 sent udp - 60\nP bad\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(events), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: logout at t=1.0 with no open root session\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["bad-line", "replay-error"])
def test_a_failed_run_leaves_existing_files_alone(small_events, tmp_path, capsys, fork, case):
    # The log and the trace are written a tick at a time, to .part files that
    # replace the named files only when the run ends without an error.
    lines = small_events.read_text().splitlines(keepends=True)
    t = lines[2999].split()[1]
    if case == "bad-line":
        lines[2999] = "P 40.5 sent tcp syn\n"
        message = "line 3000: packet line needs 6 or 7 fields, got 5"
    else:  # the one root session is closed twice
        lines[2999] += f"E {t} 3319 sshd logout\n" * 2
        message = f"logout at t={float(t)} with no open root session"
    events = tmp_path / "events.txt"
    events.write_text("".join(lines))
    out, trace = tmp_path / "out.csv", tmp_path / "signals.csv"
    out.write_bytes(b"an older log\n")
    trace.write_bytes(b"an older trace\n")
    assert main(["run", str(events), "--seed", "1", "--out", str(out),
                 "--signal-trace", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_bytes() == b"an older log\n"
    assert trace.read_bytes() == b"an older trace\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.txt", "out.csv", "signals.csv"]


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_run_rejects_one_file_for_the_log_and_the_trace(small_events, tmp_path, capsys, link):
    # Two tables at one path would share F.part, and the trace's rename would leave F holding it.
    out = tmp_path / "out.csv"
    out.write_bytes(b"an older log\n")
    trace = out
    if link:
        trace = tmp_path / "trace.csv"
        trace.symlink_to(out)
    assert main(["run", str(small_events), "--seed", "1", "--out", str(out),
                 "--signal-trace", str(trace)]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: --out and --signal-trace name the same file: {out}\n")
    assert out.read_bytes() == b"an older log\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv", "trace.csv"] if link
                                                          else ["out.csv"])


@pytest.mark.parametrize("case", ["same-path", "symlink", "part-name"])
@pytest.mark.parametrize("flag", ["--out", "--signal-trace"])
def test_run_rejects_an_output_at_its_events_file(small_events, tmp_path, capsys, flag, case):
    # The output's rename would replace the events file with a table; for an
    # events file named like the output's .part file, opening that file would.
    events_path = tmp_path / ("events.txt.part" if case == "part-name" else "events.txt")
    events_path.write_bytes(small_events.read_bytes())
    target = {"same-path": events_path, "symlink": tmp_path / "link.txt",
              "part-name": tmp_path / "events.txt"}[case]
    if case == "symlink":
        target.symlink_to(events_path)
    assert main(["run", str(events_path), "--seed", "1", "--out", str(tmp_path / "out.csv"),
                 flag, str(target)]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: {flag} would overwrite the events file: {target}\n")
    assert events_path.read_bytes() == small_events.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {events_path.name, target.name} if case == "symlink" else {events_path.name})
    events_path.unlink()  # an input, which no_part_file_left would take for a partial output


def _files(root) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("out, trace", [("o.csv", "o.csv.part"), ("o.csv.part", "o.csv")])
def test_run_rejects_an_output_at_the_other_outputs_part_file(small_events, tmp_path, capsys,
                                                              monkeypatch, out, trace):
    # One table's rename would land on the other's open .part file, and the
    # log would end up holding the signal trace.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_bytes(b"an older log\n")
    assert main(["run", str(small_events), "--seed", "1", "--out", out,
                 "--signal-trace", trace]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: --out and --signal-trace name a file and its .part file: {out}, {trace}\n")
    assert _files(tmp_path) == {"o.csv": b"an older log\n"}


_CONFIG_TEXT = b"engine.population_size = 100\n"
_PIPELINE = ["pipeline", "passive-normal", "--duration", "5", "--seed", "1", "--out-dir", "D"]
_ANALYSIS_FILES = ("mcav.csv", "summary.csv", "verdicts.csv")
_PIPELINE_FILES = ("events.txt", "presentations.csv", "signals.csv", *_ANALYSIS_FILES)


@pytest.mark.parametrize("argv, inputs, message", [
    (["run", "ev.txt", "--seed", "1", "--config", "c.cfg", "--out", "c.cfg"],
     {"ev.txt": "events", "c.cfg": "config"}, "--out would overwrite the config file: c.cfg"),
    (["run", "ev.txt", "--seed", "1", "--config", "c.cfg", "--signal-trace", "c.cfg"],
     {"ev.txt": "events", "c.cfg": "config"},
     "--signal-trace would overwrite the config file: c.cfg"),
    (["run", "ev.txt", "--seed", "1", "--config", "o.csv.part", "--out", "o.csv"],
     {"ev.txt": "events", "o.csv.part": "config"}, "--out would overwrite the config file: o.csv"),
    (["generate", "passive-normal", "--duration", "5", "--config", "c.cfg", "--out", "c.cfg"],
     {"c.cfg": "config"}, "--out would overwrite the config file: c.cfg"),
    (["generate", "passive-normal", "--duration", "5", "--config", "e.txt.part", "--out", "e.txt"],
     {"e.txt.part": "config"}, "--out would overwrite the config file: e.txt"),
    *((["analyze", f"D/{name}", "--out-dir", "D"], {f"D/{name}": "log"},
       f"{name} would overwrite the log: D/{name}")
      for name in _ANALYSIS_FILES),
    (["analyze", "D/summary.csv.part", "--out-dir", "D"], {"D/summary.csv.part": "log"},
     "summary.csv would overwrite the log: D/summary.csv"),
    (["analyze", "log.csv", "--out-dir", "D", "--config", "D/verdicts.csv"],
     {"log.csv": "log", "D/verdicts.csv": "config"},
     "verdicts.csv would overwrite the config file: D/verdicts.csv"),
    *(([*_PIPELINE, "--signal-trace", "--config", f"D/{name}"], {f"D/{name}": "config"},
       f"{name} would overwrite the config file: D/{name}")
      for name in _PIPELINE_FILES),
    ([*_PIPELINE, "--config", "D/events.txt.part"], {"D/events.txt.part": "config"},
     "events.txt would overwrite the config file: D/events.txt"),
], ids=["run-out", "run-signal-trace", "run-part", "generate-out", "generate-part",
        *(f"analyze-{name}" for name in _ANALYSIS_FILES), "analyze-part", "analyze-config",
        *(f"pipeline-{name}" for name in _PIPELINE_FILES), "pipeline-part"])
def test_an_output_at_an_input_fails_before_the_work(small_events, tmp_path, capsys, monkeypatch,
                                                     argv, inputs, message):
    # Each used to exit 0 with the input replaced by an output.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D").mkdir()
    log = tmp_path / "log.csv"
    write_log([], log)
    contents = {"events": small_events.read_bytes(), "config": _CONFIG_TEXT,
                "log": log.read_bytes()}
    for path, kind in inputs.items():
        (tmp_path / path).write_bytes(contents[kind])
    before = _files(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert _files(tmp_path) == before
    for part in tmp_path.rglob("*.part"):
        part.unlink()  # an input, which no_part_file_left would take for a partial output


@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_directory_at_the_output_fails_before_the_work(small_events, tmp_path, capsys,
                                                         monkeypatch, command):
    monkeypatch.setattr(pipeline, "run_stream", _no_work)
    monkeypatch.setattr(events, "write_stream", _no_work)
    out = tmp_path / "out"
    out.mkdir()
    argv = {"run": ["run", str(small_events), "--seed", "1"],
            "generate": ["generate", "passive-normal", "--duration", "60", "--seed", "2"]}[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"io error: [Errno {errno.EISDIR}] Is a directory: {str(out)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(out.iterdir()) == []


def test_run_reports_a_reader_killed_by_a_signal(small_events, tmp_path, capsys, monkeypatch):
    def killed_after_a_frame(lines):
        for frame in events.write_frames(lines):
            yield frame
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "write_frames", killed_after_a_frame)  # the forked child inherits it
    out = tmp_path / "out.csv"
    assert main(["run", str(small_events), "--seed", "1", "--out", str(out)]) == 3
    kill = int(signal.SIGKILL)
    assert capsys.readouterr().err == (f"io error: the reader of {small_events} was killed by "
                                       f"signal {kill} ({signal.strsignal(kill)})\n")
    assert not out.exists()


def test_run_keeps_the_message_of_a_read_error(small_events, tmp_path, capsys, monkeypatch, fork):
    def read_then_fail(lines):
        def failing():
            yield from itertools.islice(lines, 2000)
            raise OSError(errno.EIO, "Input/output error")
        return events.write_frames(failing())

    monkeypatch.setattr(cli, "write_frames", read_then_fail)
    before = small_events.read_bytes()
    assert main(["run", str(small_events), "--seed", "1", "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr() == ("", f"io error: [Errno {errno.EIO}] Input/output error\n")
    assert list(tmp_path.iterdir()) == []
    assert small_events.read_bytes() == before


def test_a_replay_error_ends_a_reader_blocked_on_a_full_pipe(tmp_path, capsys):
    # The reader sends far more than a pipe buffer holds while second 1 fails;
    # it must end once the replay has failed, not wait on the pipe.
    events_file = tmp_path / "events.txt"
    events_file.write_text("E 1 5 sshd logout\n" + "".join(
        f"P {format_time(2 + i / 1000)} sent udp - 60\n" for i in range(100_000)))
    out = tmp_path / "out.csv"

    def hung(*_):
        pytest.fail("run did not end after the replay failed")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = main(["run", str(events_file), "--seed", "1", "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert capsys.readouterr().err == "error: logout at t=1.0 with no open root session\n"
    assert not out.exists()


def test_run_over_more_tails_than_the_memo_holds_matches_in_process(tmp_path, capsys,
                                                                    monkeypatch):
    # Every pid is a new tail, so the memo clears and the repeated pids are parsed anew.
    pids = [*range(1, 2 * MAX_TAILS + 500), *range(1, 3000)]
    events_file = tmp_path / "events.txt"
    events_file.write_text("".join(f"E {format_time(i / 200)} {pid} sshd syscall\n"
                                   for i, pid in enumerate(pids)))

    def outputs():
        out, trace = tmp_path / "p.csv", tmp_path / "s.csv"
        assert main(["run", str(events_file), "--seed", "1", "--out", str(out),
                     "--signal-trace", str(trace)]) == 0
        return capsys.readouterr(), out.read_bytes(), trace.read_bytes()

    forked = outputs()
    monkeypatch.delattr(os, "fork")
    assert outputs() == forked


def test_run_rejects_out_of_range_signal_config(small_events, tmp_path, capsys):
    # Signals are capped at signals.SIGNAL_MAX; there is no cap key to raise.
    conf = tmp_path / "run.conf"
    conf.write_text("signals.signal_cap = 200\n")
    code = main(["run", str(small_events), "--seed", "1", "--config", str(conf),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err == "config error: config line 1: unknown config key signals.signal_cap\n"


def _run_or_pipeline_argv(tmp_path, command):
    return (["run", str(tmp_path / "events.txt"), "--out", str(tmp_path / "p.csv")]
            if command == "run" else
            ["pipeline", "passive-normal", "--out-dir", str(tmp_path / "run")])


@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_audit_every_is_not_an_option(tmp_path, capsys, command):
    # Conservation is checked on every tick, so there is no interval to set.
    argv = _run_or_pipeline_argv(tmp_path, command)
    assert main(argv + ["--seed", "1", "--audit-every", "10"]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized arguments: --audit-every 10\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--audit-every=-7", "--audit-every=x"])
@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_audit_every_must_be_a_non_negative_integer(tmp_path, capsys, command, flag):
    # The flag is gone, so a value that was once out of range is refused as
    # an unknown argument, still with one usage line and no files written.
    argv = _run_or_pipeline_argv(tmp_path, command)
    assert main(argv + ["--seed", "1", flag]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: unrecognized arguments: {flag}\n"
    assert not list(tmp_path.iterdir())


NOT_UTF8 = b"\x80\xff not text \xfe\n"
_BAD_START = "byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("command, data, message", [
    ("run", NOT_UTF8, "error: line 1: byte 0x80 is not UTF-8 (invalid start byte)"),
    ("analyze", NOT_UTF8, "error: row 1: byte 0x80 is not UTF-8 (invalid start byte)"),
    ("config", NOT_UTF8, "config error: config line 1: byte 0x80 is not UTF-8 (invalid start byte)"),
    # a byte past the first line used to be named only by its offset in a chunk of the file
    ("run", b"# duration=3.0\nP 1 sent udp - 60\nE 2 5 ab\xff syscall\n", f"error: line 3: {_BAD_START}"),
    ("analyze", b"presented_at,pid,label,context\r\n1,5,nmap,1\r\n2,5,a\xffb,1\r\n",
     f"error: row 3: {_BAD_START}"),
    # in a comment too
    ("config", b"engine.population_size = 100\r# caf\xe9 au lait\n",
     "config error: config line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    # a file that ends inside a character
    ("run", b"P 1 sent udp - 60\n# caf\xe9", "error: line 2: byte 0xe9 is not UTF-8 (unexpected end of data)"),
    # a quoted field carries a row across lines: the byte is named on its own line
    ("analyze", b'presented_at,pid,label,context\n1,5,"a\xff\nb",1\n', f"error: row 2: {_BAD_START}"),
], ids=["run", "analyze", "config", "run-line-3", "analyze-row-3", "config-comment", "run-comment",
        "analyze-quoted"])
def test_non_utf8_input_is_a_one_line_error(small_events, tmp_path, capsys, command, data, message):
    blob = tmp_path / "blob"
    blob.write_bytes(data)
    argv = {
        "run": ["run", str(blob), "--seed", "1", "--out", str(tmp_path / "p.csv")],
        "analyze": ["analyze", str(blob), "--out-dir", str(tmp_path / "scores")],
        "config": ["run", str(small_events), "--seed", "1", "--config", str(blob),
                   "--out", str(tmp_path / "p.csv")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blob"]


@pytest.mark.parametrize("nl", [b"\r", b"\r\n", b"\n"], ids=["cr", "crlf", "lf"])
@pytest.mark.parametrize("command", ["run", "analyze"])
def test_a_bad_byte_past_a_chunk_end_names_its_line(tmp_path, capsys, command, nl):
    # A text file is decoded 8,192 bytes at a time, and a \r that ends a chunk is held back
    # to see whether \n follows, so the line end before the bad byte may end the chunk before.
    head, row = ((b"# duration=10", b"E %d 5 %s syscall") if command == "run"
                 else (b"presented_at,pid,label,context", b"%d,5,%s,1"))
    blob = tmp_path / "blob"
    argv = (["run", str(blob), "--seed", "1", "--out", str(tmp_path / "p.csv")] if command == "run"
            else ["analyze", str(blob), "--out-dir", str(tmp_path / "scores")])
    where = "line" if command == "run" else "row"
    for end in range(8188, 8196):  # the byte at which the end of line 2 begins
        name = b"a" * (end - len(head + nl + row % (1, b"")))
        blob.write_bytes(nl.join([head, row % (1, name), row % (2, b"a\xffb")]) + nl)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {where} 3: {_BAD_START}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blob"]


# Per command: the first line, a good line and a refused one at a second, and its error.
_REFUSED = {
    "run": (b"# duration=9000", b"E %d 5 %s syscall", b"P %d sent udp - 6X", "size: bad numeric field: '6X'"),
    "analyze": (b"presented_at,pid,label,context", b"%d,5,%s,1", b"%d,5X,nmap,1",
                "pid: bad numeric field: '5X'"),
}


@pytest.mark.parametrize("case, feed", [("a", "file"), ("a", "pipe"), ("b", "file"), ("b", "pipe"),
                                        ("c", "pipe")])
@pytest.mark.parametrize("command", ["run", "analyze"])
def test_the_first_refused_line_wins(tmp_path, capsys, command, case, feed):
    # A file used to be decoded a chunk ahead of its lines, so a bad byte later in the chunk was
    # reported before a line refused for a field, and a pipe could not see a \r held back.
    head, row, refused, why = _REFUSED[command]
    nl, where = b"\n", {"a": 2, "b": 8001, "c": 3}[case]
    if case == "a":  # line 2 refused, a bad byte on line 3
        lines = [head, refused % 1, row % (2, b"ab\xff")]
    elif case == "b":  # the same past the first 8,192-byte chunk: lines 8,001 and 8,002
        lines = [head, *(row % (t, b"sshd") for t in range(1, 8000)), refused % 8000, row % (8001, b"a\xffb")]
    else:  # line 2 ends in a \r at byte 8,191, the last of a chunk, and line 3 holds a bad byte
        nl, why = b"\r", _BAD_START
        name = b"a" * (8191 - len(head + nl + row % (1, b"")))
        lines = [head, row % (1, name), row % (2, b"a\xffb")]
    data = nl.join(lines) + nl
    source = "/dev/stdin" if feed == "pipe" else str(tmp_path / "blob")
    argv = ([command, source, "--seed", "1", "--out", str(tmp_path / "p.csv")] if command == "run"
            else [command, source, "--out-dir", str(tmp_path / "scores")])
    if feed == "pipe":
        proc = subprocess.run([sys.executable, "-m", "dcascan.cli", *argv], input=data, env=_CHILD_ENV,
                              capture_output=True, timeout=60)
        code, err = proc.returncode, proc.stderr.decode()
    else:
        (tmp_path / "blob").write_bytes(data)
        code, err = main(argv), capsys.readouterr().err
    assert (code, err) == (2, f"error: {'line' if command == 'run' else 'row'} {where}: {why}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if feed == "pipe" else ["blob"])


# --------------------------------------------------------------------------
# analyze


def test_analyze_verdict_per_label(tmp_path, capsys):
    log = tmp_path / "log.csv"
    records = (
        [_rec("nmap", 1, 10)] * 40
        + [_rec("firefox", 0, 11)] * 40
        + [_rec("pts", 1, 12)] * 3
    )
    write_log(records, log)
    out_dir = tmp_path / "scores"
    conf = tmp_path / "scores.conf"
    conf.write_text("analysis.window_size = 20\nanalysis.min_confidence = 10\n")
    code = main(["analyze", str(log), "--out-dir", str(out_dir), "--config", str(conf)])
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
    write_log([], log)
    code = main(["analyze", str(log), "--out-dir", str(tmp_path / "scores")])
    assert code == 0
    assert "empty" in capsys.readouterr().err


def test_analyze_rejects_a_window_longer_than_islice_takes(tmp_path, capsys):
    # used to end in a ValueError traceback from itertools.islice, with exit code 1
    log = tmp_path / "log.csv"
    write_log([_rec("nmap", 1, 1)] * 3, log)
    conf = tmp_path / "scores.conf"
    conf.write_text("analysis.window_size = 100000000000000000000\n")
    assert main(["analyze", str(log), "--out-dir", str(tmp_path / "scores"),
                 "--config", str(conf)]) == 2
    assert capsys.readouterr().err == ("config error: analysis: window_size must lie in "
                                       "[1, 9,223,372,036,854,775,807], got 100000000000000000000\n")
    assert not (tmp_path / "scores").exists()


@pytest.mark.parametrize("flag", ["--window-size", "--mcav-threshold", "--min-confidence"])
def test_analyze_takes_its_settings_only_from_the_config_file(tmp_path, capsys, flag):
    # The analysis.* keys set these; the flags that set them a second way are gone.
    log = tmp_path / "log.csv"
    write_log([_rec("nmap", 1, 1)] * 3, log)
    assert main(["analyze", str(log), "--out-dir", str(tmp_path / "scores"), flag, "20"]) == 1
    assert capsys.readouterr() == ("", f"usage error: unrecognized arguments: {flag} 20\n")
    assert not (tmp_path / "scores").exists()


_HEADER = "presented_at,pid,label,context\n"
_HUGE_FIELD = "x" * 131_073  # one past csv's default field size limit


@pytest.mark.parametrize("text, fragment", [
    (_HEADER + "1,x,y,1\n", "row 2: pid: bad numeric field: 'x'"),
    (_HEADER + "x,5,y,1\n", "row 2: presented_at: bad numeric field: 'x'"),
    # an oversized field used to end in an uncaught _csv.Error traceback
    (_HEADER + f"1,5,{_HUGE_FIELD},1\n", "row 2: field larger than field limit (131072)"),
    (_HUGE_FIELD + "\n", "row 1: field larger than field limit (131072)"),
    # int() read these as contexts 1 and 0; a run writes a context only as 0 or 1
    (_HEADER + "1,5,y,+1\n", "row 2: context: bad numeric field: '+1'"),
    (_HEADER + "1,5,y, 1\n", "row 2: context: bad numeric field: ' 1'"),
    (_HEADER + "1,5,y,\u0660\n", "row 2: context: bad numeric field: '\u0660'"),
    (_HEADER + "1,5,y,01\n", "row 2: context: bad numeric field: '01'"),
    # int() reads these; a run writes a time and a pid as str(n) of an int, >= 0 and > 0
    (_HEADER + "-1,5,nmap,1\n", "row 2: presented_at must lie in [0, inf], got -1"),
    (_HEADER + "1_0,5,nmap,1\n", "row 2: presented_at: bad numeric field: '1_0'"),
    (_HEADER + "+3,5,nmap,1\n", "row 2: presented_at: bad numeric field: '+3'"),
    (_HEADER + " 2,5,nmap,1\n", "row 2: presented_at: bad numeric field: ' 2'"),
    (_HEADER + "05,5,nmap,1\n", "row 2: presented_at: bad numeric field: '05'"),
    (_HEADER + "\u0663,5,nmap,1\n", "row 2: presented_at: bad numeric field: '\u0663'"),
    (_HEADER + "3,\u0663,nmap,0\n", "row 2: pid: bad numeric field: '\u0663'"),
    # float() read these, so a log of times no run writes scored as if a run wrote it
    (_HEADER + "1e1,5,nmap,1\n", "row 2: presented_at: bad numeric field: '1e1'"),
    (_HEADER + "1.0,5,nmap,1\n", "row 2: presented_at: bad numeric field: '1.0'"),
    (_HEADER + "12.5,5,nmap,1\n", "row 2: presented_at: bad numeric field: '12.5'"),
    (_HEADER + "nan,5,nmap,1\n", "row 2: presented_at: bad numeric field: 'nan'"),
    (_HEADER + "inf,5,nmap,1\n", "row 2: presented_at: bad numeric field: 'inf'"),
    # a control character in a label used to reach the terminal as it was
    (_HEADER + "1,5,\x1b[2Jy,1\n", "row 2: label '\\x1b[2Jy' is not printable"),
    (_HEADER + "1,0,nmap,1\n", "row 2: pid must be positive, got 0"),
    (_HEADER + "1,5,nmap,2\n", "row 2: context must lie in [0, 1], got 2"),
    # csv read a NUL on CPython 3.11 and later, and refused it on 3.10 in its own words
    (_HEADER + "1,5,a\0b,1\n", "row 2: line contains NUL"),
], ids=["bad-number", "bad-time", "huge-field", "huge-header",
        "signed-context", "spaced-context", "arabic-indic-context", "padded-context",
        "negative-time", "underscored-time", "signed-time", "spaced-time", "padded-time",
        "arabic-indic-time", "arabic-indic-pid", "exponent-time", "float-time",
        "fractional-time", "nan-time", "infinite-time", "escape-label", "zero-pid",
        "out-of-range-context", "nul-label"])
def test_analyze_corrupt_log(tmp_path, capsys, text, fragment):
    log = tmp_path / "bad.csv"
    log.write_text(text)
    code = main(["analyze", str(log), "--out-dir", str(tmp_path / "scores")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and err.count("\n") == 1
    assert not (tmp_path / "scores" / "mcav.csv").exists()


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


def _short_pipeline(out_dir):
    return main(["pipeline", "passive-normal", "--duration", "60", "--seed", "2",
                 "--out-dir", str(out_dir)])


def _full_disk(stream, fh):
    raise OSError(28, "No space left on device")


def _drops_the_first(stream, fh):
    rest = stream.events
    next(rest)
    return events.write_stream(argparse.Namespace(events=rest, duration=stream.duration), fh)


def _broken_replay(*args, **kwargs):
    raise OSError("replay failed")


def test_pipeline_reports_a_failed_event_file_write_from_the_child(tmp_path, capsys, monkeypatch,
                                                                   fork):
    monkeypatch.setattr(cli, "write_stream", _full_disk)  # the forked child inherits it
    assert _short_pipeline(tmp_path / "run") == 3
    assert capsys.readouterr() == ("", "io error: [Errno 28] No space left on device\n")
    # The write fails after the replay, with a fork or without one, and leaves no file.
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []


def test_pipeline_rejects_a_writer_that_drops_an_event(tmp_path, capsys, monkeypatch, fork):
    monkeypatch.setattr(cli, "write_stream", _drops_the_first)  # the forked child inherits it
    assert _short_pipeline(tmp_path / "run") == 3
    path = tmp_path / "run" / "events.txt"
    assert capsys.readouterr() == (
        "", f"io error: the writer of {path} wrote 11617 events, the replay read 11618\n")
    assert sorted(p.name for p in path.parent.iterdir()) == []


def test_pipeline_reports_a_writer_killed_by_a_signal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "write_stream",
                        lambda stream, fh: os.kill(os.getpid(), signal.SIGKILL))
    assert _short_pipeline(tmp_path / "run") == 3
    out, err = capsys.readouterr()
    assert err.startswith("io error: ") and err.count("\n") == 1
    assert f"killed by signal {int(signal.SIGKILL)} " in err
    assert "generated" not in out


def test_a_failed_replay_keeps_its_message_and_reaps_the_writer(tmp_path, capsys, monkeypatch,
                                                                 fork):
    monkeypatch.setattr(pipeline, "run_stream", _broken_replay)
    assert _short_pipeline(tmp_path / "run") == 3
    assert capsys.readouterr() == ("", "io error: replay failed\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("case", ["write", "drop", "replay"])
def test_a_failed_pipeline_leaves_existing_files_alone(tmp_path, capsys, monkeypatch, fork, case):
    owner, name, patch = {"write": (cli, "write_stream", _full_disk),
                          "drop": (cli, "write_stream", _drops_the_first),
                          "replay": (pipeline, "run_stream", _broken_replay)}[case]
    monkeypatch.setattr(owner, name, patch)
    run = tmp_path / "run"
    run.mkdir()
    names = ["events.txt", "mcav.csv", "presentations.csv", "signals.csv", "summary.csv",
             "verdicts.csv"]
    for name in names:
        (run / name).write_bytes(f"an older {name}\n".encode())
    assert main(["pipeline", "passive-normal", "--duration", "60", "--seed", "2",
                 "--out-dir", str(run), "--signal-trace"]) == 3
    assert capsys.readouterr().err.startswith("io error: ")
    assert sorted(p.name for p in run.iterdir()) == names
    for name in names:
        assert (run / name).read_bytes() == f"an older {name}\n".encode()


def test_pipeline_fails_on_an_unopenable_event_file_before_the_replay(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(pipeline, "run_stream", _no_work)
    path = tmp_path / "run" / "events.txt"
    path.mkdir(parents=True)
    assert _short_pipeline(tmp_path / "run") == 3
    assert capsys.readouterr().err == (
        f"io error: [Errno {errno.EISDIR}] Is a directory: {str(path)!r}\n")  # not events.txt.part
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["events.txt"]


# Starts the CLI and prints its exit code and peak RSS.  A process's ru_maxrss
# starts at the peak of the process that spawned it, so the CLI is spawned from
# this small launcher, not from pytest, whose own peak would hide the CLI's.
_LAUNCHER = ("import os, sys; argv = [sys.executable, '-m', 'dcascan.cli', *sys.argv[1:]]; "
             "_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss_kb(argv):
    """The peak resident set size of one CLI call in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=_CHILD_ENV, check=True,
                         capture_output=True, text=True).stdout
    code, peak = map(int, out.split()[-2:])
    assert code == 0
    return peak


def test_generate_holds_one_second_of_the_session_at_a_time(tmp_path):
    # Holding the whole session, 4,000 s used to peak at about 120 MB, 500 s at 30 MB.
    short, long = (_peak_rss_kb(["generate", "passive-normal", "--duration", str(duration),
                                 "--seed", "7", "--out", str(tmp_path / "events.txt")])
                   for duration in (500, 4_000))
    assert abs(long - short) < 0.1 * short


def _analyze_peak_rss_kb(tmp_path, rows):
    """The peak RSS of `analyze` on a synthetic log of ``rows`` rows and four labels."""
    labels = ("nmap", "pts", "firefox", "sshd")
    log = tmp_path / f"{rows}.csv"
    log.write_text("presented_at,pid,label,context\n" + "".join(
        f"{i // 8},{3400 + i % 4},{labels[i % 4]},{i % 3 % 2}\n" for i in range(rows)))
    return _peak_rss_kb(["analyze", str(log), "--out-dir", str(tmp_path / "scores")])


def test_analyze_holds_one_window_of_the_log_at_a_time(tmp_path):
    # Holding the whole log, 300,000 rows used to peak at about 95 MB, 30,000 at 25 MB.
    short, long = (_analyze_peak_rss_kb(tmp_path, rows) for rows in (30_000, 300_000))
    assert abs(long - short) < 0.1 * short


def test_pipeline_holds_one_window_of_its_log_at_a_time(tmp_path):
    # Holding every presentation record, 6,000 s used to peak at 36.5 MB, 1,000 s at 20.8 MB.
    short, long = (_peak_rss_kb(["pipeline", "passive-normal", "--duration", str(duration),
                                 "--seed", "7", "--out-dir", str(tmp_path / str(duration))])
                   for duration in (1_000, 6_000))
    assert abs(long - short) < 0.1 * short


def test_pipeline_without_fork_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    def outputs(where):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        assert _short_pipeline("run") == 0
        names = ("events.txt", "presentations.csv", "mcav.csv", "summary.csv", "verdicts.csv")
        files = {name: (tmp_path / where / "run" / name).read_bytes() for name in names}
        return capsys.readouterr().out, files

    forked = outputs("forked")
    monkeypatch.delattr(os, "fork")
    assert outputs("in-process") == forked


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
    write_log([_rec("nmap", 1, 1)] * 25, log)
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


def _config_error(small_events, tmp_path, capsys, text) -> str:
    """The stderr of a run given ``text`` as its config file, which fails at load:
    exit 2, nothing on stdout and no log written."""
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["run", str(small_events), "--seed", "1", "--out", str(out),
                 "--config", str(conf)]) == 2
    assert not out.exists() and not (tmp_path / "o.csv.part").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("bad, message", [
    ("engine.population_size = x", "engine.population_size: expected an integer, got 'x'"),
    ("signals.ds1_scale = inf", "signals.ds1_scale must be finite, got 'inf'"),
    ("engine.nosuch = 1", "unknown config key engine.nosuch"),
    ("nosuch.key = 1", "unknown config section 'nosuch'"),
], ids=["unreadable", "non-finite", "unknown-key", "unknown-section"])
def test_a_bad_config_value_names_its_line(small_events, tmp_path, capsys, bad, message):
    text = f"# tuned\nengine.cell_store_capacity = 40\n{bad}\nanalysis.window_size = 0\n"
    assert _config_error(small_events, tmp_path, capsys, text) == f"config error: config line 3: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("engine.population_size = x\nbroken line\n",
     "config line 1: engine.population_size: expected an integer, got 'x'"),
    # a section is built after the last line, so a refused line wins over its rules
    ("engine.threshold_min = 500\nbroken line\n", "config line 2: expected key = value"),
], ids=["value-then-form", "section-then-form"])
def test_the_first_refused_config_line_is_reported(small_events, tmp_path, capsys, text, message):
    assert _config_error(small_events, tmp_path, capsys, text) == f"config error: {message}\n"


def test_a_config_section_rule_names_its_section(small_events, tmp_path, capsys):
    err = _config_error(small_events, tmp_path, capsys, "engine.threshold_min = 500\n")
    assert err == "config error: engine: threshold_max must lie in [500, inf], got 300.0\n"


def test_a_config_section_is_checked_after_its_last_line(small_events, tmp_path):
    # threshold_min = 500 alone breaks threshold_max's bound; the later line mends it
    conf = tmp_path / "run.conf"
    conf.write_text("engine.threshold_min = 500\nengine.threshold_max = 600\n")
    out = tmp_path / "o.csv"
    assert main(["run", str(small_events), "--seed", "1", "--out", str(out),
                 "--config", str(conf)]) == 0
    assert out.exists()


def test_missing_config_file_exits_3(small_events, tmp_path):
    code = main(["run", str(small_events), "--seed", "1",
                 "--out", str(tmp_path / "o.csv"),
                 "--config", str(tmp_path / "absent.conf")])
    assert code == 3


# --------------------------------------------------------------------------
# the cyclic garbage collector


@pytest.mark.parametrize("argv, code", [
    (["generate", "passive-normal", "--duration", "20", "--seed", "1", "--out", "{tmp}/e.txt"], 0),
    (["nosuchcommand"], 1),
    (["generate", "passive-normal", "--duration", "0", "--seed", "1", "--out", "{tmp}/e.txt"], 2),
    (["run", "{tmp}/absent.txt", "--seed", "1", "--out", "{tmp}/o.csv"], 3),
    (["pipeline", "passive-normal", "--duration", "20", "--seed", "1", "--out-dir", "{tmp}/p"], 0),
    (["run", "{tmp}/in.txt", "--seed", "1", "--out", "{tmp}/o.csv"], 0),
])
@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, argv, code, collecting):
    (tmp_path / "in.txt").write_text("# duration=3\nP 1 sent udp - 60\nE 2 5 sshd syscall\n")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_pipeline_forms_no_cycles_of_its_own(tmp_path, capsys):
    """With the collector off, a longer session leaves no more garbage; only
    the argument parser forms cycles, so reference counting frees the rest."""

    def garbage(duration):
        was, flags, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["pipeline", "passive-normal", "--duration", str(duration), "--seed", "3",
                         "--out-dir", str(tmp_path / str(duration))]) == 0
            gc.collect()
            return gc.garbage[start:]
        finally:
            del gc.garbage[start:]
            gc.set_debug(flags)
            (gc.enable if was else gc.disable)()

    short, long = garbage(60), garbage(240)
    assert len(short) == len(long)
    assert [obj for obj in short + long if type(obj).__module__.startswith("dcascan")
            and not isinstance(obj, argparse.ArgumentParser)] == []
