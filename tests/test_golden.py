"""Golden digests under pytest: the pins and the pipeline run that checks
them live in ``golden.py``, which also runs without pytest."""

import hashlib
import os

import pytest

from dcascan.cli import main
from dcascan.events import parse_stream, serialize_stream
from golden import EVENTS_GOLDEN, GOLDEN, expected, pipeline_digests


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_pipeline_output_digests(kind, tmp_path, capsys):
    assert pipeline_digests(kind, tmp_path / kind) == expected(kind), capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_run_reproduces_the_pipeline_presentations(kind, tmp_path, capsys):
    events, out = tmp_path / "events.txt", tmp_path / "presentations.csv"
    assert main(["generate", kind, "--duration", "500", "--seed", "7", "--out", str(events)]) == 0
    code = main(["run", str(events), "--seed", "7", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[kind]["presentations.csv"]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_run_without_fork_writes_the_same_bytes(kind, tmp_path, capsys, monkeypatch):
    events = tmp_path / "events.txt"
    assert main(["generate", kind, "--duration", "500", "--seed", "7", "--out", str(events)]) == 0
    capsys.readouterr()

    def outputs():
        out, trace = tmp_path / "presentations.csv", tmp_path / "signals.csv"
        assert main(["run", str(events), "--seed", "7", "--out", str(out),
                     "--signal-trace", str(trace)]) == 0
        return capsys.readouterr(), out.read_bytes(), trace.read_bytes()

    forked = outputs()
    assert hashlib.sha256(forked[1]).hexdigest() == GOLDEN[kind]["presentations.csv"]
    monkeypatch.delattr(os, "fork")
    assert outputs() == forked


@pytest.mark.parametrize("kind", sorted(EVENTS_GOLDEN))
def test_event_file_digest_and_round_trip(kind, tmp_path):
    path = tmp_path / "events.txt"
    assert main(["generate", kind, "--duration", "500", "--seed", "7", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EVENTS_GOLDEN[kind]
    text = data.decode("utf-8")
    assert serialize_stream(parse_stream(text)) == text
