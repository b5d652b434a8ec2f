"""Golden digests: the exact output bytes of small seeded pipeline runs.

These sha256 values pin behaviour across commits, not only between two runs
of one build.  A change that moves any of them changes what the detector
reports; it must be deliberate and update the digests here with a note on
why.
"""

import hashlib
import os

import pytest

from dcascan.cli import main
from dcascan.events import parse_stream, serialize_stream

GOLDEN = {
    "passive-normal": {
        "presentations.csv": "750c410e8c32abbff60a14ecac2dba84b269027efc06fe6411fac9c5b3cdf49c",
        "mcav.csv": "158c4d135d0fbbb3e2647b4023e89d9f8282ba0cc21def1e5d00f8ebfef1a3b6",
        "summary.csv": "86d0c06f26b89aeee5451442534e35b0797fbbce09c621ced7daa61878d7dc11",
        "verdicts.csv": "1760458bedba8f53ddd3ea11a562b7a3ae2861ec036879118233c9ba138ed498",
    },
    "active-normal": {
        "presentations.csv": "c54fa3967907dd896db87b46a573769c3b9944f736538105413af6bd57f66499",
        "mcav.csv": "86ed492cb1901f24d0313241f34dd9edb42406a480d334c5ecf5235b224b73b5",
        "summary.csv": "0809e938e03ef18389e5b953c64b714b524666e9bf754648f60777ce1ba167f2",
        "verdicts.csv": "bdbb701b15b100dd50ac5fc5d0bb096b7e864093756862aed521c25adeb092d3",
    },
}

# sha256 of the events.txt that the pipeline runs below write; `generate` with
# the same arguments writes the same file.
EVENTS_GOLDEN = {
    "passive-normal": "0d14d102847bb3df92a1ed2960bbd59e8f18eab374feb25de78af9218f33cea5",
    "active-normal": "da4ba0eac140465deefb01a4a05f389764488f6d8f5894bedb32e9d9b5991e72",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_pipeline_output_digests(kind, tmp_path, capsys):
    out = tmp_path / kind
    code = main(["pipeline", kind, "--duration", "500", "--seed", "7", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in [*GOLDEN[kind], "events.txt"]}
    assert digests == {**GOLDEN[kind], "events.txt": EVENTS_GOLDEN[kind]}


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
