"""Golden digests: the exact output bytes of small seeded pipeline runs.

These sha256 values pin behaviour across commits and interpreters, not only
between two runs of one build.  A change that moves any of them changes what
the detector reports; it must be deliberate and update the digests here with
a note on why.

The module needs only the standard library and ``dcascan``, so any
interpreter can check the pins without pytest::

    PYTHONPATH=src python tests/golden.py

It prints one line per pinned file and exits 1 if any digest differs.
``tests/test_golden.py`` checks the same pins under pytest.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import tempfile

from dcascan.cli import main

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

def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected(kind: str) -> dict[str, str]:
    """The pinned digest of every file ``pipeline_digests(kind, ...)`` hashes."""
    return {**GOLDEN[kind], "events.txt": EVENTS_GOLDEN[kind]}


def pipeline_digests(kind: str, out_dir) -> dict[str, str]:
    """Run ``dcascan pipeline`` on ``kind`` into ``out_dir`` and hash each pinned file."""
    code = main(["pipeline", kind, "--duration", "500", "--seed", "7", "--out-dir", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"pipeline {kind} exited {code}")
    return {name: digest(os.path.join(out_dir, name)) for name in expected(kind)}


def check() -> int:
    """Run every pinned pipeline and print each file's result; 1 if any digest differs."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for kind in sorted(GOLDEN):
            got = pipeline_digests(kind, os.path.join(tmp, kind))
            for name, want in expected(kind).items():
                results.append(got[name] == want)
                print(f"{kind}/{name}: {'ok' if results[-1] else 'MISMATCH ' + got[name]}")
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{results.count(False)} of {len(results)} digests differ")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(check())
