"""Golden digests: the exact output bytes of small seeded pipeline runs.

These sha256 values pin behaviour across commits, not only between two runs
of one build.  A change that moves any of them changes what the detector
reports; it must be deliberate and update the digests here with a note on
why.
"""

import hashlib

import pytest

from dcascan.cli import main

GOLDEN = {
    "passive-normal": {
        "presentations.csv": "750c410e8c32abbff60a14ecac2dba84b269027efc06fe6411fac9c5b3cdf49c",
        "mcav.csv": "158c4d135d0fbbb3e2647b4023e89d9f8282ba0cc21def1e5d00f8ebfef1a3b6",
        "summary.csv": "86d0c06f26b89aeee5451442534e35b0797fbbce09c621ced7daa61878d7dc11",
    },
    "active-normal": {
        "presentations.csv": "c54fa3967907dd896db87b46a573769c3b9944f736538105413af6bd57f66499",
        "mcav.csv": "86ed492cb1901f24d0313241f34dd9edb42406a480d334c5ecf5235b224b73b5",
        "summary.csv": "0809e938e03ef18389e5b953c64b714b524666e9bf754648f60777ce1ba167f2",
    },
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_pipeline_output_digests(kind, tmp_path, capsys):
    out = tmp_path / kind
    code = main(["pipeline", kind, "--duration", "500", "--seed", "7", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[kind]}
    assert digests == GOLDEN[kind]
