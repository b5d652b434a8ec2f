"""Fixtures that every test module uses."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (pid {pid}, wait status {status})")


@pytest.fixture(autouse=True)
def no_part_file_left(request):
    """Fail a test that leaves a ``.part`` file of ``events.replacing``
    under its tmp_path: an output file is renamed into place or removed."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is not None and (left := sorted(p.name for p in tmp.rglob("*.part"))):
        pytest.fail(f"the test left partial files: {left}")


@pytest.fixture(params=[True, False], ids=["fork", "no-fork"])
def fork(request, monkeypatch):
    """Run the test with ``os.fork`` and again with it removed, as on a
    platform that cannot fork; the value says which."""
    if not request.param:
        monkeypatch.delattr(os, "fork")
    return request.param
