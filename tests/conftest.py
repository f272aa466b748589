"""Shared fixtures of the tier-1 suite."""

from __future__ import annotations

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a new non-daemon thread running: the
    interpreter waits for such threads at exit, so a leaked executor would
    hang whatever process ran the code."""
    before = set(threading.enumerate())
    yield
    leaked = [
        t.name for t in threading.enumerate()
        if t not in before and not t.daemon and t.is_alive()
    ]
    if leaked:
        pytest.fail(f"test left non-daemon threads running: {leaked}")
