"""Fixtures shared by the service test modules."""

import pytest

from repro import faults


@pytest.fixture()
def slow_groups():
    """``slow_groups(seconds)`` arms ``server.delay``: a node waits that long
    before it executes each fresh job group.  Disarmed after the test."""
    faults.registry.clear()
    yield lambda seconds: faults.registry.install("server.delay", delay=seconds)
    faults.registry.clear()
