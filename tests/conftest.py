"""Fixtures shared across test modules."""

import pytest

from repro.net import BrokerServer
from repro.results import store as store_module


class FakeClock:
    """Stands in for the ``time`` module inside the results store."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now

    def time(self):
        return self.now


@pytest.fixture
def store_clock(monkeypatch):
    """A clock the test advances by hand, installed in the results store
    (it decides the store's timed flushes)."""
    clock = FakeClock()
    monkeypatch.setattr(store_module, "time", clock)
    return clock


@pytest.fixture
def server():
    """A broker server on a free loopback port, stopped after the test."""
    with BrokerServer() as broker_server:
        yield broker_server
