"""Failure injection: crash and recover now, with node callbacks."""

import pytest

from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network
from repro.sim.rng import SeededRng


@pytest.fixture()
def harness():
    loop = EventLoop()
    network = Network(loop, SeededRng(5))
    network.register("n0", lambda m: None)
    network.register("n1", lambda m: None)
    injector = FailureInjector(loop, network)
    return loop, network, injector


class TestFailureInjector:
    def test_callbacks_invoked_and_logged(self, harness):
        loop, network, injector = harness
        events = []
        injector.register_callbacks(
            "n0", on_crash=lambda: events.append("crash"), on_recover=lambda: events.append("up")
        )
        injector.crash_now("n0")
        injector.recover_now("n0")
        assert events == ["crash", "up"]
        assert injector.log == [(0.0, "crash", "n0"), (0.0, "recover", "n0")]

    def test_immediate_crash_and_recover(self, harness):
        loop, network, injector = harness
        injector.crash_now("n0")
        assert network.is_crashed("n0")
        injector.recover_now("n0")
        assert not network.is_crashed("n0")
