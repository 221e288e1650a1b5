"""Discrete-event simulation substrate (clock, events, network, failures)."""

from repro.sim.clock import SimClock
from repro.sim.events import EventHandle, EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Message, Network, NetworkConfig
from repro.sim.rng import SeededRng

__all__ = [
    "EventHandle",
    "EventLoop",
    "FailureInjector",
    "Message",
    "Network",
    "NetworkConfig",
    "SeededRng",
    "SimClock",
]
