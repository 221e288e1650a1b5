"""Crash-fault injection.

Section 4.2.1 of the paper analyses the non-locking nested transaction
protocol under crashes at specific phases: while processing the parent
transaction, while enqueueing RETURNs, and while processing RETURNs.  This
module crashes and recovers simulated nodes at the moment a caller (the
chaos harness, a demo) picks.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.events import EventLoop
from repro.sim.network import Network


class FailureInjector:
    """Crashes and recovers nodes of a :class:`Network`.

    Nodes learn about their own crash through the ``on_crash`` /
    ``on_recover`` callbacks so they can drop volatile state (mempool)
    while keeping durable state (storage, recovery log) — exactly the
    split the paper's recovery protocol relies on.
    """

    def __init__(self, loop: EventLoop, network: Network):
        self._loop = loop
        self._network = network
        self._on_crash: dict[str, Callable[[], None]] = {}
        self._on_recover: dict[str, Callable[[], None]] = {}
        self.log: list[tuple[float, str, str]] = []

    def register_callbacks(
        self,
        node_id: str,
        on_crash: Callable[[], None] | None = None,
        on_recover: Callable[[], None] | None = None,
    ) -> None:
        """Register node-side crash/recovery hooks."""
        if on_crash is not None:
            self._on_crash[node_id] = on_crash
        if on_recover is not None:
            self._on_recover[node_id] = on_recover

    def crash_now(self, node_id: str) -> None:
        """Immediately crash a node."""
        self._crash(node_id)

    def recover_now(self, node_id: str) -> None:
        """Immediately recover a node."""
        self._recover(node_id)

    def _crash(self, node_id: str) -> None:
        self._network.crash(node_id)
        self.log.append((self._loop.clock.now, "crash", node_id))
        callback = self._on_crash.get(node_id)
        if callback is not None:
            callback()

    def _recover(self, node_id: str) -> None:
        self._network.recover(node_id)
        self.log.append((self._loop.clock.now, "recover", node_id))
        callback = self._on_recover.get(node_id)
        if callback is not None:
            callback()
