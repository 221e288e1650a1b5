"""Bench-side span recorder: per-layer self-time without touching ``src/``.

The determinism lint bans clocks inside ``src/repro``, so the spans are
recorded from here, around each layer's public entry points.  A span is
``(name, start, end, parent)``; its *self time* is its duration minus the
part its child spans cover, so self times of all spans sum to the time
spent under root spans and a layer's column is the sum over its names
(``"crypto.sign"`` belongs to layer ``crypto``).

:meth:`Recorder.install` rebinds every target: methods are patched on the
class; module-level functions — the code imports them ``from x import
y`` — are rebound in every loaded ``repro.*`` module whose attribute *is*
the original.  :meth:`Recorder.uninstall` restores every binding.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from types import CodeType, FunctionType

#: (span name, module, dotted attribute).  The layer is the name's prefix.
TARGETS = [
    ("driver.prepare", "repro.core.driver", "Driver.prepare_create"),
    ("driver.prepare", "repro.core.driver", "Driver.prepare_transfer"),
    ("driver.prepare", "repro.core.driver", "Driver.prepare_request"),
    ("driver.prepare", "repro.core.driver", "Driver.prepare_bid"),
    ("driver.prepare", "repro.core.driver", "Driver.prepare_accept_bid"),
    ("driver.submit", "repro.core.cluster", "SmartchainCluster.submit_payload"),
    ("crypto.sign", "repro.crypto.keys", "KeyPair.sign"),
    ("crypto.verify", "repro.crypto.keys", "verify_signature"),
    ("crypto.verify", "repro.crypto.keys", "verify_signatures_batch"),
    ("schema.validate", "repro.schema.registry", "SchemaRegistry.validate_transaction"),
    # Every canonical encoding (canonical_bytes, hash_document) goes through
    # canonical_serialize, so one span per encode and an exact call count.
    ("encoding.canonical", "repro.common.encoding", "canonical_serialize"),
    ("encoding.deep_copy", "repro.common.encoding", "deep_copy_json"),
    ("validation.validate", "repro.core.validation", "TransactionValidator.validate"),
    ("validation.validate", "repro.core.validation", "TransactionValidator.validate_semantics"),
    ("validation.check_tx", "repro.core.validation", "TransactionValidator.check_tx"),
    ("validation.check_tx", "repro.core.validation", "TransactionValidator.check_block"),
    ("validation.server", "repro.core.server", "SmartchainServer.receiver_validate"),
    ("validation.server", "repro.core.server", "SmartchainServer.check_tx"),
    ("validation.server", "repro.core.server", "SmartchainServer.check_block"),
    ("validation.server", "repro.core.server", "SmartchainServer.deliver_tx"),
    ("validation.server", "repro.core.server", "SmartchainServer.commit_block"),
    ("validation.server", "repro.core.server", "SmartchainServer.block_validation_cost"),
    ("storage.query", "repro.storage.collection", "Collection.find"),
    ("storage.query", "repro.storage.collection", "Collection.find_one"),
    ("storage.query", "repro.storage.collection", "Collection.count"),
    ("storage.write", "repro.storage.collection", "Collection.insert_one"),
    ("storage.write", "repro.storage.collection", "Collection.insert_many"),
    ("storage.write", "repro.storage.collection", "Collection.delete_many"),
    ("storage.write", "repro.storage.collection", "Collection.update_many"),
    ("mempool.add", "repro.consensus.mempool", "Mempool.add"),
    ("mempool.reap", "repro.consensus.mempool", "Mempool.reap"),
    ("mempool.reap", "repro.consensus.mempool", "Mempool.peek"),
    ("mempool.reap", "repro.consensus.mempool", "Mempool.remove"),
    ("consensus.intake", "repro.consensus.bft", "Validator.submit_transaction"),
    ("consensus.message", "repro.consensus.bft", "Validator.handle_message"),
    ("consensus.propose", "repro.consensus.bft", "Validator.maybe_propose"),
    ("consensus.propose", "repro.consensus.bft", "Validator._publish_proposal"),
    ("consensus.vote", "repro.consensus.bft", "Validator._send_vote"),
    ("consensus.timeout", "repro.consensus.bft", "Validator._on_round_timeout"),
    ("sharding.route", "repro.sharding.router", "ShardRouter.route"),
    ("sharding.submit", "repro.sharding.cluster", "ShardedCluster.submit_payload"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.begin"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.handle_vote"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.handle_ack"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.handle_inquiry"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.handle_prepare"),
    ("sharding.twopc", "repro.sharding.coordinator", "TwoPhaseCoordinator.handle_decision"),
    ("durability.append", "repro.durability.commitlog", "GroupCommitLog.append"),
    ("durability.flush", "repro.durability.commitlog", "GroupCommitLog._flush"),
    ("durability.flush", "repro.durability.commitlog", "GroupCommitLog.flush_now"),
    ("durability.snapshot", "repro.durability.node", "NodeDurability.checkpoint"),
    ("views.apply", "repro.views.feed", "ChangeFeed._on_flush"),
    ("views.apply", "repro.views.manager", "ViewManager.apply_block_record"),
    ("telemetry.metric", "repro.telemetry", "Telemetry.counter"),
    ("telemetry.metric", "repro.telemetry", "Telemetry.histogram"),
    ("telemetry.metric", "repro.telemetry", "Telemetry.observe_ms"),
    ("telemetry.metric", "repro.telemetry", "Telemetry.flight_event"),
    ("telemetry.metric", "repro.telemetry.registry", "Counter.inc"),
    ("telemetry.metric", "repro.telemetry.registry", "Histogram.observe"),
    ("telemetry.trace", "repro.telemetry.tracing", "Tracer.begin"),
    ("telemetry.trace", "repro.telemetry.tracing", "Tracer.event"),
    ("telemetry.trace", "repro.telemetry.tracing", "Tracer.sampled"),
    ("sim.step", "repro.sim.events", "EventLoop.step"),
    ("sim.network", "repro.sim.network", "Network.send"),
    ("sim.network", "repro.sim.network", "Network.broadcast"),
]

#: Raw spans kept for the dump; aggregates are never capped.
SPAN_LIMIT = 50_000


def _calls_itself(function: FunctionType) -> bool:
    """True if the function's code (nested scopes included) names itself."""
    codes = [function.__code__]
    while codes:
        code = codes.pop()
        if function.__name__ in code.co_names:
            return True
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
    return False


class Recorder:
    """Stack-based span recorder with per-phase aggregates."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        #: open spans: [span id, time covered by finished children].
        self._stack: list[list[int]] = []
        self._next_id = 0
        #: phase -> span name -> self-time ns / call count.
        self.self_ns: dict[str, dict[str, int]] = {}
        self.calls: dict[str, dict[str, int]] = {}
        #: (id, name, start ns, end ns, parent id or -1), first SPAN_LIMIT.
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.phase("idle")

    def phase(self, name: str) -> None:
        """Switch the aggregate bucket (``write`` / ``read`` / ``idle``)."""
        self._self = self.self_ns.setdefault(name, defaultdict(int))
        self._calls = self.calls.setdefault(name, defaultdict(int))

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, function):
        clock, stack, spans = self._clock, self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self._self[name] += elapsed - frame[1]
                self._calls[name] += 1
                if parent is not None:
                    parent[1] += elapsed
                if span_id < SPAN_LIMIT:
                    spans.append(
                        (span_id, name, start, end, parent[0] if parent else -1)
                    )

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attribute = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attribute]
                self._rebind(owner, attribute, original, self.wrap(name, original))
                continue
            original = getattr(module, attribute)
            if not isinstance(original, FunctionType):
                raise TypeError(f"{module_name}.{attribute} is not a plain function")
            wrapped = self.wrap(name, original)
            # A recursive function keeps its own module's binding, so one
            # outside call is one span however deep it recurses.
            skip = module if _calls_itself(original) else None
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or loaded is skip or not loaded_name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, original, wrapped)

    def _rebind(self, owner, attribute: str, original, wrapped) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- results --------------------------------------------------------------

    def layer_self_us(self, phase: str) -> dict[str, float]:
        """Layer -> self time (µs) recorded during ``phase``."""
        layers: dict[str, float] = defaultdict(float)
        for name, nanoseconds in self.self_ns.get(phase, {}).items():
            layers[name.split(".")[0]] += nanoseconds / 1e3
        return dict(layers)

    def dump(self, path: str) -> None:
        """Write the aggregates and the first ``SPAN_LIMIT`` raw spans."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                    "span_columns": ["id", "name", "start_ns", "end_ns", "parent"],
                    "spans_recorded": self._next_id,
                    "spans": self.spans,
                },
                handle,
            )
