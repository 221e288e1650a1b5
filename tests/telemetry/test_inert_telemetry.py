"""Every instrumented component built outside a deployment holds the one
inert :class:`~repro.telemetry.Telemetry` — never ``None`` — and records
through it unconditionally; the inert instance keeps nothing."""

import hashlib

import pytest

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.mempool import Mempool
from repro.consensus.tendermint import make_tendermint_cluster
from repro.core.builders import build_create
from repro.core.cluster import SmartchainCluster
from repro.core.server import SmartchainServer
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.durability.commitlog import GroupCommitLog
from repro.durability.wal import SegmentedWal, SimDisk
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.migration import ReshardController
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import SeededRng
from repro.telemetry import INERT, TRACE_SAMPLED
from repro.views import ViewManager


def _envelope(number: int):
    tx_id = hashlib.sha3_256(f"inert-{number}".encode()).hexdigest()
    return envelope_for({"n": number}, tx_id, 200, trace_flags=TRACE_SAMPLED)


def _mempool():
    pool = Mempool()
    assert pool.add(_envelope(0)) and not pool.add(_envelope(0))
    assert len(pool.reap(max_txs=4)) == 1
    return pool


def _commitlog():
    loop = EventLoop()
    log = GroupCommitLog(SegmentedWal(SimDisk()), loop)
    log.append({"k": "r", "n": 0})
    loop.run_until_idle()
    assert log.stats["flushes"] == 1
    return log


def _views():
    views = ViewManager()
    views.apply_block_record("shard", 1, [])
    assert views.stats["blocks_applied"] == 1
    return views


def _validator():
    loop = EventLoop()
    engine = make_tendermint_cluster(
        loop, Network(loop, SeededRng(3)), lambda node_id: NullApplication()
    )
    validator = engine.validator(engine.validator_order[0])
    validator.submit_transaction(_envelope(1))
    loop.run(until=5.0)
    assert len(validator.chain) >= 1
    return validator


def _server():
    owner = keypair_from_string("inert-owner")
    server = SmartchainServer("node-0", ReservedAccounts())
    server.receiver_validate(build_create(owner, {"name": "inert"}).sign([owner]).to_dict())
    return server


def _coordinator():
    cluster = SmartchainCluster(telemetry=INERT)
    agent = TwoPhaseCoordinator("shard-0", cluster, cluster.loop, lambda shard: None, None)
    agent._notify("begin", "tx")
    agent._notify("done", "tx")
    return agent


def _controller():
    controller = ReshardController(ShardedCluster(ShardedClusterConfig(n_shards=1)))
    controller._set_active_gauge()
    controller.restart()
    return controller


@pytest.mark.parametrize(
    "build",
    [_mempool, _commitlog, _views, _validator, _server, _coordinator, _controller],
    ids=lambda build: build.__name__.strip("_"),
)
def test_standalone_component_records_into_the_inert_instance(build):
    component = build()
    assert component.telemetry is INERT
    assert INERT.registry.to_dict() == {}
    assert INERT.tracer.trace_ids() == [] and INERT.tracer.started == 0
    assert INERT.flight.dump() == [] and INERT.flight.recorded == 0
