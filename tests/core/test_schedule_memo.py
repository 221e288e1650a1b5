"""One lane schedule per block: the process-wide schedule memo.

The proposer and every checker price a block's envelopes with the
cluster's one cost model, so one :meth:`ConflictScheduler.schedule` call
serves them all — and only them: another cost model, another lane count
or other envelope objects get their own entry, and the memo is bounded.
"""

from dataclasses import replace

import pytest

from repro.consensus.types import TxEnvelope
from repro.core import parallel
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.parallel import SCHEDULE_MEMO_LIMIT, ConflictScheduler
from repro.core.server import ServerCostModel, SmartchainServer
from repro.crypto.keys import ReservedAccounts, keypair_from_string

ALICE = keypair_from_string("alice")


@pytest.fixture(autouse=True)
def schedule_calls(monkeypatch):
    """A fresh memo, and every real ``schedule`` call counted."""
    monkeypatch.setattr(parallel, "_SCHEDULES", type(parallel._SCHEDULES)())
    calls = []
    real = ConflictScheduler.schedule

    def counted(self, payloads, cost_of):
        calls.append([payload["id"] for payload in payloads])
        return real(self, payloads, cost_of)

    monkeypatch.setattr(ConflictScheduler, "schedule", counted)
    return calls


def envelopes(count: int, tag: str = "") -> list[TxEnvelope]:
    return [
        TxEnvelope(
            tx_id=f"{tag}{number:063x}",
            payload={"id": f"{tag}{number:063x}", "operation": "CREATE", "inputs": []},
            size_bytes=900 + number,
        )
        for number in range(count)
    ]


def server(cost_model: ServerCostModel | None = None) -> SmartchainServer:
    return SmartchainServer("n", ReservedAccounts(escrow=keypair_from_string("escrow")),
                            cost_model=cost_model)


def test_proposer_and_checkers_share_one_schedule_per_block(schedule_calls, monkeypatch):
    priced = []
    real = SmartchainServer.block_validation_cost
    monkeypatch.setattr(
        SmartchainServer,
        "block_validation_cost",
        lambda self, batch: priced.append(len(batch)) or real(self, batch),
    )
    cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
    for number in range(24):
        create = cluster.driver.prepare_create(ALICE, {"n": number})
        cluster.submit_payload(create.to_dict())
    cluster.run()
    blocks = cluster.any_server().database.collection("blocks").find({})
    multi = [block for block in blocks if len(block["transaction_ids"]) > 1]
    assert multi
    # Each committed multi-transaction block was priced by its proposer and
    # four checkers, and scheduled once among them.
    assert sorted(map(tuple, schedule_calls)) == sorted(
        tuple(block["transaction_ids"]) for block in multi
    )
    assert sum(size > 1 for size in priced) == 5 * len(multi)


def test_same_envelopes_hit_and_charge_the_same(schedule_calls):
    batch = envelopes(6)
    costs = ServerCostModel()
    first, second = server(costs), server(costs)
    assert first.block_validation_cost(batch) == second.block_validation_cost(batch)
    assert len(schedule_calls) == 1


def test_other_cost_model_or_lane_count_never_shares(schedule_calls):
    batch = envelopes(6)
    shared = ServerCostModel()
    narrow = server(shared)
    narrow.scheduler = ConflictScheduler(lanes=2)
    charges = [
        server(shared).block_validation_cost(batch),
        server(ServerCostModel()).block_validation_cost(batch),  # equal, not the same
        server(replace(shared, schema_check=0.01)).block_validation_cost(batch),
        narrow.block_validation_cost(batch),
    ]
    assert len(schedule_calls) == 4
    assert charges[0] == charges[1] < charges[2]
    assert charges[3] > charges[0]  # two lanes hold six independent txs longer


def test_other_envelope_objects_miss(schedule_calls):
    batch = envelopes(6)
    costs = ServerCostModel()
    server(costs).block_validation_cost(batch)
    copies = [replace(envelope) for envelope in batch]
    assert server(costs).block_validation_cost(copies) == server(costs).block_validation_cost(batch)
    assert len(schedule_calls) == 2
    server(costs).block_validation_cost(batch[:5])
    assert len(schedule_calls) == 3


def test_memo_is_bounded(schedule_calls):
    costs = ServerCostModel()
    node = server(costs)
    blocks = [envelopes(2, tag=f"{number:x}") for number in range(SCHEDULE_MEMO_LIMIT + 10)]
    for batch in blocks:
        node.block_validation_cost(batch)
    assert len(parallel._SCHEDULES) == SCHEDULE_MEMO_LIMIT
    node.block_validation_cost(blocks[-1])  # newest: kept
    assert len(schedule_calls) == len(blocks)
    node.block_validation_cost(blocks[0])  # oldest: evicted
    assert len(schedule_calls) == len(blocks) + 1
