"""Multi-stage supply-chain procurement with workflow validation.

Run:  python examples/supply_chain_procurement.py

Models the paper's supply-chain motivation end to end: a manufacturer
procures machined parts through a reverse auction, then moves the won
asset down a logistics chain with plain TRANSFERs.  Every committed
sequence is checked against the declared marketplace workflows
(Definition 5), and the chain is queried like a database throughout.
"""

from repro.core import ClusterConfig, SmartchainCluster
from repro.core.workflow import WorkflowEngine, WorkflowTrace
from repro.crypto import keypair_from_string


def main() -> None:
    cluster = SmartchainCluster(ClusterConfig(n_validators=4))
    driver = cluster.driver
    engine = WorkflowEngine()
    trace = WorkflowTrace()

    # Observe every committed block to build workflow traces.
    cluster.engine.commit_listeners.append(
        lambda record: [trace.observe(envelope.payload) for envelope in record.block.transactions]
    )

    oem = keypair_from_string("oem-manufacturer")
    machinist = keypair_from_string("precision-machining-co")
    forwarder = keypair_from_string("freight-forwarder")
    warehouse = keypair_from_string("regional-warehouse")

    # Stage 1 — the machinist registers a certified production asset.
    create = driver.prepare_create(
        machinist,
        {
            "capabilities": ["cnc-milling-5axis", "as-9100-certified"],
            "machine": "DMG-MORI-DMU50",
        },
    )
    cluster.submit_and_settle(create)
    print(f"asset minted: {create.tx_id[:12]}...")

    # Stage 2 — the OEM requests quotes for a machined housing.
    request = driver.prepare_request(
        oem,
        ["cnc-milling-5axis", "as-9100-certified"],
        metadata={"part": "sensor-housing", "quantity": 2500},
    )
    cluster.submit_and_settle(request)
    print(f"RFQ posted:   {request.tx_id[:12]}...")

    # Stage 3 — the machinist bids with the asset as the guarantee.
    bid = driver.prepare_bid(
        machinist, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)],
        metadata={"unit_price": 14.2, "lead_time_days": 21},
    )
    cluster.submit_and_settle(bid)
    print(f"bid escrowed: {bid.tx_id[:12]}...")

    # Stage 4 — the OEM accepts; the asset (production commitment)
    # transfers to the OEM natively.
    accept = driver.prepare_accept_bid(oem, request.tx_id, bid)
    cluster.submit_and_settle(accept)
    print(f"bid accepted: {accept.tx_id[:12]}...")

    # Stage 5 — downstream logistics: OEM -> forwarder -> warehouse.
    hop_1 = driver.prepare_transfer(
        oem, [(accept.tx_id, 0, 1)], bid.tx_id, [(forwarder.public_key, 1)],
        metadata={"leg": "factory->port"},
    )
    cluster.submit_and_settle(hop_1)
    hop_2 = driver.prepare_transfer(
        forwarder, [(hop_1.tx_id, 0, 1)], bid.tx_id, [(warehouse.public_key, 1)],
        metadata={"leg": "port->warehouse"},
    )
    cluster.submit_and_settle(hop_2)
    print(f"logistics:    {hop_1.tx_id[:12]}... -> {hop_2.tx_id[:12]}...")

    # The full sequence is a valid registered workflow.
    sequence = [create, request, bid, accept, hop_1]
    spec = engine.classify([transaction.to_dict() for transaction in sequence])
    print(f"\nworkflow classified as: {spec.name!r} (Definition 5 holds)")

    # Provenance query: who held the asset, in order? Pure DB reads.
    server = cluster.any_server()
    history = server.database.collection("transactions").find(
        {"$or": [{"asset.id": bid.tx_id}, {"id": bid.tx_id}]}
    )
    print("\nasset provenance:")
    for payload in history:
        owners = payload["outputs"][0]["public_keys"][0][:12]
        print(f"  {payload['operation']:<11} -> holder {owners}...")

    print(f"\nwarehouse holds the commitment: "
          f"{bool(server.outputs_for(warehouse.public_key))}")


if __name__ == "__main__":
    main()
