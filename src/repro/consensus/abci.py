"""Application-blockchain interface.

Tendermint separates consensus from application logic through ABCI; the
paper's Fig. 4 lifecycle maps onto it directly:

* ``check_tx``   — mempool admission on every validator ("secondary set of
  validation checks triggered by the CheckTx function").
* ``deliver_tx`` — the third validation set at block-processing time,
  "before mutating the state".
* ``commit``     — persist the block; for SmartchainDB this is also where
  nested children (RETURNs) are determined and enqueued (Algorithm 3,
  second part).

Implementations must be deterministic: every honest validator processing
the same block must reach the same state.

Beyond the required five methods, the consensus engine probes one
*optional* hook with ``getattr`` (an application that omits it gets the
per-transaction sum): ``block_validation_cost(envelopes) -> float`` —
simulated seconds to validate a block.  SmartchainDB partitions the block
into conflict-free lanes via the declarative access sets
(:mod:`repro.core.parallel`), so the block charge is ``max(lane sums)``
instead of ``sum(costs)``.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.consensus.types import Block, TxEnvelope


class Application(Protocol):
    """The state machine replicated by consensus."""

    def check_tx(self, envelope: TxEnvelope) -> bool:
        """Cheap admission check for the mempool.  Must not mutate state."""
        ...

    def deliver_tx(self, envelope: TxEnvelope) -> bool:
        """Full validation against current state; stages the transaction."""
        ...

    def commit_block(self, block: Block, delivered: list[TxEnvelope]) -> None:
        """Persist delivered transactions; run post-commit hooks."""
        ...

    def execution_cost(self, envelope: TxEnvelope) -> float:
        """Simulated seconds of compute to validate/execute the tx."""
        ...

    def commit_cost(self, block: Block) -> float:
        """Simulated seconds to persist a committed block."""
        ...


def deliver_block(app: Application, block: Block, committed: set[str]) -> list[TxEnvelope]:
    """DeliverTx over ``block``'s envelopes not in ``committed`` (the ids
    of earlier blocks), then ``commit_block``; returns what was delivered.
    The one path from a block to application state, live and in replay."""
    delivered = [
        envelope
        for envelope in block.transactions
        if envelope.tx_id not in committed and app.deliver_tx(envelope)
    ]
    app.commit_block(block, delivered)
    committed.update(envelope.tx_id for envelope in block.transactions)
    return delivered


class NullApplication:
    """Accept-everything application; useful for consensus-only tests."""

    def __init__(self) -> None:
        self.committed: list[Block] = []
        self.delivered: list[str] = []

    def check_tx(self, envelope: TxEnvelope) -> bool:
        return True

    def deliver_tx(self, envelope: TxEnvelope) -> bool:
        self.delivered.append(envelope.tx_id)
        return True

    def commit_block(self, block: Block, delivered: list[TxEnvelope]) -> None:
        self.committed.append(block)

    def execution_cost(self, envelope: TxEnvelope) -> float:
        return 0.0001

    def commit_cost(self, block: Block) -> float:
        return 0.001


def envelope_for(
    payload: Any,
    tx_id: str,
    size_bytes: int,
    weight: int = 1,
    now: float = 0.0,
    trace_flags: int = 0,
    attachments: tuple = (),
) -> TxEnvelope:
    """Convenience constructor for a consensus envelope."""
    return TxEnvelope(
        tx_id=tx_id,
        payload=payload,
        size_bytes=size_bytes,
        weight=weight,
        submitted_at=now,
        trace_flags=trace_flags,
        attachments=attachments,
    )
