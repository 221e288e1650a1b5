"""Consensus data types: envelopes, blocks, votes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.crypto.hashing import hash_document

#: The value types a memoised header may hold: equal tuples of these are
#: equal JSON, which ``1 == True`` or ``0.0 == -0.0`` would not be.
_HEADER_TYPES = frozenset({int, str, type(None)})


def header_id(height: Any, previous: Any, txs: list) -> str:
    """The block id of a ``{height, previous, txs}`` header: the hash of
    its canonical form, computed once per process for a header of ints,
    strings and None — the proposer's build seeds it, so every replica's
    check of the same header as cross-shard evidence reuses it."""
    key = (height, previous, *txs)
    if _HEADER_TYPES.issuperset(map(type, key)):
        return _memoised_header_id(key)
    return hash_document({"height": height, "previous": previous, "txs": txs})


@lru_cache(maxsize=4096)
def _memoised_header_id(key: tuple) -> str:
    return hash_document({"height": key[0], "previous": key[1], "txs": list(key[2:])})


@dataclass(frozen=True)
class TxEnvelope:
    """A transaction as the consensus layer sees it: opaque payload + id.

    ``size_bytes`` is the canonical serialised size (drives network and
    block-assembly costs); ``weight`` is a protocol-specific cost unit
    (gas for the Ethereum baseline, validation cost units for SmartchainDB).
    """

    tx_id: str
    payload: Any
    size_bytes: int
    weight: int = 1
    #: Trace context carried across gossip and shard boundaries.  Bit 0
    #: (:data:`repro.telemetry.TRACE_SAMPLED`) marks a sampled lifecycle
    #: trace, so hot paths learn "is this tx traced?" from one bit test
    #: instead of a tracer lookup.  Excluded from block identity (block
    #: ids hash tx_ids only), so sampling config can never fork consensus.
    trace_flags: int = 0
    #: A cross-shard spend's foreign input payloads with certified
    #: evidence (:mod:`repro.core.entries`); outside block identity like
    #: ``trace_flags``, but block records keep them for replay.
    attachments: tuple = ()


@dataclass(frozen=True)
class Block:
    """A proposed or committed block."""

    height: int
    round: int
    proposer: str
    transactions: tuple[TxEnvelope, ...]
    previous_id: str
    block_id: str = field(default="")

    @staticmethod
    def build(
        height: int,
        round_number: int,
        proposer: str,
        transactions: list[TxEnvelope],
        previous_id: str,
    ) -> "Block":
        """Construct a block, deriving its content-addressed id.

        The id is a *value* identity — height, parent, and transaction
        list — deliberately excluding the round and proposer.  A block
        re-proposed in a later round (the Tendermint lock rule's liveness
        path) or independently assembled by two proposers with identical
        content is the *same* block: votes may split across round buckets
        but every replica that commits it records one id and reaches one
        state.
        """
        block_id = header_id(height, previous_id, [envelope.tx_id for envelope in transactions])
        return Block(
            height=height,
            round=round_number,
            proposer=proposer,
            transactions=tuple(transactions),
            previous_id=previous_id,
            block_id=block_id,
        )

    @property
    def size_bytes(self) -> int:
        """Approximate wire size (header + payloads)."""
        return 512 + sum(envelope.size_bytes for envelope in self.transactions)

    @property
    def header(self) -> dict[str, Any]:
        """The ``{height, previous, txs}`` document the block id hashes:
        with a commit certificate, proof that a transaction was in it."""
        return {
            "height": self.height,
            "previous": self.previous_id,
            "txs": [envelope.tx_id for envelope in self.transactions],
        }


#: Vote phases.  Tendermint names them prevote/precommit; IBFT prepare/commit.
PREVOTE = "prevote"
PRECOMMIT = "precommit"

#: Sentinel block id for nil votes (timeout rounds).
NIL = "<nil>"


@dataclass(frozen=True)
class Vote:
    """A validator's vote for a block (or nil) in one phase of one round.

    Non-nil precommits carry an Ed25519 signature over
    :func:`precommit_message` — a quorum of them is a *commit
    certificate*, the transferable proof a catch-up server attaches to
    each block so a recovering node can verify a served prefix instead
    of trusting its peer.
    """

    phase: str
    height: int
    round: int
    block_id: str
    voter: str
    sig: str = ""


def precommit_message(height: int, round_number: int, block_id: str) -> bytes:
    """Canonical bytes a precommit signature covers.

    The round is part of the message: a commit certificate is a quorum of
    precommits from *one* round (Tendermint's commit rule) — mixing
    same-block precommits across rounds would certify a quorum that never
    existed at any single round.
    """
    return f"precommit|{height}|{round_number}|{block_id}".encode()
