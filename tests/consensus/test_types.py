"""Consensus data types."""

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.types import Block, TxEnvelope, Vote, PREVOTE


class TestBlock:
    def envelopes(self, n=3):
        return [
            envelope_for({"n": index}, f"{index:064d}"[-64:], 100) for index in range(n)
        ]

    def test_block_id_is_content_addressed(self):
        txs = self.envelopes()
        left = Block.build(1, 0, "n0", txs, "0" * 64)
        right = Block.build(1, 0, "n0", txs, "0" * 64)
        assert left.block_id == right.block_id

    def test_block_id_changes_with_content(self):
        txs = self.envelopes()
        base = Block.build(1, 0, "n0", txs, "0" * 64)
        different_height = Block.build(2, 0, "n0", txs, "0" * 64)
        different_txs = Block.build(1, 0, "n0", txs[:2], "0" * 64)
        assert base.block_id != different_height.block_id
        assert base.block_id != different_txs.block_id

    def test_size_includes_payloads(self):
        txs = self.envelopes()
        block = Block.build(1, 0, "n0", txs, "0" * 64)
        assert block.size_bytes == 512 + 300


class TestEnvelope:
    def test_envelope_fields(self):
        envelope = envelope_for({"x": 1}, "a" * 64, 256, weight=7)
        assert envelope.tx_id == "a" * 64
        assert envelope.size_bytes == 256
        assert envelope.weight == 7


class TestNullApplication:
    def test_accepts_and_records(self):
        app = NullApplication()
        envelope = envelope_for({}, "b" * 64, 10)
        assert app.check_tx(envelope)
        assert app.deliver_tx(envelope)
        assert app.delivered == ["b" * 64]
        block = Block.build(1, 0, "n0", [envelope], "0" * 64)
        app.commit_block(block, [envelope])
        assert app.committed == [block]
        assert app.execution_cost(envelope) > 0
        assert app.commit_cost(block) > 0


class TestVote:
    def test_vote_identity(self):
        vote = Vote(PREVOTE, 3, 0, "b" * 64, "n1")
        assert vote.height == 3
        assert vote.voter == "n1"
