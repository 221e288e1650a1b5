"""Cross-shard chain entries refuse forged evidence.

A cross-shard spend's attachments and the ``SHARD_*`` system entries are
trusted only for what their evidence proves: a payload inside a block
whose ``{height, previous, txs}`` header recomputes the certified id,
under a quorum of valid precommits from the named shard; and a system
entry only under its author's signature.  These tests forge each part and
expect a refusal — at CheckTx, at DeliverTx, and, for a client posing as
an agent, at the sharded facade's ingress gate.
"""

import pytest

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.common.errors import DoubleSpendError, ValidationError
from repro.consensus.abci import envelope_for
from repro.core.driver import is_redirect_rejection
from repro.core.entries import attached_payload, consume_entry, export_entry, import_entry
from repro.core.transaction import OutputRef
from repro.crypto import sigcache
from repro.crypto.keys import keypair_from_string
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA


def _cluster() -> ShardedCluster:
    return ShardedCluster(ShardedClusterConfig(n_shards=2, seed=7))


def _mint(cluster, material, capability="x"):
    owner = keypair_from_string(material)
    create = cluster.driver.prepare_create(owner, {"capabilities": [capability]})
    assert cluster.submit_and_settle(create.to_dict()).committed_at is not None
    return owner, create


def _attachment(cluster, create):
    origin = cluster.router.home_of_tx(create.tx_id)
    evidence = cluster.shards[origin].commit_evidence(create.tx_id)
    assert evidence is not None
    return {"payload": deep_copy_json(create.to_dict()), **evidence}


def _check(cluster):
    return cluster.any_server().validator.check_tx


class TestAttachments:
    def test_genuine_attachment_verifies(self):
        cluster = _cluster()
        _, create = _mint(cluster, "genuine")
        attachment = _attachment(cluster, create)
        payload = attached_payload(attachment, cluster.shard_keys, _check(cluster))
        assert payload["id"] == create.tx_id

    def test_payload_not_in_the_certified_header_is_refused(self):
        cluster = _cluster()
        _, create = _mint(cluster, "first")
        # A second, genuinely committed payload of the same shard, passed
        # off under the first one's block evidence.
        others = [
            _mint(cluster, f"second-{index}")[1] for index in range(6)
        ]
        origin = cluster.router.home_of_tx(create.tx_id)
        other = next(o for o in others if cluster.router.home_of_tx(o.tx_id) == origin)
        forged = dict(_attachment(cluster, create), payload=deep_copy_json(other.to_dict()))
        assert other.tx_id not in forged["header"]["txs"]
        with pytest.raises(ValidationError, match="not in the certified block"):
            attached_payload(forged, cluster.shard_keys, _check(cluster))

    def test_header_that_does_not_recompute_the_certified_id_is_refused(self):
        cluster = _cluster()
        _, create = _mint(cluster, "header")
        forged = _attachment(cluster, create)
        forged["header"] = dict(forged["header"], previous="e" * 64)
        with pytest.raises(ValidationError, match="no quorum certificate"):
            attached_payload(forged, cluster.shard_keys, _check(cluster))

    @pytest.mark.parametrize("forgery", ["drop", "corrupt"])
    def test_sub_quorum_certificate_is_refused(self, forgery):
        """Fewer than a quorum of *valid* precommits: one dropped, or one
        replaced by another validator's signature (the count still looks
        like a quorum, the valid count does not)."""
        cluster = _cluster()
        _, create = _mint(cluster, "quorum")
        forged = _attachment(cluster, create)
        sigs = dict(forged["cert"]["sigs"])
        quorum = (2 * len(cluster.shard_keys[forged["shard"]])) // 3 + 1
        voters = sorted(sigs)
        if forgery == "drop":
            for voter in voters[quorum - 1:]:
                del sigs[voter]
        else:
            for voter in voters[: len(voters) - quorum + 1]:
                sigs[voter] = sigs[voters[-1]] if voter != voters[-1] else sigs[voters[0]]
        forged["cert"] = dict(forged["cert"], sigs=sigs)
        with pytest.raises(ValidationError, match="no quorum certificate"):
            attached_payload(forged, cluster.shard_keys, _check(cluster))

    def test_verdicts_do_not_rest_on_the_signature_cache(self):
        """The same verdicts with the shared signature cache switched off
        (every signature really verified) and with a cold one."""
        cluster = _cluster()
        _, create = _mint(cluster, "cacheless")
        genuine = _attachment(cluster, create)
        forged = deep_copy_json(genuine)
        first = sorted(forged["cert"]["sigs"])[0]
        forged["cert"]["sigs"] = {first: forged["cert"]["sigs"][first]}
        for cache in (None, sigcache.SignatureCache()):
            previous = sigcache.set_shared_cache(cache)
            try:
                assert attached_payload(genuine, cluster.shard_keys, _check(cluster))
                with pytest.raises(ValidationError):
                    attached_payload(forged, cluster.shard_keys, _check(cluster))
            finally:
                sigcache.set_shared_cache(previous)

    def test_home_replicas_refuse_a_spend_with_a_forged_attachment(self):
        """CheckTx and DeliverTx on the home shard: the spend's foreign
        input arrives only with its evidence, and forged evidence leaves
        the input unknown."""
        cluster = _cluster()
        owner, create = _mint(cluster, "spender")
        origin = cluster.router.home_of_tx(create.tx_id)
        home = next(shard for shard in cluster.shard_ids if shard != origin)
        key = next(
            f"k-{index}" for index in range(512) if cluster.ring.shard_for(f"k-{index}") == home
        )
        spend = cluster.driver.prepare_transfer(
            owner, [(create.tx_id, 0, 1)], create.tx_id,
            [(keypair_from_string("payee").public_key, 1)],
            metadata={SHARD_KEY_METADATA: key},
        ).to_dict()
        genuine = _attachment(cluster, create)
        forged = deep_copy_json(genuine)
        forged["header"]["txs"] = forged["header"]["txs"] + ["f" * 64]
        server = cluster.shards[home].any_server()
        size = len(canonical_bytes(spend))
        bad = envelope_for(spend, spend["id"], size, attachments=(forged,))
        assert server.check_tx(bad) is False
        assert server.deliver_tx(bad) is False
        good = envelope_for(spend, spend["id"], size, attachments=(genuine,))
        assert server.deliver_tx(good) is True
        server.context.clear_staged()


class TestIngressGate:
    def test_client_submitted_system_entry_is_refused_at_the_facade(self):
        """Even an entry whose evidence is genuine: clients never author
        ``SHARD_*`` operations (a certificate proves inclusion, not that
        DeliverTx accepted the spend, so only the agents may cite one)."""
        cluster = _cluster()
        _, create = _mint(cluster, "gate")
        entry = consume_entry(
            [(create.tx_id, 0)], [_attachment(cluster, create)], keypair_from_string("client")
        )
        outcomes = []
        result = cluster.submit_payload(entry, callback=lambda s, d: outcomes.append((s, d)))
        cluster.run()
        assert result.accepted is False
        assert outcomes and outcomes[0][0] == "rejected"
        assert "system operation" in outcomes[0][1]
        for shard in cluster.shards.values():
            assert shard.landed(entry["id"]) is None
            for node in shard.engine.validator_order:
                assert entry["id"] not in shard.engine.validator(node).mempool


class TestCarriedPayloads:
    def test_a_migrated_output_spends_cross_shard_with_its_import_as_carrier(self):
        """A payload that reached its shard by import was never delivered
        there: the participant proves it with the certified import block
        (the carrier), and the spend commits on another shard's chain."""
        from repro.durability.node import DurabilityConfig

        cluster = ShardedCluster(
            ShardedClusterConfig(
                n_shards=3, seed=21, durability=DurabilityConfig(snapshot_interval=6)
            )
        )
        owner, create = _mint(cluster, "carried")
        source = cluster.router.home_of_tx(create.tx_id)
        target, home = [shard for shard in cluster.shard_ids if shard != source]
        migration_id = cluster.reshard(source, target=target, plan_txs=[create.tx_id])
        cluster.run()
        assert cluster.migrator.migrations[migration_id].phase == "done"
        evidence = cluster.shards[target].commit_evidence(create.tx_id)
        assert evidence["carrier"]["operation"] == "SHARD_IMPORT"
        assert attached_payload(evidence, cluster.shard_keys, _check(cluster))["id"] == create.tx_id
        key = next(
            f"k-{index}" for index in range(512) if cluster.ring.shard_for(f"k-{index}") == home
        )
        spend = cluster.driver.prepare_transfer(
            owner, [(create.tx_id, 0, 1)], create.tx_id,
            [(keypair_from_string("payee").public_key, 1)],
            metadata={SHARD_KEY_METADATA: key},
        )
        record = cluster.submit_and_settle(spend.to_dict())
        assert record.committed_at is not None, record.rejected
        assert cluster.router.home_of_tx(spend.tx_id) == home
        assert cluster.shards[target].any_server().database.collection("utxos").find_one(
            {"transaction_id": create.tx_id, "output_index": 0}
        ) is None

    def test_an_export_is_taken_only_by_its_source_chain(self):
        """The controller's genuine export, replayed onto another shard
        that holds the outputs it names, is refused there."""
        cluster = ShardedCluster(ShardedClusterConfig(n_shards=3, seed=21))
        _, create = _mint(cluster, "replayed")
        source = cluster.router.home_of_tx(create.tx_id)
        other = next(shard for shard in cluster.shard_ids if shard != source)
        refs = [(create.tx_id, 0)]
        keypair = cluster.migrator.keypair
        for shard, expected in ((source, True), (other, False)):
            export = export_entry("m-0001", source, other, refs, keypair)
            server = cluster.shards[shard].any_server()
            assert server.check_tx(envelope_for(export, export["id"], 1)) is expected


def _move(cluster, create, source, target):
    """Export ``create:0`` off ``source`` (the controller's entry) and
    return the export once its block is delivered; nothing is imported."""
    export = export_entry("m-0001", source, target, [(create.tx_id, 0)], cluster.migrator.keypair)
    cluster.shards[source].submit_entry(export)
    cluster.run()
    assert cluster.shards[source].landed(export["id"]) is True
    return export


def _import(cluster, export, create, target):
    source = export["source"]
    evidence = cluster.shards[source].commit_evidence(export["id"])
    entry = import_entry(export, evidence, [deep_copy_json(create.to_dict())], cluster.migrator.keypair)
    cluster.shards[target].submit_entry(entry)
    cluster.run()
    assert cluster.shards[target].landed(entry["id"]) is True


def _prepare_vote(agent, ref):
    """A remote prepare's refusal reason at ``agent`` (None: it voted
    yes, and the lock is released again)."""
    votes = []
    send, agent._send = agent._send, lambda *message: votes.append(message)
    try:
        agent.handle_prepare("remote", "remote-tx", [[ref.transaction_id, ref.output_index]])
        (_, method, _, _, granted, reason), = votes
        assert method == "handle_vote"
        if granted:
            agent.handle_decision("remote", "remote-tx", "aborted")
    finally:
        agent._send = send
    return None if granted else reason


class TestExportedOutputsRedirect:
    """The chain is the redirect: from the export's delivery on, a spend
    of an exported output is refused on its source with a
    ``redirect:moved:<target>`` verdict — by every admission path, by
    DeliverTx and by the 2PC participant's prepare — and an import that
    brings the output back makes it spendable there again."""

    def refusals(self, cluster, source, spend, ref):
        """Each path's verdict on ``spend`` (of ``ref``) at ``source``."""
        payload = spend.to_dict()
        envelope = envelope_for(payload, spend.tx_id, len(canonical_bytes(payload)))
        shard = cluster.shards[source]
        verdicts = {"spender": set(), "receiver": set(), "check_tx": set(), "deliver_tx": set()}
        for server in shard.servers.values():
            verdicts["spender"].add(server.context.output_spender(ref))
            try:
                server.receiver_validate(deep_copy_json(payload))
                verdicts["receiver"].add(None)
            except DoubleSpendError as error:
                verdicts["receiver"].add(is_redirect_rejection(error) and "redirect")
            verdicts["check_tx"].add(server.check_tx(envelope))
            verdicts["deliver_tx"].add(server.deliver_tx(envelope))
            server.context.clear_staged()  # a probe, not a block
        verdicts["prepare"] = _prepare_vote(cluster.agents[source], ref)
        return verdicts

    def test_an_exported_output_redirects_until_it_is_imported_back(self):
        cluster = _cluster()
        owner, create = _mint(cluster, "exported")
        source = cluster.router.home_of_tx(create.tx_id)
        target = next(shard for shard in cluster.shard_ids if shard != source)
        payee = keypair_from_string("payee").public_key
        spend = cluster.driver.prepare_transfer(owner, [(create.tx_id, 0, 1)], create.tx_id, [(payee, 1)])
        ref = OutputRef(create.tx_id, 0)

        export = _move(cluster, create, source, target)
        moved = f"redirect:moved:{target}"
        verdicts = self.refusals(cluster, source, spend, ref)
        assert verdicts["spender"] == {moved}
        assert verdicts["receiver"] == {"redirect"}
        assert verdicts["check_tx"] == {False}
        assert verdicts["deliver_tx"] == {False}
        assert verdicts["prepare"].endswith(f"held by {moved}")
        assert is_redirect_rejection(verdicts["prepare"])

        # Moved to the target and back: the source's latest spender is
        # still the first export, but the import minted the output again.
        _import(cluster, export, create, target)
        back = export_entry("m-0002", target, source, [(create.tx_id, 0)], cluster.migrator.keypair)
        cluster.shards[target].submit_entry(back)
        cluster.run()
        assert cluster.shards[target].any_server().context.output_spender(ref) == (
            f"redirect:moved:{source}"
        )
        _import(cluster, back, create, source)
        verdicts = self.refusals(cluster, source, spend, ref)
        assert verdicts["spender"] == {None}
        assert verdicts["receiver"] == {None}
        assert verdicts["check_tx"] == {True}
        assert verdicts["deliver_tx"] == {True}
        assert verdicts["prepare"] is None
        record = cluster.submit_and_settle(spend.to_dict())
        assert record.committed_at is not None, record.rejected

    def test_the_prepare_reads_the_freshest_replica(self):
        """A validator that missed the export's block (down while it
        committed, back but not caught up) still holds the output: the
        participant must not promise it on that replica's word."""
        cluster = _cluster()
        _, create = _mint(cluster, "lagging")
        source = cluster.router.home_of_tx(create.tx_id)
        target = next(shard for shard in cluster.shard_ids if shard != source)
        shard = cluster.shards[source]
        first = shard.engine.validator_order[0]
        shard.failures.crash_now(first)
        _move(cluster, create, source, target)
        shard.failures.recover_now(first)
        ref = OutputRef(create.tx_id, 0)
        assert shard.servers[first].context.output_spender(ref) is None
        reason = _prepare_vote(cluster.agents[source], ref)
        assert reason is not None and reason.endswith(f"held by redirect:moved:{target}")


def refused_spend(cluster):
    """A cross-shard spend a home block carried but DeliverTx refused:
    ``spend`` takes ``create:0`` (on ``origin``) and ``local:0`` (on
    ``home``), and a rival spend of ``local:0`` enters the home
    mempools just ahead of it."""
    owner = keypair_from_string("refused-owner")
    create = cluster.driver.prepare_create(
        owner, {"n": 1}, recipients=[(owner.public_key, 1), (owner.public_key, 1)]
    )
    assert cluster.submit_and_settle(create.to_dict()).committed_at is not None
    origin = cluster.router.home_of_tx(create.tx_id)
    home = next(shard for shard in cluster.shard_ids if shard != origin)
    key = next(
        f"k-{index}" for index in range(512) if cluster.ring.shard_for(f"k-{index}") == home
    )

    def transfer(spent, recipient):
        amount = sum(share for _tx_id, _index, share in spent)
        return cluster.driver.prepare_transfer(
            owner, spent, create.tx_id, [(recipient, amount)],
            metadata={SHARD_KEY_METADATA: key},
        )

    local = transfer([(create.tx_id, 1, 1)], owner.public_key)
    assert cluster.submit_and_settle(local.to_dict()).committed_at is not None
    assert cluster.router.home_of_tx(local.tx_id) == home
    spend = transfer([(create.tx_id, 0, 1), (local.tx_id, 0, 1)], owner.public_key)
    rival = transfer([(local.tx_id, 0, 1)], keypair_from_string("rival").public_key)
    rival_payload = rival.to_dict()
    rival_envelope = envelope_for(rival_payload, rival.tx_id, len(canonical_bytes(rival_payload)))
    home_cluster = cluster.shards[home]
    validators = [home_cluster.engine.validator(n) for n in home_cluster.engine.validator_order]
    intakes = [validator.submit_transaction for validator in validators]

    def rival_first(intake):
        def submit(envelope, gossip=True):
            # The spend reaches its receiver: the rival goes into every
            # home mempool first, so it is delivered ahead of the spend.
            for validator, own in zip(validators, intakes):
                del validator.submit_transaction
                assert own(rival_envelope, gossip=False)
            return intake(envelope, gossip)

        return submit

    for validator, intake in zip(validators, intakes):
        validator.submit_transaction = rival_first(intake)
    record = cluster.submit_and_settle(spend.to_dict())
    assert record.committed_at is None and record.rejected
    validator = validators[0]
    height = next(
        block.height
        for block in validator.chain
        if spend.tx_id in [envelope.tx_id for envelope in block.transactions]
    )
    assert home_cluster.landed(spend.tx_id) is False
    evidence = {
        "shard": home,
        "header": validator.chain[height - 1].header,
        "cert": validator.commit_certs[height],
        "payload": spend.to_dict(),
    }
    return owner, create, origin, home, evidence


class TestEntryAuthors:
    """Only an entry's author may write it: a shard's agent its consumes,
    the reshard controller the cutovers.  Entries injected straight into
    a validator's intake — past the facade, as the adversarial workload
    does — are refused at CheckTx and at DeliverTx, and the output they
    name stays spendable."""

    def test_forged_export_and_consume_are_refused_and_the_output_stays_spendable(self):
        cluster = _cluster()
        owner, create, origin, home, evidence = refused_spend(cluster)
        # The evidence is genuine: a quorum certified the block holding
        # the spend.  Only DeliverTx refused it.
        assert attached_payload(evidence, cluster.shard_keys, _check(cluster))["id"] == evidence["payload"]["id"]
        mallory = keypair_from_string("mallory")
        consume = consume_entry([(create.tx_id, 0)], [evidence], mallory)
        export = export_entry("m-0099", origin, home, [(create.tx_id, 0)], mallory)
        unsigned = {k: v for k, v in consume_entry(
            [(create.tx_id, 0)], [evidence], cluster.agents[origin].keypair
        ).items() if k != "signature"}
        shard = cluster.shards[origin]
        for entry in (consume, export, unsigned):
            envelope = envelope_for(entry, entry["id"], len(canonical_bytes(entry)))
            for node_id in shard.engine.validator_order:
                assert shard.servers[node_id].check_tx(envelope) is False
                assert shard.servers[node_id].deliver_tx(envelope) is False
                assert shard.engine.validator(node_id).submit_transaction(envelope) is False
        cluster.run()
        for entry in (consume, export):
            assert shard.landed(entry["id"]) is None
        for server in shard.servers.values():
            assert server.database.collection("utxos").find_one(
                {"transaction_id": create.tx_id, "output_index": 0}
            ) is not None
        payee = keypair_from_string("payee").public_key
        spend = cluster.driver.prepare_transfer(owner, [(create.tx_id, 0, 1)], create.tx_id, [(payee, 1)])
        record = cluster.submit_and_settle(spend.to_dict())
        assert record.committed_at is not None, record.rejected

    def test_a_consume_is_authored_by_its_own_shards_agent(self):
        """Another shard's agent cannot sign for this shard; this shard's
        agent gets past the signature check to the evidence check — with
        the signature cache off and with a cold one."""
        cluster = _cluster()
        _, create = _mint(cluster, "authored")
        origin = cluster.router.home_of_tx(create.tx_id)
        other = next(shard for shard in cluster.shard_ids if shard != origin)
        server = cluster.shards[other].any_server()
        attachment = _attachment(cluster, create)
        foreign = consume_entry([(create.tx_id, 0)], [attachment], cluster.agents[origin].keypair)
        own = consume_entry([(create.tx_id, 0)], [attachment], cluster.agents[other].keypair)
        for cache in (None, sigcache.SignatureCache()):
            previous = sigcache.set_shared_cache(cache)
            try:
                with pytest.raises(ValidationError, match="not signed by its author"):
                    server._verify_entry(foreign)
                with pytest.raises(ValidationError, match="no certified spend took"):
                    server._verify_entry(own)
            finally:
                sigcache.set_shared_cache(previous)
