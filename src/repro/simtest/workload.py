"""Chaos workload: paper trace intents plus adversarial spends.

Drives a :class:`~repro.simtest.plane.FaultPlane` with the marketplace
trace from :mod:`repro.workloads.generator` (CREATE / REQUEST / BID /
ACCEPT_BID in the paper's interleaved mix) widened with the two op
families the chaos harness needs:

* **churn transfers** — spend a committed asset, optionally migrating it
  to another shard through a routed ``shard_key`` (the 2PC path);
* **conflict pairs** — two transactions spending the *same* UTXO are
  submitted back-to-back (local vs cross-shard, or cross vs cross to
  different homes).  At most one may ever commit; the invariant checker
  turns a double-commit into a replayable failure.
* **adversarial clients** (``adversarial_rate``, ISSUE 6) — byzantine
  *clients* rather than validators: double-submission of recent
  payloads both through the facade (its dedup must keep the original
  record) and injected straight into a validator's intake (the mempool
  ``_seen`` window and committed-id filter must drop it), plus
  forged-signature transactions — replayed payloads with a mutated
  signature and freshly-prepared spends tampered after signing — whose
  ids are tracked in ``plane.forged_tx_ids`` for the
  ``no_forged_admission`` invariant.

The workload is fully deterministic: every choice draws from named
streams of the run's master seed, and in-flight bookkeeping only spends
outputs whose producing transaction has been observed committed.  All
adversarial draws live on dedicated ``workload:adv*`` streams behind
the rate gate, so ``adversarial_rate=0`` reproduces pre-byzantine runs
byte-for-byte.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.consensus.abci import envelope_for
from repro.crypto.hashing import sha3_256_hex
from repro.crypto.keys import KeyPair, keypair_from_string
from repro.sharding.router import SHARD_KEY_METADATA
from repro.sim.rng import SeededRng
from repro.simtest.plane import FaultPlane, SINGLE_SHARD
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

#: Recent-payload window the adversarial ops replay from.
RECENT_WINDOW = 32

_WHERE = re.compile(r"^((home rejection|participant [\w-]+): )+")
_REF = re.compile(r"\b[0-9a-f]{8,}(\.{2,3})?(:\d+)?")


def rejection_cause(detail: str) -> str:
    """A rejection detail without where it was refused, the references it
    names and what follows its first ``": "`` (the offending values):
    ``"home rejection: bid asset transaction 40dc1b64... is not committed"``
    becomes ``"bid asset transaction <ref> is not committed"``."""
    return _REF.sub("<ref>", _WHERE.sub("", detail)).split(": ")[0]


@dataclass
class Holding:
    """One spendable output the workload tracks."""

    owner: int
    asset_id: str
    tx_id: str
    output_index: int
    amount: int = 1


@dataclass
class _Request:
    """Lifecycle of one RFQ window."""

    index: int
    tx_id: str
    requester: int
    committed: bool = False
    accepted: bool = False
    bids: list[dict[str, Any]] = field(default_factory=list)


class TraceWorkload:
    """Step-driven workload over a fault plane.

    Args:
        plane: deployment under test.
        rng: the run's master seed (draws on ``workload:*`` streams).
        trace_total: size of the underlying paper-mix trace.
        n_actors: distinct signing identities.
        transfer_rate: per-step probability of a churn transfer instead
            of the next trace intent (given something is spendable).
        conflict_rate: per-step probability of a conflict pair.
        cross_rate: probability that a churn transfer migrates shards.
        adversarial_rate: per-step probability of an adversarial-client
            op (double submit / forged signature) instead of an honest
            one.  0 keeps the run byte-identical to pre-byzantine plans.
    """

    def __init__(
        self,
        plane: FaultPlane,
        rng: SeededRng,
        trace_total: int = 120,
        n_actors: int = 12,
        transfer_rate: float = 0.35,
        conflict_rate: float = 0.10,
        cross_rate: float = 0.35,
        adversarial_rate: float = 0.0,
    ):
        self.plane = plane
        self._rng = rng
        self.transfer_rate = transfer_rate
        self.conflict_rate = conflict_rate
        self.cross_rate = cross_rate if plane.sharded else 0.0
        self.adversarial_rate = adversarial_rate
        self.actors: list[KeyPair] = [
            keypair_from_string(f"chaos-actor-{index}") for index in range(n_actors)
        ]
        # The paper-mix intent stream; rewound from the start when spent.
        self._trace = list(
            WorkloadGenerator(WorkloadSpec(total=trace_total, seed=rng.seed + 1)).items()
        )
        self._trace_pos = 0
        self.spendable: list[Holding] = []
        #: tx_id -> ("create"|"transfer"|"bid"|"request"|"accept"|"conflict", detail)
        self._inflight: dict[str, tuple[str, Any]] = {}
        self._requests: dict[int, _Request] = {}
        #: Holdings escrowed by in-flight BIDs (restored on rejection).
        self._bid_holdings: dict[str, Holding] = {}
        self._next_request = 0
        self._filler = 0
        #: Recently-submitted honest payloads (bounded) — the pool the
        #: adversarial replay/forgery ops draw their material from.
        self._recent: list[dict[str, Any]] = []
        self._forge_counter = 0
        self.stats = {
            "submitted": 0,
            "creates": 0,
            "requests": 0,
            "bids": 0,
            "accepts": 0,
            "transfers": 0,
            "conflicts": 0,
            "cross": 0,
            "bursts": 0,
            "committed": 0,
            "rejected": 0,
            "skipped": 0,
            "double_submits": 0,
            "forged": 0,
            "forged_admitted": 0,
        }
        #: Rejections by :func:`rejection_cause` of their detail.
        self.rejections: Counter[str] = Counter()

    # -- helpers ---------------------------------------------------------------

    def _actor(self, index: int) -> KeyPair:
        return self.actors[index % len(self.actors)]

    def _driver(self):
        return self.plane.cluster.driver

    def _submit(self, transaction, kind: str, detail: Any) -> str:
        payload = transaction.to_dict()
        self.plane.submit_payload(payload)
        self._inflight[payload["id"]] = (kind, detail)
        self.stats["submitted"] += 1
        self._recent.append(deep_copy_json(payload))
        if len(self._recent) > RECENT_WINDOW:
            self._recent.pop(0)
        return payload["id"]

    def _migration_metadata(self, current_tx: str, tag: str) -> dict[str, str] | None:
        """A shard_key homing the spend away from its current shard."""
        cluster = self.plane.cluster
        current = cluster.router.home_of_tx(current_tx)
        away = [shard for shard in cluster.shard_ids if shard != current]
        if not away:
            return None
        target = self._rng.choice("workload:target", away)
        key = cluster.ring.key_landing_on(target, prefix=f"chaos-{tag}")
        return {SHARD_KEY_METADATA: key}

    def _take_holding(self) -> Holding:
        index = self._rng.randint("workload:holding", 0, len(self.spendable) - 1)
        return self.spendable.pop(index)

    # -- outcome polling --------------------------------------------------------

    def poll(self) -> None:
        """Fold settled in-flight transactions into the workload state."""
        for tx_id in list(self._inflight):
            record = self.plane.record_for(tx_id)
            if record is None or (record.committed_at is None and record.rejected is None):
                continue
            kind, detail = self._inflight.pop(tx_id)
            if record.committed_at is not None:
                self.stats["committed"] += 1
                self._on_committed(tx_id, kind, detail)
            else:
                self.stats["rejected"] += 1
                self.rejections[rejection_cause(record.rejected)] += 1
                self._on_rejected(tx_id, kind, detail)

    def _on_committed(self, tx_id: str, kind: str, detail: Any) -> None:
        if kind == "create":
            owner = detail
            self.spendable.append(Holding(owner, tx_id, tx_id, 0))
        elif kind == "transfer":
            holding, recipient = detail
            self.spendable.append(Holding(recipient, holding.asset_id, tx_id, 0))
        elif kind == "conflict":
            holding, recipient, rival_id = detail
            self.spendable.append(Holding(recipient, holding.asset_id, tx_id, 0))
        elif kind == "request":
            self._requests[detail].committed = True
        elif kind == "bid":
            request_index, payload = detail
            request = self._requests.get(request_index)
            if request is not None:
                request.bids.append(payload)
        elif kind == "accept":
            self._requests[detail].accepted = True
        elif kind == "forged":
            # The invariant checker turns this into a replayable failure;
            # the counter makes the breach visible in run stats too.
            self.stats["forged_admitted"] += 1

    def _on_rejected(self, tx_id: str, kind: str, detail: Any) -> None:
        # A rejected spend releases its holding (unless the rival side of
        # a conflict pair claimed it — then the winner's commit already
        # re-homed the asset).
        if kind == "transfer":
            holding, _ = detail
            self.spendable.append(holding)
        elif kind == "conflict":
            holding, _, rival_id = detail
            rival = self.plane.record_for(rival_id)
            rival_rejected = (
                rival is not None
                and rival.committed_at is None
                and rival.rejected is not None
                and rival_id not in self._inflight
            )
            if rival_rejected and not any(
                h.tx_id == holding.tx_id and h.output_index == holding.output_index
                for h in self.spendable
            ):
                # Both rivals lost: the output is spendable again (the
                # second-settling side performs the single restore).
                self.spendable.append(holding)
        elif kind == "bid":
            request_index, payload = detail
            holding = self._bid_holdings.pop(tx_id, None)
            if holding is not None:
                self.spendable.append(holding)

    # -- op submission ----------------------------------------------------------

    def step(self) -> str:
        """Submit one workload op; returns a stable description."""
        self.poll()
        draw = self._rng.uniform("workload:op", 0.0, 1.0)
        if self.spendable and draw < self.conflict_rate:
            return self._submit_conflict()
        if self.spendable and draw < self.conflict_rate + self.transfer_rate:
            return self._submit_transfer()
        if (
            self._recent
            and self.adversarial_rate > 0
            and draw < self.conflict_rate + self.transfer_rate + self.adversarial_rate
        ):
            return self._submit_adversarial()
        return self._submit_trace()

    def burst(self, size: int) -> str:
        """Mempool pressure: a batch of filler CREATEs in one step."""
        for _ in range(size):
            self._submit_create(actor=self._rng.randint("workload:burst-actor", 0, len(self.actors) - 1))
        self.stats["bursts"] += 1
        return f"burst n={size}"

    def _submit_create(self, actor: int) -> str:
        self._filler += 1
        owner = self._actor(actor)
        create_tx = self._driver().prepare_create(
            owner, {"capabilities": ["chaos"], "rank": self._filler}
        )
        self._submit(create_tx, "create", actor)
        self.stats["creates"] += 1
        return f"create actor={actor}"

    def _submit_transfer(self) -> str:
        holding = self._take_holding()
        recipient = self._rng.randint("workload:recipient", 0, len(self.actors) - 1)
        metadata = None
        cross = ""
        if self.cross_rate > 0 and self._rng.uniform("workload:cross", 0.0, 1.0) < self.cross_rate:
            metadata = self._migration_metadata(holding.tx_id, f"t{self.stats['transfers']}")
            if metadata is not None:
                self.stats["cross"] += 1
                cross = " cross"
        transfer_tx = self._driver().prepare_transfer(
            self._actor(holding.owner),
            [(holding.tx_id, holding.output_index, holding.amount)],
            holding.asset_id,
            [(self._actor(recipient).public_key, holding.amount)],
            metadata=metadata,
        )
        self._submit(transfer_tx, "transfer", (holding, recipient))
        self.stats["transfers"] += 1
        return f"transfer asset={holding.asset_id[:8]}{cross}"

    def _submit_conflict(self) -> str:
        """Two rival spends of one output — at most one may commit."""
        holding = self._take_holding()
        owner = self._actor(holding.owner)
        recipient_a = self._rng.randint("workload:rival-a", 0, len(self.actors) - 1)
        recipient_b = self._rng.randint("workload:rival-b", 0, len(self.actors) - 1)
        spend = [(holding.tx_id, holding.output_index, holding.amount)]
        # Sharded: rival A migrates (2PC path) while rival B spends
        # locally, racing the lock against home validation.  Single
        # cluster: both rivals race through one BFT group.
        metadata_a = (
            self._migration_metadata(holding.tx_id, f"ca{self.stats['conflicts']}")
            if self.plane.sharded
            else None
        )
        rival_a = self._driver().prepare_transfer(
            owner, spend, holding.asset_id,
            [(self._actor(recipient_a).public_key, holding.amount)],
            metadata=metadata_a,
        )
        rival_b = self._driver().prepare_transfer(
            owner, spend, holding.asset_id,
            [(self._actor(recipient_b).public_key, holding.amount)],
        )
        id_a, id_b = rival_a.to_dict()["id"], rival_b.to_dict()["id"]
        self._submit(rival_a, "conflict", (holding, recipient_a, id_b))
        self._submit(rival_b, "conflict", (holding, recipient_b, id_a))
        self.stats["conflicts"] += 1
        return f"conflict asset={holding.asset_id[:8]}"

    # -- adversarial clients ------------------------------------------------------

    def _submit_adversarial(self) -> str:
        """One byzantine-client op against the admission defenses."""
        choice = self._rng.uniform("workload:adv", 0.0, 1.0)
        if choice < 0.4:
            return self._double_submit()
        if choice < 0.7 or not self.spendable:
            return self._forge_replay()
        return self._forge_spend()

    def _double_submit(self) -> str:
        """Replay a recent payload through both admission doors.

        The facade resubmit must hit the record dedup (original record
        kept, no duplicate lifecycle); the direct validator injection
        bypasses the facade entirely, so only the mempool ``_seen``
        window and the committed-id filter stand between the replay and
        a second block appearance."""
        payload = self._rng.choice("workload:adv-replay", self._recent)
        self.plane.submit_payload(deep_copy_json(payload))
        shard_id = (
            self.plane.cluster.router.home_of_tx(payload["id"])
            if self.plane.sharded
            else SINGLE_SHARD
        )
        shard = self.plane.shard_cluster(shard_id)
        alive = [
            node
            for node in shard.engine.validator_order
            if not shard.network.is_crashed(node)
        ]
        if alive:
            node = self._rng.choice("workload:adv-node", alive)
            replay = deep_copy_json(payload)
            envelope = envelope_for(replay, replay["id"], len(canonical_bytes(replay)))
            shard.engine.validator(node).submit_transaction(envelope)
        self.stats["double_submits"] += 1
        return f"adv double-submit tx={payload['id'][:8]}"

    def _tamper_signature(self, payload: dict[str, Any]) -> str | None:
        """Mutate one signature character in place and re-derive the id.

        The mutation swaps a mid-signature base58 character, so the
        forged signature still decodes to a well-formed 64-byte value —
        it fails *verification*, not parsing.  The id is recomputed over
        the tampered body exactly as honest clients derive it, so the
        forgery is internally consistent: only the signature check can
        reject it."""
        for item in payload.get("inputs", []):
            signatures = item.get("fulfillment", {}).get("signatures", {})
            for pubkey in sorted(signatures):
                signature = signatures[pubkey]
                mid = len(signature) // 2
                swapped = "3" if signature[mid] == "2" else "2"
                signatures[pubkey] = signature[:mid] + swapped + signature[mid + 1 :]
                body = {key: value for key, value in payload.items() if key != "id"}
                payload["id"] = sha3_256_hex(canonical_bytes(body))
                return payload["id"]
        return None

    def _submit_forged(self, payload: dict[str, Any], flavor: str) -> str:
        forged_id = payload["id"]
        self.plane.forged_tx_ids.add(forged_id)
        self.plane.submit_payload(payload)
        self._inflight[forged_id] = ("forged", flavor)
        self.stats["forged"] += 1
        self.stats["submitted"] += 1
        return f"adv forge-{flavor} tx={forged_id[:8]}"

    def _forge_replay(self) -> str:
        """A recent payload with one signature character flipped."""
        payload = deep_copy_json(self._rng.choice("workload:adv-forge", self._recent))
        if self._tamper_signature(payload) is None:
            return self._double_submit()
        return self._submit_forged(payload, "replay")

    def _forge_spend(self) -> str:
        """A fresh, otherwise-valid spend tampered after signing.

        Unlike a replay forgery (whose inputs are usually already spent,
        so semantic validation rejects it before signatures are even
        read), this spends a *live* holding — every check but signature
        verification passes, isolating the crypto layer as the only
        defense.  The holding is peeked, not popped: the forgery must
        never commit, so the honest workload keeps the output."""
        index = self._rng.randint("workload:adv-holding", 0, len(self.spendable) - 1)
        holding = self.spendable[index]
        self._forge_counter += 1
        recipient = (holding.owner + 1) % len(self.actors)
        transfer_tx = self._driver().prepare_transfer(
            self._actor(holding.owner),
            [(holding.tx_id, holding.output_index, holding.amount)],
            holding.asset_id,
            [(self._actor(recipient).public_key, holding.amount)],
            metadata={"forged": self._forge_counter},
        )
        payload = transfer_tx.to_dict()
        if self._tamper_signature(payload) is None:
            return self._double_submit()
        return self._submit_forged(payload, "spend")

    def _submit_trace(self) -> str:
        """Next intent of the paper trace, with dependency fallbacks."""
        for _ in range(len(self._trace)):
            item = self._trace[self._trace_pos % len(self._trace)]
            self._trace_pos += 1
            operation = item.operation
            if operation == "CREATE":
                return self._submit_create(item.actor)
            if operation == "REQUEST":
                request_tx = self._driver().prepare_request(
                    self._actor(item.actor), list(item.capabilities) or ["chaos"]
                )
                request = _Request(
                    index=self._next_request,
                    tx_id=request_tx.to_dict()["id"],
                    requester=item.actor,
                )
                self._next_request += 1
                self._requests[request.index] = request
                self._submit(request_tx, "request", request.index)
                self.stats["requests"] += 1
                return f"request window={request.index}"
            if operation == "BID":
                submitted = self._try_bid(item)
                if submitted is not None:
                    return submitted
                continue  # no open request / asset yet: advance the trace
            if operation == "ACCEPT_BID":
                submitted = self._try_accept(item)
                if submitted is not None:
                    return submitted
                continue
        # Trace exhausted its submittable intents this step.
        self.stats["skipped"] += 1
        return self._submit_create(actor=0)

    def _try_bid(self, item) -> str | None:
        open_requests = [
            request for request in self._requests.values()
            if request.committed and not request.accepted
        ]
        if not open_requests or not self.spendable:
            return None
        request = open_requests[
            item.request_index % len(open_requests)
            if item.request_index is not None
            else 0
        ]
        holding = self._take_holding()
        bid_tx = self._driver().prepare_bid(
            self._actor(holding.owner),
            request.tx_id,
            holding.asset_id,
            [(holding.tx_id, holding.output_index, holding.amount)],
        )
        payload = bid_tx.to_dict()
        self._bid_holdings[payload["id"]] = holding
        self._submit(bid_tx, "bid", (request.index, payload))
        self.stats["bids"] += 1
        return f"bid window={request.index}"

    def _try_accept(self, item) -> str | None:
        ready = [
            request for request in self._requests.values()
            if request.committed and not request.accepted and request.bids
        ]
        if not ready:
            return None
        request = ready[0]
        accept_tx = self._driver().prepare_accept_bid(
            self._actor(request.requester), request.tx_id, request.bids[0]
        )
        self._submit(accept_tx, "accept", request.index)
        request.accepted = True  # optimistic: avoid double accepts in flight
        self.stats["accepts"] += 1
        return f"accept window={request.index}"
