"""Cross-shard chain entries: state moves that carry their own evidence.

Every change to a shard's state is ordered by that shard's own
consensus, cross-shard changes included (the design of AHL, SIGMOD 2019,
and ByShard, PVLDB 2021).  Three system operations do it, each signed by
its one author (:data:`Authors`):

* ``SHARD_CONSUME`` (a 2PC participant's chain, signed by that shard's
  agent) lists as ``inputs`` the outputs committed cross-shard spends
  took; ``evidence`` holds each spend with the home block that committed
  it.
* ``SHARD_EXPORT`` (a migration's ``source`` chain, signed by the reshard
  controller) lists the outputs leaving for ``target``; delivery refuses
  it unless every one is on this chain, unspent.
* ``SHARD_IMPORT`` (the target chain, signed by the controller) carries
  the export, the evidence of the source block that committed it, and
  the payloads that created the exported outputs; delivery stores them
  and mints the outputs.

A cross-shard spend also carries its foreign inputs' payloads as envelope
*attachments*, each with the evidence of the block that committed it —
or, for a payload that reached its shard by import, of the block that
committed that import (its ``carrier``).

Evidence is ``{"shard", "header", "cert"}``: the ``{height, previous,
txs}`` header recomputes the id :meth:`Block.build` derives, and the
certificate holds valid precommits of it from a quorum of the named
shard's validators.  A certificate proves a transaction was *in* the
block, not that DeliverTx accepted it.  What a block holds passed CheckTx
at an honest quorum (validators prevote only blocks whose every
transaction does), so a certified entry bears its author's signature;
acceptance is the author's part: the controller imports only an export
its source chain delivered, and an agent consumes only for a spend its
home chain delivered.  The signature is what lets a replica take that
on trust — an entry injected into a mempool or a byzantine proposal
without it is refused at CheckTx and at DeliverTx.  Likewise an
attachment proves its payload exists, not that the output is reserved:
that is the participant's 2PC lock, and the home shard admits a spend of
foreign outputs only at its commit point.  No verdict rests on the
shared signature cache: it is keyed by the whole (key, message,
signature) triple.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.common.errors import ValidationError
from repro.consensus.bft import certifies
from repro.consensus.types import header_id
from repro.crypto.hashing import hash_document
from repro.crypto.keys import KeyPair, verify_signature

SHARD_CONSUME = "SHARD_CONSUME"
SHARD_EXPORT = "SHARD_EXPORT"
SHARD_IMPORT = "SHARD_IMPORT"
SYSTEM_OPERATIONS = frozenset({SHARD_CONSUME, SHARD_EXPORT, SHARD_IMPORT})

#: shard id -> that shard's validator public keys (voter -> key).
Keyring = dict[str, dict[str, str]]

#: Entry author -> public key: each shard's 2PC agent under its shard id,
#: the reshard controller under :data:`CONTROLLER`.
Authors = dict[str, str]
CONTROLLER = "reshard-controller"


def is_entry(payload: dict[str, Any]) -> bool:
    operation = payload.get("operation")  # a peer's proposal may carry anything
    return isinstance(operation, str) and operation in SYSTEM_OPERATIONS


def entry_id(entry: dict[str, Any]) -> str:
    """Hash of the body (not the id, evidence or signature): resubmitting
    the same move with a fresher certificate is the same entry."""
    return hash_document(
        {k: v for k, v in entry.items() if k not in ("id", "evidence", "signature")}
    )


def _sealed(entry: dict[str, Any], author: KeyPair) -> dict[str, Any]:
    entry["id"] = entry_id(entry)
    entry["signature"] = author.sign(entry["id"].encode())
    return entry


def _inputs(refs: Iterable[tuple[str, int]]) -> list[dict[str, Any]]:
    return [
        {"fulfills": {"transaction_id": tx_id, "output_index": index}}
        for tx_id, index in sorted(set(refs))
    ]


def refs_of(entry: dict[str, Any]) -> list[tuple[str, int]]:
    """The output refs an entry's ``inputs`` name."""
    return [
        (item["fulfills"]["transaction_id"], item["fulfills"]["output_index"])
        for item in entry.get("inputs") or []
    ]


def consume_entry(
    refs: Iterable[tuple[str, int]], spends: list[dict], author: KeyPair
) -> dict[str, Any]:
    """``spends``: one attachment (payload + evidence) per spending tx."""
    return _sealed(
        {"operation": SHARD_CONSUME, "inputs": _inputs(refs), "evidence": spends}, author
    )


def export_entry(
    migration_id: str, source: str, target: str, refs: Iterable[tuple[str, int]], author: KeyPair
) -> dict[str, Any]:
    """Names both shards, so that no other chain takes it."""
    return _sealed(
        {
            "operation": SHARD_EXPORT,
            "migration": migration_id,
            "source": source,
            "target": target,
            "inputs": _inputs(refs),
        },
        author,
    )


def import_entry(export: dict, evidence: dict, payloads: list[dict], author: KeyPair) -> dict:
    payloads = sorted(payloads, key=lambda payload: payload["id"])
    return _sealed(
        {"operation": SHARD_IMPORT, "export": export, "payloads": payloads, "evidence": evidence},
        author,
    )


def imported_utxos(entry: dict[str, Any]) -> list[dict[str, Any]]:
    """The UTXO documents an import mints, read from its own payloads."""
    outputs = {payload["id"]: payload.get("outputs") or [] for payload in entry["payloads"]}
    return [
        {
            "transaction_id": tx_id,
            "output_index": index,
            "public_keys": outputs[tx_id][index].get("public_keys", []),
            "amount": outputs[tx_id][index].get("amount"),
        }
        for tx_id, index in refs_of(entry["export"])
    ]


# -- verification (stateless: evidence, ids, certificates) ----------------------


def certified_txs(evidence: Any, keyring: Keyring) -> list[str]:
    """The tx ids of the block ``evidence`` certifies; raises unless its
    certificate holds a quorum of valid precommits from the named shard
    for the id its header recomputes."""
    if not isinstance(evidence, dict) or not isinstance(evidence.get("header"), dict):
        raise ValidationError("malformed evidence", "evidence")
    header = evidence["header"]
    keys = keyring.get(evidence.get("shard"))
    height, txs = header.get("height"), header.get("txs")
    if keys is None or not isinstance(height, int) or not isinstance(txs, list):
        raise ValidationError(f"evidence from unknown shard {evidence.get('shard')!r}", "evidence")
    block_id = header_id(height, header.get("previous"), txs)
    if not certifies(evidence.get("cert"), block_id, height, keys):
        raise ValidationError(f"no quorum certificate for {evidence['shard']} block {height}", "evidence")
    return txs


def attached_payload(attachment: Any, keyring: Keyring, check: Callable[[dict], bool]) -> dict:
    """The payload an attachment carries, once its evidence holds: the
    payload (or its carrier import) is in the certified block and the
    payload passes its own stateless checks (its id is its body hash)."""
    txs = certified_txs(attachment, keyring)
    payload = attachment.get("payload")
    if not isinstance(payload, dict) or not check(payload):
        raise ValidationError("attached payload fails its own checks", "evidence")
    carrier = attachment.get("carrier")
    if carrier is None:
        if payload["id"] not in txs:
            raise ValidationError(f"{payload['id'][:8]} is not in the certified block", "evidence")
    elif not (
        isinstance(carrier, dict)
        and carrier.get("operation") == SHARD_IMPORT
        and carrier.get("id") == entry_id(carrier)
        and carrier["id"] in txs
        and payload["id"] in {p.get("id") for p in carrier.get("payloads") or []}
    ):
        raise ValidationError(f"{payload['id'][:8]} has no certified carrier", "evidence")
    return payload


def verify_entry(
    entry: dict,
    keyring: Keyring,
    authors: Authors,
    check: Callable[[dict], bool],
    shard_id: str,
) -> None:
    """Everything about a system entry that needs no ledger: its id, its
    author's signature of it, and that its evidence proves what it
    claims.  A consume on ``shard_id``'s chain is authored by that
    shard's agent, a cutover entry by the controller.

    Raises:
        ValidationError: naming the first failed check.
    """
    if entry.get("id") != entry_id(entry):
        raise ValidationError("entry id does not match its body", "evidence")
    operation = entry["operation"]
    author = authors.get(shard_id if operation == SHARD_CONSUME else CONTROLLER)
    signature = entry.get("signature")
    if not (
        author is not None
        and isinstance(signature, str)
        and verify_signature(author, entry["id"].encode(), signature)
    ):
        raise ValidationError(f"{operation} is not signed by its author", "evidence")
    if operation == SHARD_CONSUME:
        spent: set[tuple[str, int]] = set()
        for attachment in entry.get("evidence") or []:
            spend = attached_payload(attachment, keyring, check)
            for item in spend.get("inputs") or []:
                fulfills = item.get("fulfills") or {}
                spent.add((fulfills.get("transaction_id"), fulfills.get("output_index")))
        if not refs_of(entry) or not set(refs_of(entry)) <= spent:
            raise ValidationError("consume names an output no certified spend took", "evidence")
    elif operation == SHARD_EXPORT and entry.get("source") != shard_id:
        raise ValidationError("export from another shard", "evidence")
    elif operation == SHARD_IMPORT:
        export = entry.get("export")
        if not (
            isinstance(export, dict)
            and export.get("operation") == SHARD_EXPORT
            and export.get("id") == entry_id(export)
            and export.get("target") == shard_id
        ):
            raise ValidationError("import carries no export to this shard", "evidence")
        if export["id"] not in certified_txs(entry.get("evidence"), keyring):
            raise ValidationError("export is not in the certified block", "evidence")
        carried = {payload.get("id") for payload in entry.get("payloads") or []}
        if carried != {tx_id for tx_id, _ in refs_of(export)} or not all(
            check(payload) for payload in entry["payloads"]
        ):
            raise ValidationError("import payloads are not the exported outputs' creators", "evidence")
