"""Shared read-path plumbing for the analytics package.

Two things live here, both extracted from near-identical inline code in
``queries.py`` and ``fraud.py``:

1. **Schema-tolerant payload accessors.**  Every detector used to reach
   into payloads with chains like
   ``(tx.get("inputs") or [{}])[0].get("owners_before", [None])[0]`` —
   which *looks* defensive but raises ``IndexError`` the moment a
   malformed payload carries an empty ``owners_before`` list, silently
   masking schema drift until an analyst run crashes.
   :func:`tx_requester` / :func:`tx_recipient` are the one tested,
   shared implementation: they return ``None`` on every malformed shape.

2. **The read-source abstraction.**  Analytics queries are phrased
   against a :class:`ReadSource` — either a :class:`ScanSource` over the
   transactions collection (the original per-call rescan) or a
   :class:`ViewSource` over the commit-fed materialized views
   (:mod:`repro.views`).  Crucially, the spend-graph walk matches
   spenders on the exact ``(transaction_id, output_index)`` pair — the
   same rule validation applies in
   :meth:`repro.core.context.ValidationContext.output_spender` — instead
   of ``inputs.fulfills.transaction_id`` alone, which followed an
   arbitrary branch on multi-output transactions.
"""

from __future__ import annotations

from typing import Any


def tx_requester(payload: dict[str, Any] | None) -> str | None:
    """First signer (``owners_before``) of a payload's first input.

    Safe on every malformed shape: missing/empty ``inputs``, inputs that
    are not dicts, missing/empty ``owners_before``.  Returns ``None``
    rather than guessing.
    """
    if not isinstance(payload, dict):
        return None
    inputs = payload.get("inputs")
    if not isinstance(inputs, list) or not inputs:
        return None
    first = inputs[0]
    if not isinstance(first, dict):
        return None
    owners = first.get("owners_before")
    if not isinstance(owners, list) or not owners:
        return None
    return owners[0]


def tx_recipient(payload: dict[str, Any] | None, output_index: int = 0) -> str | None:
    """First public key of the output at ``output_index``.

    Same tolerance contract as :func:`tx_requester`: any malformed or
    absent shape yields ``None``.
    """
    if not isinstance(payload, dict):
        return None
    outputs = payload.get("outputs")
    if not isinstance(outputs, list) or not (0 <= output_index < len(outputs)):
        return None
    output = outputs[output_index]
    if not isinstance(output, dict):
        return None
    keys = output.get("public_keys")
    if not isinstance(keys, list) or not keys:
        return None
    return keys[0]


class ScanSource:
    """Read source that rescans the transactions collection per call."""

    def __init__(self, transactions):
        self._transactions = transactions

    def by_id(self, tx_id: str) -> dict[str, Any] | None:
        return self._transactions.find_one({"id": tx_id}, copy=False)

    def by_operation(self, operation: str) -> list[dict[str, Any]]:
        return self._transactions.find({"operation": operation}, copy=False)

    def count(self, operation: str) -> int:
        return self._transactions.count({"operation": operation})

    def referencing(self, operation: str, reference: str) -> list[dict[str, Any]]:
        return self._transactions.find(
            {"operation": operation, "references": reference}, copy=False
        )

    def spender_of(self, tx_id: str, output_index: int) -> dict[str, Any] | None:
        # Exact-pair match, mirroring ValidationContext.output_spender:
        # the top-level transaction_id clause rides the index, the
        # $elemMatch pins the output_index to the same input element.
        return self._transactions.find_one(
            {
                "inputs.fulfills.transaction_id": tx_id,
                "inputs": {
                    "$elemMatch": {
                        "fulfills.transaction_id": tx_id,
                        "fulfills.output_index": output_index,
                    }
                },
            },
            copy=False,
        )


class ViewSource:
    """Read source backed by a :class:`repro.views.ViewManager`."""

    def __init__(self, views):
        self.views = views

    def by_id(self, tx_id: str) -> dict[str, Any] | None:
        return self.views.transaction(tx_id)

    def by_operation(self, operation: str) -> list[dict[str, Any]]:
        return self.views.transactions_by_operation(operation)

    def count(self, operation: str) -> int:
        return self.views.operation_count(operation)

    def referencing(self, operation: str, reference: str) -> list[dict[str, Any]]:
        return self.views.referencing(operation, reference)

    def spender_of(self, tx_id: str, output_index: int) -> dict[str, Any] | None:
        return self.views.spender_of(tx_id, output_index)


def follow_spend(source, payload: dict[str, Any], operation: str | None = None):
    """The next hop of a custody walk: ``(spender, output_index)``.

    Probes the payload's outputs in index order and follows the lowest
    index that has a committed spender (optionally restricted to one
    spender ``operation``).  Returns ``(None, None)`` at the chain tip.
    """
    outputs = payload.get("outputs") or []
    for index in range(len(outputs)):
        spender = source.spender_of(payload["id"], index)
        if spender is None:
            continue
        if operation is not None and spender.get("operation") != operation:
            continue
        return spender, index
    return None, None


def custody_walk(
    source,
    start: dict[str, Any],
    operation: str | None = None,
    max_hops: int | None = None,
):
    """Walk the spend graph from ``start`` along exact output refs.

    Returns ``[(payload, followed_index), ...]`` in custody order, where
    ``followed_index`` is the output index the walk left through
    (``None`` at the terminal hop).  A seen-set guards against cycles in
    corrupt histories.
    """
    steps: list[tuple[dict[str, Any], int | None]] = []
    seen: set[str] = set()
    current: dict[str, Any] | None = start
    while current is not None and current.get("id") not in seen:
        seen.add(current["id"])
        if max_hops is not None and len(steps) > max_hops:
            break
        spender, index = follow_spend(source, current, operation)
        steps.append((current, index))
        current = spender
    return steps
