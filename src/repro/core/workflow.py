"""Blockchain transaction workflows (Definition 5).

A workflow is a sequence ``T1 .. Tn`` where the head spends nothing and
every later transaction's inputs come from committed transactions.  The
module ships the reverse-auction workflows the paper names as the only
valid ones for the procurement marketplace::

    CREATE
    CREATE -> TRANSFER
    CREATE -> REQUEST -> BID -> ACCEPT_BID -> TRANSFER

and a :class:`WorkflowEngine` that checks concrete transaction sequences
against declared workflow shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.errors import WorkflowError
from repro.core.transaction import (
    ACCEPT_BID,
    BID,
    CREATE,
    GENESIS_OPERATIONS,
    REQUEST,
    RETURN,
    TRANSFER,
)


@dataclass(frozen=True)
class WorkflowSpec:
    """A named, ordered shape of operations.

    ``repeatable`` marks positions that may occur one-or-more times
    (BID in a reverse auction: many suppliers bid on one request).
    """

    name: str
    operations: tuple[str, ...]
    repeatable: frozenset[int] = frozenset()

    def matches(self, operations: Sequence[str]) -> bool:
        """True if the operation sequence fits this shape."""
        position = 0
        for spec_index, expected in enumerate(self.operations):
            if position >= len(operations):
                return False
            if operations[position] != expected:
                return False
            position += 1
            if spec_index in self.repeatable:
                while position < len(operations) and operations[position] == expected:
                    position += 1
        return position == len(operations)


#: The marketplace's valid workflows (Section 3.2).
MARKETPLACE_WORKFLOWS: tuple[WorkflowSpec, ...] = (
    WorkflowSpec("create", (CREATE,)),
    WorkflowSpec("create-transfer", (CREATE, TRANSFER)),
    WorkflowSpec(
        "reverse-auction",
        (CREATE, REQUEST, BID, ACCEPT_BID, TRANSFER),
        repeatable=frozenset({2}),
    ),
    WorkflowSpec(
        "reverse-auction-with-returns",
        (CREATE, REQUEST, BID, ACCEPT_BID, RETURN, TRANSFER),
        repeatable=frozenset({2, 4}),
    ),
)


class WorkflowEngine:
    """Validates transaction sequences against registered workflows."""

    def __init__(self, specs: Sequence[WorkflowSpec] = MARKETPLACE_WORKFLOWS):
        self._specs = list(specs)

    def register(self, spec: WorkflowSpec) -> None:
        """Add a workflow shape."""
        self._specs.append(spec)

    def classify(self, payloads: Sequence[dict[str, Any]]) -> WorkflowSpec:
        """Match a concrete sequence to a workflow spec.

        Checks both the *shape* (operations fit a registered spec) and
        Definition 5's structural conditions:

        * the head's inputs spend nothing;
        * every non-head transaction's spent inputs reference transactions
          appearing earlier in the sequence (committed-before semantics)
          or pre-existing committed state, signalled via ``references``.

        Raises:
            WorkflowError: if no spec matches or a condition fails.
        """
        if not payloads:
            raise WorkflowError("empty workflow")
        operations = [payload.get("operation", "?") for payload in payloads]
        spec = next((item for item in self._specs if item.matches(operations)), None)
        if spec is None:
            raise WorkflowError(f"no registered workflow matches {operations}")

        head = payloads[0]
        if head.get("operation") not in GENESIS_OPERATIONS or any(
            item.get("fulfills") for item in head.get("inputs", [])
        ):
            raise WorkflowError("workflow head must have null input (Definition 5)")

        known_ids = {head.get("id")}
        known_ids.discard(None)
        for payload in payloads[1:]:
            for item in payload.get("inputs", []):
                fulfills = item.get("fulfills")
                if fulfills is None:
                    continue
                if fulfills["transaction_id"] not in known_ids:
                    raise WorkflowError(
                        f"{payload.get('operation')} spends "
                        f"{fulfills['transaction_id'][:8]}... which precedes the workflow "
                        "but is not part of it"
                    )
            if payload.get("id"):
                known_ids.add(payload["id"])
        return spec


@dataclass
class WorkflowTrace:
    """Groups committed transactions into per-asset workflow instances."""

    sequences: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def observe(self, payload: dict[str, Any]) -> None:
        """Attach a committed payload to its asset's trace."""
        asset = payload.get("asset") or {}
        key = asset.get("id") or payload.get("id")
        if key is None:
            return
        self.sequences.setdefault(key, []).append(payload)

    def operations_for(self, asset_id: str) -> list[str]:
        return [payload.get("operation", "?") for payload in self.sequences.get(asset_id, [])]
