"""Marketplace analytics over the replicated document store.

Section 2.1's queryability argument: with smart contracts, "metadata for
requests, bids, and their underlying assets" hide inside program
structures, so "a query like finding open service requests for 3-D
printing manufacturing capabilities ... cannot be supported easily.
Even more complex queries are critical for supporting tasks like fraud
analysis or other business decision-making tasks."

With the declarative model all of that is plain data in indexed
collections.  This module answers those queries against a node's
:class:`~repro.core.server.SmartchainServer` state — from the commit-fed
materialized views (:mod:`repro.views`) when the node has them, from
collection scans otherwise.  ``source="scan"`` forces the scans, which
is how the golden parity suite asserts both answer identically.

Custody walks (``provenance``) follow the **exact**
``(transaction_id, output_index)`` spend reference — the same rule
validation applies — via :func:`repro.analytics.common.custody_walk`.
The old walk matched on ``transaction_id`` alone and followed an
arbitrary branch through multi-output transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analytics.common import (
    ScanSource,
    ViewSource,
    custody_walk,
    tx_requester,
)
from repro.core.asset import extract_capabilities
from repro.core.server import SmartchainServer


@dataclass
class RequestSummary:
    """One RFQ's market activity."""

    request_id: str
    requester: str
    capabilities: list[str]
    bid_count: int
    interest_count: int
    settled: bool
    winning_bid: str | None


@dataclass
class ProvenanceStep:
    """One hop in an asset's ownership history.

    ``holders`` are the owners of the output the custody chain left this
    transaction through (the followed branch), or of output 0 at the
    terminal hop.
    """

    transaction_id: str
    operation: str
    holders: list[str]


class MarketplaceAnalytics:
    """Business/decision-support queries over committed state."""

    def __init__(self, server: SmartchainServer, source: str = "auto"):
        if source not in ("auto", "views", "scan"):
            raise ValueError(f"unknown analytics source {source!r}")
        self._server = server
        self._transactions = server.database.collection("transactions")
        self._mode = source

    def _active_views(self):
        """The ViewManager, when this query run may serve from views."""
        if self._mode == "scan":
            return None
        return getattr(self._server, "views", None)

    def _source(self):
        views = self._active_views()
        if views is not None:
            return ViewSource(views)
        return ScanSource(self._transactions)

    # -- discovery --------------------------------------------------------------

    def open_requests(self, capability: str | None = None) -> list[dict[str, Any]]:
        """Open RFQs, optionally filtered by requested capability."""
        return self._server.open_requests(capability, source=self._mode)

    def request_summary(self, request_id: str) -> RequestSummary:
        """Full activity picture for one RFQ."""
        source = self._source()
        request = source.by_id(request_id) or {}
        bids = source.referencing("BID", request_id)
        interests = source.referencing("INTEREST", request_id)
        accepts = source.referencing("ACCEPT_BID", request_id)
        accept = accepts[0] if accepts else None
        winning = None
        if accept is not None:
            winning = (accept.get("metadata") or {}).get("win_bid_id")
        return RequestSummary(
            request_id=request_id,
            requester=tx_requester(request) or "",
            capabilities=extract_capabilities(request.get("asset")),
            bid_count=len(bids),
            interest_count=len(interests),
            settled=accept is not None,
            winning_bid=winning,
        )

    def capability_demand(self) -> dict[str, int]:
        """How often each capability is requested across all RFQs."""
        views = self._active_views()
        if views is not None:
            return views.capability_demand()
        demand: dict[str, int] = {}
        for request in self._transactions.find({"operation": "REQUEST"}, copy=False):
            for capability in extract_capabilities(request.get("asset")):
                demand[capability] = demand.get(capability, 0) + 1
        return demand

    # -- provenance ----------------------------------------------------------------

    def provenance(self, asset_id: str) -> list[ProvenanceStep]:
        """The ordered chain of custody for an asset lineage.

        Walks the spend graph from the minting transaction, at each hop
        following the lowest-index output with a committed spender —
        matched on the exact ``(transaction_id, output_index)`` pair, so
        multi-output transactions (payment + change) never divert the
        chain down the wrong branch.
        """
        source = self._source()
        start = source.by_id(asset_id)
        if start is None:
            return []
        steps: list[ProvenanceStep] = []
        for payload, followed in custody_walk(source, start):
            outputs = payload.get("outputs") or []
            pick = followed if followed is not None else 0
            # Zero-copy scan: the holders list must not alias stored state.
            holders = (
                list(outputs[pick].get("public_keys", []))
                if 0 <= pick < len(outputs)
                else []
            )
            steps.append(
                ProvenanceStep(
                    transaction_id=payload["id"],
                    operation=payload.get("operation", "?"),
                    holders=holders,
                )
            )
        return steps

    def holdings(self, public_key: str) -> list[dict[str, Any]]:
        """Unspent outputs (wallet view) for an account."""
        return self._server.outputs_for(public_key, source=self._mode)

    # -- market structure -------------------------------------------------------------

    def bid_competition(self) -> dict[str, int]:
        """request_id -> number of bids (market concentration input)."""
        views = self._active_views()
        if views is not None:
            return views.bid_competition()
        competition: dict[str, int] = {}
        for bid in self._transactions.find({"operation": "BID"}, copy=False):
            for reference in bid.get("references", []):
                competition[reference] = competition.get(reference, 0) + 1
        return competition

    def settlement_rate(self) -> float:
        """Fraction of RFQs that reached an ACCEPT_BID."""
        source = self._source()
        requests = source.count("REQUEST")
        if requests == 0:
            return 0.0
        return source.count("ACCEPT_BID") / requests

    def operation_volume(self) -> dict[str, int]:
        """Committed transaction count per operation."""
        source = self._source()
        volume: dict[str, int] = {}
        for operation in ("CREATE", "TRANSFER", "REQUEST", "BID", "ACCEPT_BID",
                          "RETURN", "INTEREST", "PRE_REQUEST"):
            count = source.count(operation)
            if count:
                volume[operation] = count
        return volume
