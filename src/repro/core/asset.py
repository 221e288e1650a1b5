"""Assets: the things transactions create, escrow and transfer.

Formal model (Section 3.1): an asset is a tuple ``<(k_i, v_i), amt>`` —
a nested key/value document plus a non-negative number of divisible
shares.  In the marketplace use case the document carries *capabilities*
(certifications, work history, machine specs) that BID validation matches
against REQUEST requirements (CBID.7 / Algorithm 2 lines 8-11).
"""

from __future__ import annotations

from typing import Any

#: Conventional key under which capability lists live in asset data.
CAPABILITIES_KEY = "capabilities"


def extract_capabilities(asset_section: dict[str, Any] | None) -> list[str]:
    """Pull capability strings out of a transaction's asset section.

    Works for both inline assets (``{"data": {...}}``) and, defensively,
    bare data documents.  Implements ``getCapsFromRFQ`` /
    ``getCapsFromAsset`` of Algorithm 2.
    """
    if not isinstance(asset_section, dict):
        return []
    data = asset_section.get("data", asset_section)
    if not isinstance(data, dict):
        return []
    value = data.get(CAPABILITIES_KEY, [])
    if not isinstance(value, list):
        return []
    return [item for item in value if isinstance(item, str)]


def capabilities_satisfied(requested: list[str], offered: list[str]) -> bool:
    """CBID.7: the requested capabilities must be a subset of the offered.

    SmartchainDB evaluates this with set semantics — O(n) — whereas the
    Solidity baseline's nested-loop string comparison is O(n^2)
    (Section 5.2.1 analysis).
    """
    return set(requested) <= set(offered)
