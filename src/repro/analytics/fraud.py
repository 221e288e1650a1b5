"""Fraud heuristics over the transaction graph.

The paper motivates on-chain queryability with "tasks like fraud
analysis" (Section 2.1).  These detectors run as plain queries over the
committed collections — no event scraping, no contract instrumentation.

Each detector returns :class:`Finding` records; none of them mutates
state.  They are heuristics: a finding is a lead for an analyst, not a
verdict.

Two correctness rules shared with :mod:`repro.analytics.queries`:

- Party extraction goes through :func:`repro.analytics.common.tx_requester`
  and :func:`~repro.analytics.common.tx_recipient`, which return ``None``
  on malformed transactions (empty inputs, missing owner lists) instead
  of raising — a hostile payload must not crash the screen.
- Custody chains (``rapid_flips``) follow the exact
  ``(transaction_id, output_index)`` spend pair, so a change output
  going back to the seller is not mistaken for a flip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.common import (
    ScanSource,
    ViewSource,
    custody_walk,
    tx_recipient,
    tx_requester,
)
from repro.core.server import SmartchainServer


@dataclass(frozen=True)
class Finding:
    """One suspicious pattern."""

    kind: str
    subject: str
    detail: str
    transactions: tuple[str, ...] = ()


class FraudAnalyzer:
    """Query-driven fraud screening for the marketplace."""

    def __init__(self, server: SmartchainServer, source: str = "auto"):
        if source not in ("auto", "views", "scan"):
            raise ValueError(f"unknown analytics source {source!r}")
        self._server = server
        self._transactions = server.database.collection("transactions")
        self._mode = source

    def _source(self):
        views = getattr(self._server, "views", None) if self._mode != "scan" else None
        if views is not None:
            return ViewSource(views)
        return ScanSource(self._transactions)

    def self_dealing(self) -> list[Finding]:
        """Requesters accepting bids backed by assets they once owned.

        A buyer who routes their own asset through a shill supplier and
        then "wins" it back distorts price discovery.
        """
        source = self._source()
        findings = []
        for accept in source.by_operation("ACCEPT_BID"):
            metadata = accept.get("metadata") or {}
            win_bid = source.by_id(metadata.get("win_bid_id", ""))
            if win_bid is None:
                continue
            requester = tx_requester(accept)
            asset_id = (win_bid.get("asset") or {}).get("id")
            if not asset_id or requester is None:
                continue
            create = source.by_id(asset_id)
            if create is None:
                continue
            if tx_requester(create) == requester:
                findings.append(
                    Finding(
                        kind="self-dealing",
                        subject=requester,
                        detail="requester accepted a bid backed by an asset they minted",
                        transactions=(accept["id"], win_bid["id"], asset_id),
                    )
                )
        return findings

    def bid_withdraw_churn(self, threshold: int = 3) -> list[Finding]:
        """Suppliers whose bids repeatedly end in RETURNs without a win.

        Persistent losing bids at scale can be deliberate price probing
        or denial-of-auction behaviour.
        """
        source = self._source()
        losses: dict[str, list[str]] = {}
        wins: set[str] = set()
        for accept in source.by_operation("ACCEPT_BID"):
            metadata = accept.get("metadata") or {}
            win_bid = source.by_id(metadata.get("win_bid_id", ""))
            if win_bid is not None:
                winner = tx_requester(win_bid)
                if winner:
                    wins.add(winner)
        for returned in source.by_operation("RETURN"):
            recipient = tx_recipient(returned)
            if recipient:
                losses.setdefault(recipient, []).append(returned["id"])
        findings = []
        for supplier, return_ids in losses.items():
            if len(return_ids) >= threshold and supplier not in wins:
                findings.append(
                    Finding(
                        kind="bid-churn",
                        subject=supplier,
                        detail=f"{len(return_ids)} losing bids and no wins",
                        transactions=tuple(return_ids),
                    )
                )
        return findings

    def rapid_flips(self, max_hops: int = 3) -> list[Finding]:
        """Assets cycling back to a previous owner within few transfers.

        Ownership loops (A -> B -> A) are classic wash-trading structure.
        See the module-level :func:`rapid_flips` for the walk and how
        the views serve it.
        """
        return rapid_flips(self._source(), max_hops)

    def capability_overclaim(self) -> list[Finding]:
        """Assets whose capability list far exceeds the market norm.

        Outlier capability counts are a signal of padded certifications
        (gaming CBID.7 subset checks).
        """
        source = self._source()
        counts = []
        for create in source.by_operation("CREATE"):
            data = (create.get("asset") or {}).get("data") or {}
            capabilities = data.get("capabilities") or []
            counts.append((create["id"], len(capabilities)))
        if len(counts) < 4:
            return []
        sizes = sorted(size for _, size in counts)
        median = sizes[len(sizes) // 2]
        findings = []
        for tx_id, size in counts:
            if median > 0 and size >= max(4, 3 * median):
                findings.append(
                    Finding(
                        kind="capability-overclaim",
                        subject=tx_id,
                        detail=f"declares {size} capabilities vs market median {median}",
                        transactions=(tx_id,),
                    )
                )
        return findings

    def screen(self) -> list[Finding]:
        """Run every detector."""
        findings: list[Finding] = []
        findings.extend(self.self_dealing())
        findings.extend(self.bid_withdraw_churn())
        findings.extend(self.rapid_flips())
        findings.extend(self.capability_overclaim())
        return findings


def flip_of(source, create: dict, max_hops: int) -> Finding | None:
    """The ownership-loop finding of one asset, or ``None``.

    The walk follows the exact output each TRANSFER spends, and the
    holder at each hop is the owner of that followed output — change
    outputs returning to the sender never register as a flip.
    """
    chain: list[str] = []
    for payload, followed in custody_walk(
        source, create, operation="TRANSFER", max_hops=max_hops
    ):
        holder = tx_recipient(payload, followed if followed is not None else 0)
        if holder:
            chain.append(holder)
    seen: dict[str, int] = {}
    for position, holder in enumerate(chain):
        if holder in seen and position - seen[holder] <= max_hops and position > seen[holder]:
            return Finding(
                kind="ownership-loop",
                subject=holder,
                detail=f"asset returned to a prior owner within "
                       f"{position - seen[holder]} hop(s)",
                transactions=(create["id"],),
            )
        seen[holder] = position
    return None


def walk_flips(source, max_hops: int = 3) -> list[Finding]:
    """:func:`flip_of` over every CREATE, in the source's CREATE order:
    the reference computation, and the one a :class:`ScanSource` runs."""
    findings = []
    for create in source.by_operation("CREATE"):
        finding = flip_of(source, create, max_hops)
        if finding is not None:
            findings.append(finding)
    return findings


def rapid_flips(source, max_hops: int = 3) -> list[Finding]:
    """Ownership-loop findings, in CREATE order.

    Over a :class:`ViewSource` the findings are kept on the view manager
    (:meth:`repro.views.ViewManager.flip_memo`), and only the assets a
    CREATE or TRANSFER applied to since the last call are re-walked; a
    refresh with no block applied in between walks nothing.  A
    :class:`ScanSource` walks every asset on every call (:func:`walk_flips`).
    """
    if not isinstance(source, ViewSource):
        return walk_flips(source, max_hops)
    views = source.views
    memo = views.flip_memo(max_hops)
    if memo.dirty:
        kept = memo.kept
        for asset in memo.dirty:
            create = views.transaction(asset)
            # A TRANSFER applied before its CREATE: the CREATE marks the
            # asset again when it applies.
            if create is None or create.get("operation") != "CREATE":
                continue
            views.stats["custody_walks"] += 1
            finding = flip_of(source, create, max_hops)
            if finding is None:
                kept.pop(asset, None)
            else:
                kept[asset] = finding
        memo.dirty.clear()
        memo.ordered = [
            kept[create["id"]] for create in source.by_operation("CREATE") if create["id"] in kept
        ]
    return list(memo.ordered)
