"""The reverse-auction marketplace smart contract (paper Fig. 1).

The ETH-SC baseline: a Solidity-style procurement marketplace where
buyers post RFQs (``createrfq``), suppliers answer with asset-backed,
deposit-escrowed bids (``createbid`` + ``checkValidBid``), and the buyer
settles with ``acceptBid`` — refunding every losing deposit.

The implementation deliberately preserves the cost structure the paper's
Section 5.2.1 analysis attributes to the contract:

* registries are dynamic arrays, so **finding an item is an O(n) scan**
  with a cold SLOAD per element ("each map item's retrieval takes O(n)
  time");
* bid validation compares every requested capability against every
  offered capability with ``compare_strings`` — **O(n^2) keccak work**
  ("the quadratic time complexity for BID transactions results from a
  nested loop comparing each CREATE asset capability with every REQUEST
  capability");
* every struct field and capability string is written through metered
  keccak-placed storage slots.
"""

from __future__ import annotations

from typing import Any

from repro.ethereum.contract import CallContext, Contract
from repro.ethereum.evmstate import WorldState
from repro.ethereum.gas import (
    G_ARITH_OP,
    G_TRANSACTION,
    calldata_gas,
    keccak_gas,
    words,
)

# Storage base slots (Solidity declaration order).
SLOT_OWNER = 0
SLOT_ASSETS = 1
SLOT_REQUESTS = 2
SLOT_BIDS = 3
SLOT_ASSET_COUNT = 4
SLOT_REQUEST_COUNT = 5
SLOT_BID_COUNT = 6


def compare_strings(ctx: CallContext, left: str, right: str) -> bool:
    """Solidity's idiomatic ``keccak(a) == keccak(b)`` string equality.

    Charges a keccak of each operand — the "costly compareStrings()
    function in terms of GAS usage".
    """
    ctx.meter.charge(keccak_gas(len(left.encode())))
    ctx.meter.charge(keccak_gas(len(right.encode())))
    return left == right


class ReverseAuctionMarketplace(Contract):
    """Equivalent of the paper's ~175-line Solidity marketplace."""

    def __init__(self, address: str, state: WorldState):
        super().__init__(address, state)
        # Canonical logic state (replicated deterministically across
        # nodes); every access is mirrored by metered storage traffic.
        self._mirror: dict[str, Any] = {
            "owner": None,
            "assets": [],     # {id, owner, capabilities, metadata}
            "requests": [],   # {id, buyer, capabilities, metadata, open}
            "bids": [],       # {id, request_id, supplier, asset_id, deposit, refunded, accepted}
        }

    # -- constructor ---------------------------------------------------------------

    def constructor(self, ctx: CallContext) -> None:
        """Record the deployer as the marketplace owner."""
        self._mirror["owner"] = ctx.sender
        ctx.storage.sstore(SLOT_OWNER, 1)

    # -- internal metered helpers -----------------------------------------------------

    def _store_struct_strings(self, ctx: CallContext, base_slot: int, strings: list[str]) -> None:
        """Persist a list of strings as array-of-string storage."""
        ctx.storage.sstore(base_slot, len(strings))
        for index, text in enumerate(strings):
            element_slot = ctx.storage.array_data_slot(base_slot, index)
            ctx.storage.store_string(element_slot, text)

    def _scan(self, ctx: CallContext, registry: str, base_slot: int, item_id: int) -> dict[str, Any]:
        """O(n) registry lookup with a cold SLOAD per scanned element.

        Raises (reverts) when the id does not exist.
        """
        items = self._mirror[registry]
        for index, item in enumerate(items):
            ctx.storage.sload(ctx.storage.array_data_slot(base_slot, index))
            ctx.meter.charge(G_ARITH_OP)
            if item["id"] == item_id:
                return item
        ctx.require(False, f"{registry[:-1]} {item_id} not found")
        raise AssertionError  # unreachable; require reverts

    def _load_capabilities(self, ctx: CallContext, item: dict[str, Any], base_slot: int) -> list[str]:
        """Charge the reads needed to materialise stored capability strings."""
        for index, capability in enumerate(item["capabilities"]):
            element_slot = ctx.storage.array_data_slot(base_slot, index)
            ctx.storage.load_string_gas(element_slot, len(capability.encode()))
        return item["capabilities"]

    # -- public API (mirrors the Fig. 1 skeleton) -----------------------------------------

    def create_asset(self, ctx: CallContext, capabilities: list[str], metadata: str = "") -> int:
        """Register a supplier asset with its production capabilities."""
        ctx.require(len(capabilities) > 0, "asset needs at least one capability")
        asset_id = len(self._mirror["assets"]) + 1
        entry = {
            "id": asset_id,
            "owner": ctx.sender,
            "capabilities": list(capabilities),
            "metadata": metadata,
        }
        self._mirror["assets"].append(entry)
        head_slot = ctx.storage.array_data_slot(SLOT_ASSETS, asset_id - 1)
        ctx.storage.sstore(head_slot, asset_id)
        ctx.storage.sstore(ctx.storage.mapping_slot(SLOT_ASSETS, f"owner:{asset_id}"), 1)
        self._store_struct_strings(
            ctx, ctx.storage.mapping_slot(SLOT_ASSETS, f"caps:{asset_id}"), capabilities
        )
        if metadata:
            ctx.storage.store_string(
                ctx.storage.mapping_slot(SLOT_ASSETS, f"meta:{asset_id}"), metadata
            )
        ctx.storage.sstore(SLOT_ASSET_COUNT, asset_id)
        ctx.emit("AssetCreated", asset_id=asset_id, owner=ctx.sender)
        return asset_id

    def create_rfq(self, ctx: CallContext, capabilities: list[str], metadata: str = "") -> int:
        """``createrfq``: a buyer posts a request-for-quotes."""
        ctx.require(len(capabilities) > 0, "rfq needs at least one capability")
        rfq_id = len(self._mirror["requests"]) + 1
        entry = {
            "id": rfq_id,
            "buyer": ctx.sender,
            "capabilities": list(capabilities),
            "metadata": metadata,
            "open": True,
        }
        self._mirror["requests"].append(entry)
        head_slot = ctx.storage.array_data_slot(SLOT_REQUESTS, rfq_id - 1)
        ctx.storage.sstore(head_slot, rfq_id)
        self._store_struct_strings(
            ctx, ctx.storage.mapping_slot(SLOT_REQUESTS, f"caps:{rfq_id}"), capabilities
        )
        if metadata:
            ctx.storage.store_string(
                ctx.storage.mapping_slot(SLOT_REQUESTS, f"meta:{rfq_id}"), metadata
            )
        ctx.storage.sstore(SLOT_REQUEST_COUNT, rfq_id)
        ctx.emit("RequestCreated", rfq_id=rfq_id, buyer=ctx.sender)
        return rfq_id

    def check_valid_bid(self, ctx: CallContext, rfq_id: int, asset_id: int) -> bool:
        """``checkValidBid``: the O(n^2) capability validation.

        Every requested capability is compared against every asset
        capability via ``compare_strings`` — the nested loop the paper's
        latency analysis blames for BID's quadratic cost.
        """
        request = self._scan(ctx, "requests", SLOT_REQUESTS, rfq_id)
        asset = self._scan(ctx, "assets", SLOT_ASSETS, asset_id)
        ctx.require(request["open"], "request is closed")
        ctx.require(asset["owner"] == ctx.sender, "bidder does not own the asset")
        requested = self._load_capabilities(
            ctx, request, ctx.storage.mapping_slot(SLOT_REQUESTS, f"caps:{rfq_id}")
        )
        offered = self._load_capabilities(
            ctx, asset, ctx.storage.mapping_slot(SLOT_ASSETS, f"caps:{asset_id}")
        )
        for needed in requested:
            found = False
            for available in offered:
                if compare_strings(ctx, needed, available):
                    found = True
                    # NB: the reference contract keeps scanning — no break —
                    # which is exactly why its BID cost is worst-case O(n^2).
            if not found:
                return False
        return True

    def create_bid(self, ctx: CallContext, rfq_id: int, asset_id: int) -> int:
        """``createbid``: escrow a deposit and register an asset-backed bid."""
        ctx.require(ctx.value > 0, "bid requires an escrow deposit")
        ctx.require(self.check_valid_bid(ctx, rfq_id, asset_id), "insufficient capabilities")
        for bid in self._mirror["bids"]:
            ctx.storage.sload(ctx.storage.array_data_slot(SLOT_BIDS, bid["id"] - 1))
            ctx.require(
                not (bid["request_id"] == rfq_id and bid["supplier"] == ctx.sender
                     and not bid["refunded"] and not bid["accepted"]),
                "duplicate bid",
            )
        bid_id = len(self._mirror["bids"]) + 1
        entry = {
            "id": bid_id,
            "request_id": rfq_id,
            "supplier": ctx.sender,
            "asset_id": asset_id,
            "deposit": ctx.value,
            "refunded": False,
            "accepted": False,
        }
        self._mirror["bids"].append(entry)
        head_slot = ctx.storage.array_data_slot(SLOT_BIDS, bid_id - 1)
        ctx.storage.sstore(head_slot, bid_id)
        ctx.storage.sstore(ctx.storage.mapping_slot(SLOT_BIDS, f"deposit:{bid_id}"), ctx.value)
        ctx.storage.sstore(ctx.storage.mapping_slot(SLOT_BIDS, f"rfq:{bid_id}"), rfq_id)
        ctx.storage.sstore(SLOT_BID_COUNT, bid_id)
        ctx.emit("BidCreated", bid_id=bid_id, rfq_id=rfq_id, supplier=ctx.sender)
        return bid_id

    def accept_bid(self, ctx: CallContext, rfq_id: int, winning_bid_id: int) -> int:
        """``acceptBid``: settle the auction.

        Transfers the winning asset to the buyer and refunds every losing
        deposit — all coded by hand here, whereas SmartchainDB's nested
        ACCEPT_BID type does it natively.
        """
        request = self._scan(ctx, "requests", SLOT_REQUESTS, rfq_id)
        ctx.require(request["buyer"] == ctx.sender, "only the buyer may accept")
        ctx.require(request["open"], "request already settled")
        winner = None
        refunds = 0
        for index, bid in enumerate(self._mirror["bids"]):
            ctx.storage.sload(ctx.storage.array_data_slot(SLOT_BIDS, index))
            if bid["request_id"] != rfq_id or bid["refunded"] or bid["accepted"]:
                continue
            if bid["id"] == winning_bid_id:
                winner = bid
                continue
            # Refund losing deposit from contract escrow.
            ctx.send_value(self.state, self.address, bid["supplier"], bid["deposit"])
            ctx.storage.sstore(
                ctx.storage.mapping_slot(SLOT_BIDS, f"deposit:{bid['id']}"), 0
            )
            bid["refunded"] = True
            refunds += 1
        ctx.require(winner is not None, "winning bid not found for request")
        winner["accepted"] = True
        asset = self._scan(ctx, "assets", SLOT_ASSETS, winner["asset_id"])
        asset["owner"] = ctx.sender
        ctx.storage.sstore(
            ctx.storage.mapping_slot(SLOT_ASSETS, f"owner:{winner['asset_id']}"), 2
        )
        # Winning deposit goes to the buyer (payment semantics).
        ctx.send_value(self.state, self.address, ctx.sender, winner["deposit"])
        ctx.storage.sstore(
            ctx.storage.mapping_slot(SLOT_BIDS, f"deposit:{winner['id']}"), 0
        )
        request["open"] = False
        ctx.storage.sstore(ctx.storage.mapping_slot(SLOT_REQUESTS, f"open:{rfq_id}"), 0)
        ctx.emit("BidAccepted", rfq_id=rfq_id, bid_id=winning_bid_id, refunds=refunds)
        return refunds

    def withdraw_bid(self, ctx: CallContext, bid_id: int) -> None:
        """Supplier-initiated withdrawal (authorised parties only)."""
        bid = self._scan(ctx, "bids", SLOT_BIDS, bid_id)
        ctx.require(bid["supplier"] == ctx.sender, "only the bidder may withdraw")
        ctx.require(not bid["refunded"] and not bid["accepted"], "bid already settled")
        request = self._scan(ctx, "requests", SLOT_REQUESTS, bid["request_id"])
        ctx.require(request["open"], "auction already settled")
        ctx.send_value(self.state, self.address, bid["supplier"], bid["deposit"])
        ctx.storage.sstore(ctx.storage.mapping_slot(SLOT_BIDS, f"deposit:{bid_id}"), 0)
        bid["refunded"] = True
        ctx.emit("BidWithdrawn", bid_id=bid_id)

    def transfer_asset(self, ctx: CallContext, asset_id: int, to: str) -> None:
        """Contract-mediated asset TRANSFER (the Fig. 2 comparison)."""
        asset = self._scan(ctx, "assets", SLOT_ASSETS, asset_id)
        ctx.require(asset["owner"] == ctx.sender, "only the owner may transfer")
        asset["owner"] = to
        ctx.storage.sstore(
            ctx.storage.mapping_slot(SLOT_ASSETS, f"owner:{asset_id}"),
            1 + len(self._mirror["assets"]),
        )
        ctx.emit("AssetTransferred", asset_id=asset_id, to=to)

    # -- view helpers (free reads used by examples/tests) ---------------------------------

    def get_request(self, ctx: CallContext, rfq_id: int) -> dict[str, Any]:
        """View: request struct by id (still pays the O(n) scan)."""
        return dict(self._scan(ctx, "requests", SLOT_REQUESTS, rfq_id))

    def asset_owner(self, ctx: CallContext, asset_id: int) -> str:
        """View: current owner of an asset."""
        return self._scan(ctx, "assets", SLOT_ASSETS, asset_id)["owner"]


def estimate_gas(
    method: str,
    args: list[Any],
    counts: dict[str, int],
    value: int = 0,
) -> int:
    """Deterministic gas oracle for block packing and cost-model timing.

    Mirrors the contract's metered structure: linear scans over registry
    sizes, quadratic capability comparison, per-string storage writes.
    ``counts`` carries the current registry sizes
    (``assets``/``requests``/``bids``) and, for bids/accepts, the
    capability list lengths involved.
    """
    gas = G_TRANSACTION + calldata_gas(repr(args).encode())
    scan = lambda n: 2_200 * max(n, 0)  # cold sload + arithmetic per element

    if method == "create_asset":
        capabilities, metadata = args[0], (args[1] if len(args) > 1 else "")
        gas += 45_000
        for capability in capabilities:
            gas += 21_000 + 22_000 * words(len(capability.encode()))
        gas += 21_000 * words(len(metadata.encode())) if metadata else 0
    elif method == "create_rfq":
        capabilities, metadata = args[0], (args[1] if len(args) > 1 else "")
        gas += 45_000
        for capability in capabilities:
            gas += 21_000 + 22_000 * words(len(capability.encode()))
        gas += 21_000 * words(len(metadata.encode())) if metadata else 0
    elif method == "create_bid":
        gas += 70_000
        gas += scan(counts.get("requests", 0)) + scan(counts.get("assets", 0))
        gas += scan(counts.get("bids", 0))
        requested = counts.get("requested_caps", 4)
        offered = counts.get("offered_caps", 4)
        cap_bytes = counts.get("cap_bytes", 24)
        gas += requested * offered * 2 * keccak_gas(cap_bytes)
        gas += (requested + offered) * 2_200 * max(1, words(cap_bytes))
    elif method == "accept_bid":
        gas += 60_000
        gas += scan(counts.get("requests", 0)) + scan(counts.get("assets", 0))
        gas += scan(counts.get("bids", 0))
        gas += counts.get("bids_for_rfq", 1) * 17_000  # refund + sstore each
    elif method == "transfer_asset":
        gas += 30_000 + scan(counts.get("assets", 0))
    elif method == "withdraw_bid":
        gas += 40_000 + scan(counts.get("bids", 0)) + scan(counts.get("requests", 0))
    else:
        gas += 50_000
    return gas
