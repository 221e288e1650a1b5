"""Speculative parallel validation of declarative transactions.

Section 6 of the paper surveys concurrent smart-contract execution and
notes that read/write-set conflict detection "might be too aggressive,
resulting in many unnecessary conflicts ... suggesting the need for
reasoning about conflicts at a slightly higher level of abstraction."

Declarative transactions *are* that higher level: each type declares
exactly which ledger objects it touches (spent output refs, referenced
transactions, asset lineages), so a scheduler can partition a block into
conflict groups **before** execution — no speculative aborts needed.

:class:`ConflictScheduler` builds the access sets from payloads alone,
unions overlapping transactions (union-find), topologically keeps
intra-group order, and packs groups into a bounded number of parallel
validation lanes.  The simulated time for a block's validation then
drops from ``sum(costs)`` to ``max(lane sums)`` — the quantity the
worker-width ablation measures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class AccessSet:
    """The ledger objects one transaction reads or writes.

    * ``writes`` — objects the transaction consumes or creates (spent
      output refs, its own asset lineage).
    * ``reads`` — objects it only checks (referenced transactions:
      the REQUEST a BID answers, the bids an ACCEPT_BID considers).

    Two transactions conflict iff one's writes intersect the other's
    reads or writes.
    """

    tx_id: str
    writes: frozenset[str]
    reads: frozenset[str]

    def conflicts_with(self, other: "AccessSet") -> bool:
        if self.writes & other.writes:
            return True
        if self.writes & other.reads:
            return True
        if self.reads & other.writes:
            return True
        return False


def access_set_of(payload: dict[str, Any]) -> AccessSet:
    """Derive the declared access set of a transaction payload.  A field of
    the wrong shape declares nothing: blocks are priced before CheckTx."""
    writes: set[str] = set()
    reads: set[str] = set()
    for item in _listed(payload, "inputs"):
        fulfills = item.get("fulfills") if isinstance(item, dict) else None
        if isinstance(fulfills, dict) and fulfills:
            writes.add(f"utxo:{fulfills.get('transaction_id')}:{fulfills.get('output_index')}")
    asset = payload.get("asset")
    asset_id = asset.get("id") if isinstance(asset, dict) else None
    if asset_id:
        writes.add(f"asset:{asset_id}")
    references = _listed(payload, "references")
    for reference in references:
        reads.add(f"tx:{reference}")
    operation = payload.get("operation")
    if operation == "ACCEPT_BID":
        # Settling an RFQ excludes concurrent accepts on it: treat the
        # referenced request as written.
        for reference in references:
            writes.add(f"rfq:{reference}")
            reads.discard(f"tx:{reference}")
    return AccessSet(
        tx_id=payload.get("id", ""),
        writes=frozenset(writes),
        reads=frozenset(reads),
    )


def _listed(payload: dict[str, Any], field: str) -> list[Any]:
    value = payload.get(field)
    return value if isinstance(value, list) else []


class _UnionFind:
    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, index: int) -> int:
        root = index
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[index] != root:
            self._parent[index], index = root, self._parent[index]
        return root

    def union(self, left: int, right: int) -> None:
        self._parent[self.find(left)] = self.find(right)


@dataclass
class Schedule:
    """The scheduler's output for one block.

    ``groups`` holds conflict groups (original order preserved inside a
    group); ``lanes`` maps each group to a validation lane.
    """

    groups: list[list[str]]
    lanes: list[list[int]]
    serial_cost: float
    parallel_cost: float

    @property
    def speedup(self) -> float:
        if self.parallel_cost <= 0:
            return 1.0
        return self.serial_cost / self.parallel_cost


class ConflictScheduler:
    """Partition block transactions into parallel validation lanes.

    Args:
        lanes: number of parallel validation workers (1 = serial).
    """

    def __init__(self, lanes: int = 4):
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.lanes = lanes

    def conflict_groups(self, payloads: Sequence[dict[str, Any]]) -> list[list[int]]:
        """Indices of payloads grouped by transitive conflict."""
        access_sets = [access_set_of(payload) for payload in payloads]
        union_find = _UnionFind(len(payloads))
        # Index objects -> last toucher per mode, avoiding O(n^2) pairwise
        # comparisons: a conflict exists iff some shared object is written
        # by at least one side (read-read sharing is safe).
        last_writer: dict[str, int] = {}
        last_reader: dict[str, int] = {}
        for index, access in enumerate(access_sets):
            for key in access.writes:
                if key in last_writer:
                    union_find.union(index, last_writer[key])
                if key in last_reader:
                    union_find.union(index, last_reader[key])
                last_writer[key] = index
            for key in access.reads:
                if key in last_writer:
                    union_find.union(index, last_writer[key])
                last_reader[key] = index
        groups: dict[int, list[int]] = {}
        for index in range(len(payloads)):
            groups.setdefault(union_find.find(index), []).append(index)
        return [sorted(members) for _, members in sorted(groups.items())]

    def schedule(
        self,
        payloads: Sequence[dict[str, Any]],
        cost_of: Callable[[dict[str, Any]], float],
    ) -> Schedule:
        """Pack conflict groups into lanes (longest-processing-time first).

        Returns a :class:`Schedule` with serial and parallel simulated
        validation costs for the block.
        """
        index_groups = self.conflict_groups(payloads)
        group_costs = [
            sum(cost_of(payloads[index]) for index in group) for group in index_groups
        ]
        serial_cost = sum(group_costs)

        lane_loads = [0.0] * self.lanes
        lane_members: list[list[int]] = [[] for _ in range(self.lanes)]
        # LPT bin packing: heaviest group to the lightest lane.
        order = sorted(range(len(index_groups)), key=lambda g: -group_costs[g])
        for group_index in order:
            lane = min(range(self.lanes), key=lambda l: lane_loads[l])
            lane_loads[lane] += group_costs[group_index]
            lane_members[lane].append(group_index)
        parallel_cost = max(lane_loads) if lane_loads else 0.0

        return Schedule(
            groups=[
                [payloads[index].get("id", "") for index in group]
                for group in index_groups
            ],
            lanes=lane_members,
            serial_cost=serial_cost,
            parallel_cost=parallel_cost,
        )


#: Blocks whose schedules :func:`block_schedule` keeps (the newest).
SCHEDULE_MEMO_LIMIT = 64

#: (id(pricing), lanes, id of each envelope) -> (the keyed objects, held so
#: their ids are not reused while the entry lives, and their schedule).
_SCHEDULES: OrderedDict[tuple, tuple[tuple, Schedule]] = OrderedDict()


def block_schedule(scheduler: ConflictScheduler, pricing: Any, envelopes: Sequence[Any],
                   cost_of: Callable[[Any], float]) -> Schedule:
    """A block's schedule, once per process: every replica prices the same
    envelopes with the cluster's one cost model (``pricing``) and lanes."""
    key = (id(pricing), scheduler.lanes, *map(id, envelopes))
    if key not in _SCHEDULES:
        costs = {id(envelope.payload): cost_of(envelope) for envelope in envelopes}
        payloads = [envelope.payload for envelope in envelopes]
        schedule = scheduler.schedule(payloads, lambda payload: costs[id(payload)])
        _SCHEDULES[key] = ((pricing, *envelopes), schedule)
        if len(_SCHEDULES) > SCHEDULE_MEMO_LIMIT:
            _SCHEDULES.popitem(last=False)
    _SCHEDULES.move_to_end(key)
    return _SCHEDULES[key][1]


def parallel_validation_cost(
    payloads: Sequence[dict[str, Any]],
    cost_of: Callable[[dict[str, Any]], float],
    lanes: int,
) -> float:
    """Simulated seconds to validate a block with ``lanes`` workers."""
    if lanes <= 1:
        return sum(cost_of(payload) for payload in payloads)
    scheduler = ConflictScheduler(lanes=lanes)
    return scheduler.schedule(payloads, cost_of).parallel_cost
