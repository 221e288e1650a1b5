"""Seeded fault schedules.

A :class:`Schedule` is the machine-generated half of a chaos run: a
sparse map from harness step to one :class:`FaultAction` (the workload
half is drawn live from the same master seed).  The
:class:`ScheduleGenerator` composes plans from the full fault vocabulary
— node crash/restart, coordinator crash (timed or armed on an exact 2PC
phase), network partition/heal, message delay/reorder, clock skew,
mempool-pressure bursts and the byzantine family (equivocating
proposers, double voters, vote withholders, stale replicas) — while
keeping every plan *survivable*: at most one disruption per shard at a
time, fewer than n/3 concurrent liars per shard, every fault paired
with a repair, so the BFT quorums stay live and a red run always means
a broken invariant, never a schedule that starved the system.

Schedules serialise to canonical JSON; two runs from one seed dump
byte-identical plans, which is what makes a failure replayable from the
``(seed, steps)`` pair alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.common.encoding import canonical_serialize
from repro.sharding.migration import MIGRATE_TRAP_PHASES, MIGRATE_TRAP_ROLES
from repro.sim.rng import SeededRng
from repro.simtest.plane import FaultPlane

#: 2PC phases the generator arms coordinator-crash traps on.  Covers both
#: roles: the coordinator falling over right after durable intent
#: (``begin``), between the outbox flip and the home submit
#: (``commit_pending``), after deciding either way; the participant dying
#: with a fresh prepared lock or mid decision application.
TRAP_PHASES = (
    "begin",
    "commit_pending",
    "decided:committed",
    "decided:aborted",
    "prepared",
    "decision_applied",
)

#: 2PC phases the generator arms *crash-restart* traps on: the
#: participant dying with a fresh prepared lock (between prepare and
#: decision) and the coordinator dying between the outbox flip and the
#: home submit — both restored purely from their SimDisk.
RESTART_TRAP_PHASES = ("prepared", "commit_pending")

#: Fault kinds applicable to any deployment / only to sharded ones.
COMMON_KINDS = ("crash_node", "partition", "net_delay", "time_jump", "burst")
SHARDED_KINDS = ("crash_coordinator", "phase_trap")
#: Kinds requiring per-node durability (the crash-restart family).
DURABLE_KINDS = ("crash_restart",)
DURABLE_SHARDED_KINDS = ("restart_trap",)

#: Byzantine fault kinds: mark one validator as actively *lying* until
#: the paired ``byz_heal``.  Drawn from their own gate (``byzantine_rate``)
#: and their own ``schedule:byz-*`` streams, so enabling them leaves the
#: crash-fault half of a seed's plan byte-identical.  Byzantine windows
#: share the one-disruption-per-shard budget with crashes/partitions and
#: are additionally capped at ⌊(n−1)/3⌋ concurrent liars per shard, so
#: every plan keeps an honest quorum able to both progress and out-vote
#: the adversary — a red byzantine run always means broken safety, never
#: a starved schedule.
BYZANTINE_KINDS = (
    "byz_equivocate",
    "byz_double_vote",
    "byz_withhold",
    "byz_stale",
    "byz_poison",
)

#: Elastic-resharding kinds (durable sharded deployments with a reshard
#: controller, ≥2 shards): ``migrate`` starts a live key migration
#: between two existing shards; ``migrate_trap`` arms a crash on the
#: next migration reaching an exact protocol phase
#: (``"<phase>:<role>"``, phases from
#: :data:`~repro.sharding.migration.MIGRATE_TRAP_PHASES`, roles source /
#: target / controller).  Drawn from their own gate (``elastic_rate``)
#: and ``schedule:elastic-*`` streams, so enabling them leaves the
#: crash-fault half of a seed's plan byte-identical.
ELASTIC_KINDS = ("migrate", "migrate_trap")

#: Schedule kind -> consensus-layer behavior kind.
BYZANTINE_BEHAVIORS = {
    "byz_equivocate": "equivocate",
    "byz_double_vote": "double_vote",
    "byz_withhold": "withhold",
    "byz_stale": "stale",
    # Catch-up poisoner: bites when a crash-restart (which never consumes
    # the disruption budget, so the overlap is schedulable) sends a
    # recovering node to this peer for its missed suffix.
    "byz_poison": "poison",
}


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault (or its paired repair).

    Attributes:
        step: harness step the action applies at.
        kind: one of crash_node / recover_node / crash_coordinator /
            recover_coordinator / phase_trap / trap_clear / partition /
            heal / net_delay / net_calm / time_jump / burst.
        shard: target shard (None for deployment-wide actions).
        node: target validator (crash_node / recover_node only).
        arg: kind-specific payload — trap phase, delay seconds, jump
            seconds, or burst size.
    """

    step: int
    kind: str
    shard: str | None = None
    node: str | None = None
    arg: float | int | str | None = None

    def describe(self) -> str:
        """Stable one-line rendering for schedule dumps and step logs."""
        parts = [self.kind]
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.arg is not None:
            arg = f"{self.arg:.6f}" if isinstance(self.arg, float) else str(self.arg)
            parts.append(f"arg={arg}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        out: dict = {"step": self.step, "kind": self.kind}
        if self.shard is not None:
            out["shard"] = self.shard
        if self.node is not None:
            out["node"] = self.node
        if self.arg is not None:
            out["arg"] = self.arg
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultAction":
        return cls(
            step=int(data["step"]),
            kind=str(data["kind"]),
            shard=data.get("shard"),
            node=data.get("node"),
            arg=data.get("arg"),
        )


@dataclass
class Schedule:
    """A complete fault plan for one run."""

    seed: int
    steps: int
    actions: list[FaultAction]

    def __post_init__(self) -> None:
        self._by_step: dict[int, list[FaultAction]] = {}
        for action in self.actions:
            self._by_step.setdefault(action.step, []).append(action)

    def at(self, step: int) -> list[FaultAction]:
        """Actions scheduled for one step (usually zero or one)."""
        return self._by_step.get(step, [])

    def to_json(self) -> str:
        """Canonical (byte-stable) JSON — the same form the rest of the
        system hashes, so the format cannot silently fork from it."""
        return canonical_serialize(
            {
                "seed": self.seed,
                "steps": self.steps,
                "actions": [action.to_dict() for action in self.actions],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            steps=int(data["steps"]),
            actions=[FaultAction.from_dict(item) for item in data["actions"]],
        )


class ScheduleGenerator:
    """Draws survivable fault plans from a named RNG stream.

    Args:
        rng: the run's master :class:`SeededRng` (the generator draws on
            ``schedule:*`` streams only, so workload draws are unaffected
            by how many faults a plan contains).
        plane: topology source — shard ids and validator names.
        fault_rate: per-step probability that a new fault starts.
        byzantine_rate: per-step probability that a validator turns
            byzantine (0 disables the family and reproduces pre-byzantine
            plans byte-for-byte).
        elastic_rate: per-step probability that an elastic-resharding
            event starts — a live shard migration, sometimes preceded by
            an armed ``migrate_trap`` (0 disables the family and
            reproduces pre-elastic plans byte-for-byte).
    """

    def __init__(
        self,
        rng: SeededRng,
        plane: FaultPlane,
        fault_rate: float = 0.12,
        byzantine_rate: float = 0.0,
        elastic_rate: float = 0.0,
    ):
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if not 0.0 <= byzantine_rate <= 1.0:
            raise ValueError(
                f"byzantine_rate must be in [0, 1], got {byzantine_rate}"
            )
        if not 0.0 <= elastic_rate <= 1.0:
            raise ValueError(f"elastic_rate must be in [0, 1], got {elastic_rate}")
        self._rng = rng
        self._plane = plane
        self.fault_rate = fault_rate
        self.byzantine_rate = byzantine_rate
        self.elastic_rate = elastic_rate

    def generate(self, steps: int) -> Schedule:
        """Produce a plan of ``steps`` steps with paired repairs."""
        rng = self._rng
        plane = self._plane
        kinds = list(COMMON_KINDS) + (list(SHARDED_KINDS) if plane.sharded else [])
        if plane.durable:
            kinds += list(DURABLE_KINDS)
            if plane.sharded:
                kinds += list(DURABLE_SHARDED_KINDS)
        #: Migrations need two distinct shards and agents for the fences;
        #: durable, because the source / target trap roles restart their
        #: validator and agent from disk.
        elastic = (
            self.elastic_rate > 0
            and plane.sharded
            and plane.durable
            and len(plane.shard_ids) >= 2
        )
        actions: list[FaultAction] = []
        #: step -> repairs that come due there (emitted in order).
        repairs: dict[int, list[FaultAction]] = {}
        #: shards with an open node-crash or partition (one at a time).
        disrupted: set[str] = set()
        #: shard -> validators currently marked byzantine.
        byzantine: dict[str, set[str]] = {}
        down_coordinators: set[str] = set()
        #: shards with an open delay window — windows must not overlap,
        #: or one window's net_calm would cut another's short and the
        #: dumped plan would diverge from the executed chaos.
        delayed: set[str] = set()
        trap_armed = False

        def repair_at(step: int, action: FaultAction) -> None:
            repairs.setdefault(step, []).append(action)

        for step in range(steps):
            for repair in repairs.pop(step, []):
                actions.append(repair)
                if repair.kind in ("recover_node", "heal"):
                    disrupted.discard(repair.shard)
                elif repair.kind == "recover_coordinator":
                    down_coordinators.discard(repair.shard)
                elif repair.kind == "net_calm":
                    delayed.discard(repair.shard)
                elif repair.kind == "trap_clear":
                    trap_armed = False
                elif repair.kind == "byz_heal":
                    disrupted.discard(repair.shard)
                    byzantine.get(repair.shard, set()).discard(repair.node)
            if self.byzantine_rate > 0 and rng.uniform(
                "schedule:byz-gate", 0.0, 1.0
            ) < self.byzantine_rate:
                shard = rng.choice("schedule:byz-shard", plane.shard_ids)
                marked = byzantine.setdefault(shard, set())
                cap = max(0, (len(plane.nodes(shard)) - 1) // 3)
                if shard not in disrupted and len(marked) < cap:
                    candidates = [
                        node for node in plane.nodes(shard) if node not in marked
                    ]
                    node = rng.choice("schedule:byz-node", candidates)
                    kind = rng.choice("schedule:byz-kind", list(BYZANTINE_KINDS))
                    hold = rng.randint("schedule:byz-hold", 3, 24)
                    marked.add(node)
                    # A byzantine window spends the shard's one-disruption
                    # budget: no crash or partition stacks on a lying
                    # node's shard, keeping the honest quorum live.
                    disrupted.add(shard)
                    actions.append(FaultAction(step, kind, shard=shard, node=node))
                    repair_at(
                        step + hold,
                        FaultAction(step + hold, "byz_heal", shard=shard, node=node),
                    )
            if elastic and rng.uniform(
                "schedule:elastic-gate", 0.0, 1.0
            ) < self.elastic_rate:
                source = rng.choice("schedule:elastic-source", plane.shard_ids)
                target = rng.choice(
                    "schedule:elastic-target",
                    [s for s in plane.shard_ids if s != source],
                )
                # Half the migrations run with a trap armed on one of
                # their own phases — arming shares the one-trap-at-a-time
                # budget with the 2PC traps, so a shared trap_clear never
                # cuts another window short.
                if not trap_armed and rng.uniform(
                    "schedule:elastic-trap", 0.0, 1.0
                ) < 0.5:
                    trap_armed = True
                    phase = rng.choice(
                        "schedule:elastic-phase", list(MIGRATE_TRAP_PHASES)
                    )
                    role = rng.choice(
                        "schedule:elastic-role", list(MIGRATE_TRAP_ROLES)
                    )
                    trap_hold = rng.randint("schedule:elastic-hold", 8, 24)
                    actions.append(
                        FaultAction(step, "migrate_trap", arg=f"{phase}:{role}")
                    )
                    repair_at(
                        step + trap_hold,
                        FaultAction(step + trap_hold, "trap_clear"),
                    )
                # The trap (if any) arms in the same step, *before* the
                # migration starts, so even the first phase can spring it.
                actions.append(
                    FaultAction(step, "migrate", shard=source, arg=target)
                )
            if rng.uniform("schedule:gate", 0.0, 1.0) >= self.fault_rate:
                continue
            kind = rng.choice("schedule:kind", kinds)
            shard = rng.choice("schedule:shard", plane.shard_ids)
            hold = rng.randint("schedule:hold", 3, 24)
            if kind == "crash_node":
                if shard in disrupted:
                    continue
                node = rng.choice("schedule:node", plane.nodes(shard))
                disrupted.add(shard)
                actions.append(FaultAction(step, "crash_node", shard=shard, node=node))
                repair_at(step + hold, FaultAction(step + hold, "recover_node", shard=shard, node=node))
            elif kind == "partition":
                if shard in disrupted:
                    continue
                disrupted.add(shard)
                actions.append(FaultAction(step, "partition", shard=shard))
                repair_at(step + hold, FaultAction(step + hold, "heal", shard=shard))
            elif kind == "crash_coordinator":
                if shard in down_coordinators:
                    continue
                down_coordinators.add(shard)
                actions.append(FaultAction(step, "crash_coordinator", shard=shard))
                repair_at(
                    step + hold, FaultAction(step + hold, "recover_coordinator", shard=shard)
                )
            elif kind == "phase_trap":
                if trap_armed:
                    continue
                trap_armed = True
                phase = rng.choice("schedule:phase", TRAP_PHASES)
                actions.append(FaultAction(step, "phase_trap", arg=phase))
                repair_at(step + hold, FaultAction(step + hold, "trap_clear"))
            elif kind == "crash_restart":
                # Atomic kill + restore-from-disk: no paired repair, and
                # no open-disruption bookkeeping — the node is back (and
                # catching up) within the same step.
                node = rng.choice("schedule:node", plane.nodes(shard))
                torn = rng.randint("schedule:torn", 0, 48)
                actions.append(
                    FaultAction(step, "crash_restart", shard=shard, node=node, arg=torn)
                )
            elif kind == "restart_trap":
                if trap_armed:
                    continue
                trap_armed = True
                phase = rng.choice("schedule:restart-phase", RESTART_TRAP_PHASES)
                actions.append(FaultAction(step, "restart_trap", arg=phase))
                repair_at(step + hold, FaultAction(step + hold, "trap_clear"))
            elif kind == "net_delay":
                if shard in delayed:
                    continue
                delayed.add(shard)
                delay = round(rng.uniform("schedule:delay", 0.002, 0.05), 6)
                actions.append(FaultAction(step, "net_delay", shard=shard, arg=delay))
                repair_at(step + hold, FaultAction(step + hold, "net_calm", shard=shard))
            elif kind == "time_jump":
                jump = round(rng.uniform("schedule:jump", 0.1, 1.5), 6)
                actions.append(FaultAction(step, "time_jump", arg=jump))
            elif kind == "burst":
                size = rng.randint("schedule:burst", 4, 12)
                actions.append(FaultAction(step, "burst", arg=size))
        # Durable deployments: every plan exercises the crash-restart
        # family at least once — one node rebuilt purely from its disk,
        # and (sharded) one agent restart landing between 2PC prepare
        # and decision — so no seed ships without covering the recovery
        # path this harness exists to break.
        if plane.durable and steps >= 8:
            window = (steps // 4, max(steps // 4 + 1, (3 * steps) // 4))
            if not any(action.kind == "crash_restart" for action in actions):
                at_step = rng.randint("schedule:restart-step", *window)
                shard = rng.choice("schedule:restart-shard", plane.shard_ids)
                node = rng.choice("schedule:restart-node", plane.nodes(shard))
                torn = rng.randint("schedule:torn", 0, 48)
                actions.append(
                    FaultAction(at_step, "crash_restart", shard=shard, node=node, arg=torn)
                )
            if plane.sharded and not any(
                action.kind == "restart_trap" for action in actions
            ):
                at_step = rng.randint("schedule:restart-trap-step", *window)
                # Keep the injected window clear of every randomly-armed
                # trap: a shared trap_clear landing inside another trap's
                # window would disarm it before it springs.
                last_clear = max(
                    (action.step for action in actions if action.kind == "trap_clear"),
                    default=-1,
                )
                at_step = min(max(at_step, last_clear + 1), steps - 2)
                clear_step = min(at_step + 12, steps - 1)
                actions.append(FaultAction(at_step, "restart_trap", arg="prepared"))
                actions.append(FaultAction(clear_step, "trap_clear"))
        # Elastic plans: every schedule crashes at least one migration on
        # an exact protocol phase — the migrate_trap analogue of the
        # guaranteed restart_trap above, so no elastic seed ships without
        # covering the crash-during-migration recovery path.
        if elastic and steps >= 8 and not any(
            action.kind == "migrate_trap" for action in actions
        ):
            window = (steps // 4, max(steps // 4 + 1, (3 * steps) // 4))
            at_step = rng.randint("schedule:elastic-trap-step", *window)
            last_clear = max(
                (action.step for action in actions if action.kind == "trap_clear"),
                default=-1,
            )
            at_step = min(max(at_step, last_clear + 1), steps - 2)
            clear_step = min(at_step + 16, steps - 1)
            phase = rng.choice("schedule:elastic-phase", list(MIGRATE_TRAP_PHASES))
            role = rng.choice("schedule:elastic-role", list(MIGRATE_TRAP_ROLES))
            source = rng.choice("schedule:elastic-source", plane.shard_ids)
            target = rng.choice(
                "schedule:elastic-target",
                [s for s in plane.shard_ids if s != source],
            )
            actions.append(FaultAction(at_step, "migrate_trap", arg=f"{phase}:{role}"))
            actions.append(FaultAction(at_step, "migrate", shard=source, arg=target))
            actions.append(FaultAction(clear_step, "trap_clear"))
        # Unemitted repairs past the horizon: quiesce repairs everything,
        # but keep the plan self-contained for replay tooling.
        for step in sorted(repairs):
            for repair in repairs[step]:
                actions.append(FaultAction(steps, repair.kind, repair.shard, repair.node, repair.arg))
        return Schedule(seed=rng.seed, steps=steps, actions=actions)
