"""The deterministic chaos harness.

One master seed produces everything a run does: the cluster topology,
the fault schedule, the workload trace, every stochastic choice inside
the simulation — so a failing run is a ``(seed, steps)`` pair, and the
:class:`ReproBundle` it emits replays byte-identically anywhere.

A run is ``steps`` harness steps.  Each step

1. applies any :class:`~repro.simtest.schedule.FaultAction` the plan
   scheduled there (crashes, partitions, chaos delays, time jumps,
   bursts, 2PC phase traps, byzantine marks/heals),
2. submits one workload op (paper-mix intent, churn transfer, a
   conflict pair, or — with ``adversarial_rate`` — an adversarial
   double-submit/forgery),
3. advances the shared event loop by one slice of simulated time, and
4. runs every due per-step invariant.

After the last step the harness *quiesces* — repairs every fault,
drains the loop to a fixpoint — and runs the full registry including
the quiesce-only invariants (no stuck locks, all 2PC terminal, every
cross-shard submission settled).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.errors import MigrationError
from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sim.rng import SeededRng
from repro.simtest.invariants import InvariantChecker, Violation
from repro.simtest.plane import FaultPlane
from repro.simtest.schedule import (
    BYZANTINE_BEHAVIORS,
    FaultAction,
    Schedule,
    ScheduleGenerator,
)
from repro.simtest.workload import TraceWorkload


@dataclass
class SimtestConfig:
    """Everything tunable about a chaos run (all of it seed-derived)."""

    seed: int = 2024
    steps: int = 200
    #: Deployment shape: ``single=True`` drives one SmartchainCluster.
    single: bool = False
    n_shards: int = 3
    n_validators: int = 4
    max_block_txs: int = 8
    #: Give every node and 2PC agent a real persistence stack (SimDisk +
    #: WAL + snapshots), enabling the crash-restart fault family and the
    #: wal_prefix_durability invariant.  False replays the pre-durability
    #: abstract storage model.
    durable: bool = True
    #: Simulated seconds each step advances the loop.
    step_duration: float = 0.05
    #: Per-step probability that a new fault starts.
    fault_rate: float = 0.12
    #: Per-step probability that a validator turns byzantine (lying
    #: behaviors from repro.consensus.byzantine, capped below n/3 per
    #: shard by the schedule).  0 replays pre-byzantine plans
    #: byte-for-byte.
    byzantine_rate: float = 0.0
    #: Per-step probability of an adversarial-client op (double submit /
    #: forged signature) instead of an honest one.
    adversarial_rate: float = 0.0
    #: Per-step probability that an elastic-resharding event starts — a
    #: live shard migration, sometimes with a crash trap armed on one of
    #: its own protocol phases (source / target / controller role).  0
    #: disables the family and replays pre-elastic plans byte-for-byte.
    elastic_rate: float = 0.0
    #: Workload mix knobs (see TraceWorkload).
    transfer_rate: float = 0.35
    conflict_rate: float = 0.10
    cross_rate: float = 0.35
    trace_total: int = 120
    n_actors: int = 12
    #: Stop at the first violation (the repro-bundle workflow) or keep
    #: going and report them all.
    fail_fast: bool = True
    max_events_per_step: int = 250_000

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "single": self.single,
            "n_shards": self.n_shards,
            "n_validators": self.n_validators,
            "max_block_txs": self.max_block_txs,
            "durable": self.durable,
            "step_duration": self.step_duration,
            "fault_rate": self.fault_rate,
            "byzantine_rate": self.byzantine_rate,
            "adversarial_rate": self.adversarial_rate,
            "elastic_rate": self.elastic_rate,
            "transfer_rate": self.transfer_rate,
            "conflict_rate": self.conflict_rate,
            "cross_rate": self.cross_rate,
            "trace_total": self.trace_total,
            "n_actors": self.n_actors,
        }


@dataclass
class ReproBundle:
    """Everything needed to replay one failure byte-identically."""

    seed: int
    failed_step: int
    sim_time: float
    invariant: str
    detail: str
    config: dict
    schedule_json: str
    #: Flight-recorder dump at the moment of failure: the bounded event
    #: ring plus the span timeline of every transaction the violation
    #: names.  Deterministic (sim-clock timestamps only), so two
    #: same-seed runs emit byte-identical bundles.
    flight: dict = field(default_factory=dict)

    def replay_command(self) -> str:
        """The exact CLI line that reproduces this failure — every knob
        that deviates from the CLI defaults is spelled out."""
        parts = [
            "PYTHONPATH=src python -m repro simtest",
            f"--seed {self.config['seed']}",
            f"--steps {self.config['steps']}",
        ]
        defaults = SimtestConfig()
        if self.config.get("single"):
            parts.append("--single")
        if self.config.get("n_shards") != defaults.n_shards:
            parts.append(f"--shards {self.config['n_shards']}")
        if self.config.get("n_validators") != defaults.n_validators:
            parts.append(f"--validators {self.config['n_validators']}")
        if self.config.get("fault_rate") != defaults.fault_rate:
            parts.append(f"--fault-rate {self.config['fault_rate']}")
        if self.config.get("byzantine_rate", 0.0) != defaults.byzantine_rate:
            parts.append(f"--byzantine-rate {self.config['byzantine_rate']}")
        if self.config.get("adversarial_rate", 0.0) != defaults.adversarial_rate:
            parts.append(f"--adversarial-rate {self.config['adversarial_rate']}")
        if self.config.get("elastic_rate", 0.0) != defaults.elastic_rate:
            parts.append(f"--elastic-rate {self.config['elastic_rate']}")
        if not self.config.get("durable", True):
            parts.append("--volatile")
        return " ".join(parts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "failed_step": self.failed_step,
                "sim_time": round(self.sim_time, 6),
                "invariant": self.invariant,
                "detail": self.detail,
                "config": self.config,
                "schedule": json.loads(self.schedule_json),
                "replay": self.replay_command(),
                "flight": self.flight,
            },
            sort_keys=True,
            indent=2,
        )


@dataclass
class SimReport:
    """Outcome of one harness run."""

    seed: int
    steps_run: int
    violations: list[Violation]
    schedule: Schedule
    step_log: list[str] = field(default_factory=list)
    invariant_log: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    bundle: ReproBundle | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


class SimHarness:
    """Seeded chaos runs over a sharded (or single) deployment."""

    def __init__(self, config: SimtestConfig | None = None):
        self.config = config or SimtestConfig()
        cfg = self.config
        self.rng = SeededRng(cfg.seed)
        durability = DurabilityConfig() if cfg.durable else None
        # Chaos runs trace every transaction: when an invariant trips, the
        # repro bundle must carry the failing transaction's full span
        # timeline, not a 1-in-64 sample of it.
        if cfg.single:
            cluster = SmartchainCluster(
                ClusterConfig(
                    n_validators=cfg.n_validators,
                    seed=cfg.seed,
                    consensus=tendermint_config(max_block_txs=cfg.max_block_txs),
                    durability=durability,
                    trace_sample_rate=1.0,
                )
            )
        else:
            cluster = ShardedCluster(
                ShardedClusterConfig(
                    n_shards=cfg.n_shards,
                    n_validators=cfg.n_validators,
                    seed=cfg.seed,
                    max_block_txs=cfg.max_block_txs,
                    durability=durability,
                    trace_sample_rate=1.0,
                )
            )
        self.plane = FaultPlane(cluster)
        self.schedule = ScheduleGenerator(
            self.rng,
            self.plane,
            cfg.fault_rate,
            byzantine_rate=cfg.byzantine_rate,
            elastic_rate=cfg.elastic_rate,
        ).generate(cfg.steps)
        self.workload = TraceWorkload(
            self.plane,
            self.rng,
            trace_total=cfg.trace_total,
            n_actors=cfg.n_actors,
            transfer_rate=cfg.transfer_rate,
            conflict_rate=cfg.conflict_rate,
            cross_rate=cfg.cross_rate,
            adversarial_rate=cfg.adversarial_rate,
        )
        self.checker = InvariantChecker(self.plane)
        # Phase traps: armed by the schedule, sprung by the agents.
        self._armed_phase: str | None = None
        #: Like ``_armed_phase``, but the sprung fault is a full
        #: crash-restart-from-disk of the agent (not a plain crash).
        self._armed_restart_phase: str | None = None
        #: Armed migrate_trap spec ("<phase>:<role>") — sprung by the
        #: next live migration entering that phase.
        self._armed_migrate: str | None = None
        self._trap_crashed: list[str] = []
        self._trap_log: list[str] = []
        self.plane.register_phase_listener(self._on_phase)
        self.plane.register_migration_listener(self._on_migration_phase)

    # -- phase traps -------------------------------------------------------------

    def _on_phase(self, shard_id: str, phase: str, tx_id: str) -> None:
        if self._armed_restart_phase == phase and not self.plane.coordinator_crashed(
            shard_id
        ):
            self._armed_restart_phase = None
            torn = self.rng.randint("trap:torn", 0, 48)
            self._trap_log.append(
                f"restart trap sprung t={self.plane.now:.6f} shard={shard_id} "
                f"phase={phase} tx={tx_id[:8]} torn={torn}"
            )
            # Restart through the loop: the agent finishes its current
            # handler, then dies and is rebuilt purely from its SimDisk —
            # for phase "prepared" that lands exactly between 2PC prepare
            # and decision.
            self.plane.loop.schedule_in(
                0.0,
                lambda: self.plane.crash_restart_coordinator(shard_id, torn),
            )
            return
        if self._armed_phase != phase:
            return
        if self.plane.coordinator_crashed(shard_id):
            return
        self._armed_phase = None
        self._trap_crashed.append(shard_id)
        self._trap_log.append(
            f"trap sprung t={self.plane.now:.6f} shard={shard_id} "
            f"phase={phase} tx={tx_id[:8]}"
        )
        # Crash through the loop, not synchronously: the agent must finish
        # its current handler (a real crash interrupts *between* steps of
        # the simulation, never mid-callback).
        self.plane.loop.schedule_in(
            0.0, lambda: self.plane.crash_coordinator(shard_id)
        )

    def _on_migration_phase(self, migration_id: str, phase: str) -> None:
        armed = self._armed_migrate
        if armed is None:
            return
        trap_phase, _, role = armed.partition(":")
        if trap_phase != phase:
            return
        migrator = self.plane.migrator
        migration = migrator.migrations.get(migration_id) if migrator else None
        if migration is None:
            return
        if role == "controller" and migrator.durability is None:
            return
        self._armed_migrate = None
        torn = self.rng.randint("migrate-trap:torn", 0, 48)
        self._trap_log.append(
            f"migrate trap sprung t={self.plane.now:.6f} "
            f"migration={migration_id} phase={phase} role={role} torn={torn}"
        )
        source, target = migration.source, migration.target
        # Crash through the loop: the controller finishes journaling the
        # phase it just entered, then the crashed party dies — for phase
        # "cutover" that lands exactly between the forced commit-point
        # record and its application.
        self.plane.loop.schedule_in(
            0.0,
            lambda: self.plane.crash_migration_role(role, source, target, torn),
        )

    # -- fault application --------------------------------------------------------

    def _apply(self, action: FaultAction) -> str:
        kind = action.kind
        plane = self.plane
        if kind == "crash_node":
            plane.crash_node(action.shard, action.node)
        elif kind == "recover_node":
            plane.recover_node(action.shard, action.node)
        elif kind == "crash_coordinator":
            plane.crash_coordinator(action.shard)
        elif kind == "recover_coordinator":
            if plane.coordinator_crashed(action.shard):
                plane.recover_coordinator(action.shard)
        elif kind == "phase_trap":
            self._armed_phase = str(action.arg)
        elif kind == "restart_trap":
            self._armed_restart_phase = str(action.arg)
        elif kind == "migrate_trap":
            self._armed_migrate = str(action.arg)
        elif kind == "migrate":
            try:
                migration_id = plane.start_migration(action.shard, str(action.arg))
            except MigrationError as exc:
                # A refused start (conflicting migration, crashed
                # controller) is a scheduled no-op, not a failure.
                return f"{action.describe()} (refused: {exc})"
            return f"{action.describe()} id={migration_id}"
        elif kind == "crash_restart":
            plane.crash_restart(action.shard, action.node, int(action.arg or 0))
        elif kind == "trap_clear":
            self._armed_phase = None
            self._armed_restart_phase = None
            self._armed_migrate = None
            for shard_id in self._trap_crashed:
                if plane.coordinator_crashed(shard_id):
                    plane.recover_coordinator(shard_id)
            self._trap_crashed.clear()
        elif kind == "partition":
            plane.partition_minority(action.shard)
        elif kind == "heal":
            plane.heal(action.shard)
        elif kind == "net_delay":
            plane.set_chaos_delay(action.shard, float(action.arg))
        elif kind == "net_calm":
            plane.set_chaos_delay(action.shard, 0.0)
        elif kind == "time_jump":
            plane.time_jump(float(action.arg))
        elif kind == "burst":
            return self.workload.burst(int(action.arg))
        elif kind in BYZANTINE_BEHAVIORS:
            plane.mark_byzantine(action.shard, action.node, BYZANTINE_BEHAVIORS[kind])
        elif kind == "byz_heal":
            plane.heal_byzantine(action.shard, action.node)
        else:
            raise ValueError(f"unknown fault action {kind!r}")
        return action.describe()

    # -- the run -------------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        report = SimReport(
            seed=cfg.seed, steps_run=0, violations=[], schedule=self.schedule
        )
        for step in range(cfg.steps):
            fault_notes = [self._apply(action) for action in self.schedule.at(step)]
            op_note = self.workload.step()
            self.plane.run_slice(cfg.step_duration, cfg.max_events_per_step)
            self.workload.poll()
            violations = self.checker.check_step(step)
            report.steps_run = step + 1
            fault_field = ";".join(fault_notes) if fault_notes else "-"
            report.step_log.append(
                f"step={step:04d} t={self.plane.now:.6f} "
                f"fault=[{fault_field}] op=[{op_note}]"
            )
            for violation in violations:
                report.invariant_log.append("VIOLATION " + violation.describe())
            report.violations.extend(violations)
            if violations and cfg.fail_fast:
                break
        quiesce_step = report.steps_run
        # Disarm any trap whose trap_clear fell past the horizon: quiesce
        # emits decided/done phases while repairing, and a trap springing
        # *during* repair would fail the quiesce invariants on a healthy
        # system.  (quiesce itself recovers already-sprung crashes.)
        self._armed_phase = None
        self._armed_restart_phase = None
        self._armed_migrate = None
        self._trap_crashed.clear()
        if not (report.violations and cfg.fail_fast):
            self.plane.quiesce()
            self.workload.poll()
            quiesce_violations = self.checker.check_quiesce(quiesce_step)
            for violation in quiesce_violations:
                report.invariant_log.append("VIOLATION " + violation.describe())
            report.violations.extend(quiesce_violations)
        report.invariant_log.extend(self._trap_log)
        for name in sorted(self.checker.checks_run):
            report.invariant_log.append(
                f"checked {name} x{self.checker.checks_run[name]}"
            )
        report.stats = {
            "workload": dict(self.workload.stats),
            "rejections": dict(self.workload.rejections.most_common()),
            "sim_time": round(self.plane.now, 6),
            "events": self.plane.loop.processed,
            "invariants_registered": len(self.checker.applicable("step"))
            + len(self.checker.applicable("quiesce")),
        }
        migrator = self.plane.migrator
        if migrator is not None:
            report.stats["reshard"] = dict(migrator.stats)
        if report.violations:
            first = report.violations[0]
            report.bundle = ReproBundle(
                seed=cfg.seed,
                failed_step=first.step,
                sim_time=first.sim_time,
                invariant=first.invariant,
                detail=first.detail,
                config=cfg.to_dict() | {"steps": cfg.steps},
                schedule_json=self.schedule.to_json(),
                flight=self._flight_dump(first),
            )
        return report

    def _flight_dump(self, violation: Violation) -> dict:
        """Flight-recorder state for the repro bundle: the event ring plus
        the complete span timeline of every transaction the violation's
        detail string names (full ids or the 8-char prefixes the
        invariant messages use)."""
        telemetry = self.plane.cluster.telemetry
        tracer = telemetry.tracer
        detail = f"{violation.invariant} {violation.detail}"
        implicated = [
            tx_id
            for tx_id in tracer.trace_ids()
            if tx_id in detail or tx_id[:8] in detail
        ]
        return {
            "events": telemetry.flight.dump(),
            "dropped": telemetry.flight.dropped,
            "traces": {tx_id: tracer.timeline(tx_id) for tx_id in implicated},
        }


