"""Deterministic chaos testing (simulation testing) for the deployment.

FoundationDB-style DST over the simulated cluster: one seed generates a
fault schedule (crashes, partitions, delays, 2PC phase traps) and a
workload trace, an invariant registry judges every step, and failures
ship as replayable ``(seed, schedule, invariant)`` bundles.

Entry points::

    from repro.simtest import SimHarness, SimtestConfig
    report = SimHarness(SimtestConfig(seed=7, steps=500)).run()

or from the shell::

    python -m repro simtest --seed 7 --steps 500
"""

from repro.simtest.harness import ReproBundle, SimHarness, SimReport, SimtestConfig
from repro.simtest.invariants import (
    DEFAULT_INVARIANTS,
    Invariant,
    InvariantChecker,
    Violation,
)
from repro.simtest.plane import FaultPlane
from repro.simtest.schedule import FaultAction, Schedule, ScheduleGenerator
from repro.simtest.workload import TraceWorkload

__all__ = [
    "DEFAULT_INVARIANTS",
    "FaultAction",
    "FaultPlane",
    "Invariant",
    "InvariantChecker",
    "ReproBundle",
    "Schedule",
    "ScheduleGenerator",
    "SimHarness",
    "SimReport",
    "SimtestConfig",
    "TraceWorkload",
    "Violation",
]
