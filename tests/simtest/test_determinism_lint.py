"""Source-level determinism audit.

The ISSUE-3 audit of bare ``random`` / ``time.time()`` usage found every
stochastic choice already routed through ``sim.rng`` / ``sim.Clock``
(the PR 1/2 refactors left nothing loose).  This lint pins that state:
any future module that reaches for wall-clock time or process-global
randomness — either of which would silently break seeded replay — fails
tier-1 instead of surfacing as an unreproducible chaos run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules allowed to *touch* the stdlib ``random`` module: the seeded
#: fan-out wrapper itself, and the one module that type-annotates
#: ``random.Random`` parameters fed from it.
RANDOM_IMPORT_ALLOWLIST = {"sim/rng.py", "workloads/generator.py"}

#: Modules allowed to *call* ``random.*`` functions (constructing the
#: seeded streams counts; drawing from the global RNG never does).
RANDOM_CALL_ALLOWLIST = {"sim/rng.py"}

#: Wall-clock sources that would desynchronise replay.
FORBIDDEN_MODULES = {"time", "datetime"}


def _modules() -> list[tuple[str, ast.AST]]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        out.append((rel, ast.parse(path.read_text(), filename=rel)))
    return out


class TestNoWallClock:
    def test_no_time_or_datetime_imports_anywhere(self):
        offenders = []
        for rel, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {(node.module or "").split(".")[0]}
                else:
                    continue
                if names & FORBIDDEN_MODULES:
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == [], (
            "wall-clock imports break seeded replay; route timing through "
            f"sim.Clock instead: {offenders}"
        )


class TestNoGlobalRandomness:
    def test_random_imports_are_allowlisted(self):
        offenders = []
        for rel, tree in _modules():
            if rel in RANDOM_IMPORT_ALLOWLIST:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) and any(
                    alias.name == "random" for alias in node.names
                ):
                    offenders.append(f"{rel}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and node.module == "random":
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == [], (
            "draw through a named SeededRng stream instead of importing "
            f"random: {offenders}"
        )

    def test_no_calls_into_the_global_random_module(self):
        offenders = []
        for rel, tree in _modules():
            if rel in RANDOM_CALL_ALLOWLIST:
                continue
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random"
                ):
                    offenders.append(f"{rel}:{node.lineno} random.{node.func.attr}()")
        assert offenders == [], f"global-RNG calls are nondeterministic: {offenders}"

    def test_audited_modules_stay_clean(self):
        """Modules past issues singled out draw nothing globally — now
        including the crypto/batching fast path (ISSUE 4): batch-verify
        coefficients must come from a passed-in seeded stream (or
        deterministic hashing), never process-global randomness — and
        the durability layer (ISSUE 5): replaying a SimDisk must be
        byte-identical, so WAL frames, flush timing and snapshot cadence
        may draw on nothing but the injected event loop — and the
        byzantine fault family (ISSUE 6): liars, adversarial clients and
        corruption schedules must themselves replay byte-for-byte, or a
        repro bundle of a safety violation is worthless — and the
        telemetry layer (ISSUE 7): every histogram sample, span event and
        flight-recorder entry is stamped from the injected sim clock, so
        the observability plane replays as deterministically as the data
        plane it watches."""
        for rel in (
            "sharding/coordinator.py",
            "consensus/mempool.py",
            "consensus/bft.py",
            "crypto/ed25519.py",
            "crypto/sigcache.py",
            "crypto/keys.py",
            "core/validation.py",
            "durability/wal.py",
            "durability/commitlog.py",
            "durability/snapshot.py",
            "durability/recovery.py",
            "durability/node.py",
            "consensus/byzantine.py",
            "simtest/workload.py",
            "simtest/schedule.py",
            "simtest/plane.py",
            "telemetry/__init__.py",
            "telemetry/registry.py",
            "telemetry/tracing.py",
            "telemetry/flight.py",
        ):
            source = (SRC / rel).read_text()
            assert "import random" not in source, rel
            assert "time.time(" not in source, rel


class TestDurabilityTimingIsLoopInjected:
    """ISSUE 5: group-commit flush timing comes only from the injected
    event loop — the durability layer schedules nothing it wasn't given."""

    def test_commitlog_schedules_only_through_the_injected_loop(self):
        tree = ast.parse((SRC / "durability" / "commitlog.py").read_text())
        schedulers = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("schedule_in", "schedule_at")
            ):
                # Must be self._loop.schedule_*(...): an attribute access
                # on the injected loop, never a module-level scheduler.
                target = node.func.value
                assert isinstance(target, ast.Attribute), ast.dump(node)
                assert target.attr == "_loop", ast.dump(node)
                schedulers.append(node.func.attr)
        assert schedulers, "the flush must be scheduled through the loop"

    def test_durability_package_has_no_scheduling_outside_commitlog(self):
        """wal/snapshot/recovery are pure byte and state transforms: any
        timing decision belongs to the commit log (or the owner)."""
        for rel in ("wal.py", "snapshot.py", "recovery.py"):
            tree = ast.parse((SRC / "durability" / rel).read_text())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule_in", "schedule_at")
                ):
                    raise AssertionError(
                        f"durability/{rel} schedules events; timing belongs "
                        "to commitlog.py"
                    )
