"""The option half of ``benchmarks/census.py``, in tier-1.

A ``*Config`` / ``*Policy`` field that no caller in ``src/``,
``benchmarks/`` or ``examples/`` sets away from its default is a knob
nobody turns: it must either become a module constant or carry a reason
in ``census.KEPT_OPTIONS``.  This fails before merge on a new one.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "benchmarks" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _census()


def test_every_one_value_option_has_a_reason():
    unexplained = [name for name, reason in census.one_value_options() if reason is None]
    assert unexplained == []


def test_one_value_options_stay_within_the_ratchet():
    assert len(census.one_value_options()) <= census.MAX_ONE_VALUE_OPTIONS <= 20


def test_no_reason_outlives_its_option():
    one_valued = {name for name, _ in census.one_value_options()}
    assert sorted(set(census.KEPT_OPTIONS) - one_valued) == []


def test_the_census_sees_callers_and_defaults():
    values = census.option_census()
    # Set by benchmarks/e2e and the figure benches; one default only here.
    assert len(values["ClusterConfig"]["n_validators"]) > 1
    assert values["SimtestConfig"]["fail_fast"] == {"True"}
    assert "ShardedClusterConfig" in values and "MigrationPolicy" in values


def test_every_harness_bound_name_resolves():
    assert census.unbound_harness_names() == []


DEF_NAMES = [dotted for dotted, _, _, _ in census.defs_under()]


@pytest.mark.parametrize("prefix", sorted(census.KEPT_DEFS))
def test_every_kept_def_reason_names_code_that_exists(prefix):
    """The static half of ``--check``'s stale-reason finding: a reason
    whose def was deleted or renamed fails here, without the profiler."""
    assert any(name == prefix or name.startswith(prefix + ".") for name in DEF_NAMES)


#: The one-value options that became module constants or were fixed at
#: their default, and the fields that held a demoted class.
DEMOTED_OPTIONS = [
    "CoordinatorConfig.inter_shard_delay",
    "CoordinatorConfig.prepare_timeout",
    "CoordinatorConfig.lock_timeout",
    "CoordinatorConfig.retry_interval",
    "CoordinatorConfig.max_retries",
    "MigrationConfig.chunk_size",
    "MigrationConfig.tick_interval",
    "MigrationConfig.tail_lag_target",
    "MigrationConfig.max_tail_rounds",
    "MigrationConfig.max_drain_rounds",
    "MigrationConfig.max_stall_ticks",
    "MigrationConfig.max_plan_txs",
    "ShardedClusterConfig.submit_retry_delay",
    "ShardedClusterConfig.submit_max_retries",
    "ShardedClusterConfig.coordinator",
    "ShardedClusterConfig.migration",
    "ClusterConfig.validation_lanes",
    "ClusterConfig.indexed_storage",
    "MigrationPolicy.grow",
    "ClusterConfig.telemetry_enabled",
    "ShardedClusterConfig.telemetry_enabled",
]


def test_no_demoted_option_is_settable_again():
    fields = {name: dict(found) for name, found in census.option_classes().items()}
    settable = [
        option for option in DEMOTED_OPTIONS
        if option.split(".")[1] in fields.get(option.split(".")[0], {})
    ]
    assert settable == []
