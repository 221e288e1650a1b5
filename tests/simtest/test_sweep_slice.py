"""A fixed slice of the nightly chaos sweeps, in tier-1.

Twelve pinned 300-step seeds, every registered invariant asserted: four
plain chaos runs, four with live shard migrations (``--elastic-rate
0.05``) and four with lying validators and an adversarial client
(``--byzantine-rate 0.2 --adversarial-rate 0.2``).  Each is exactly
``python -m repro simtest --seed S --steps 300 <flags>``.

The elastic and byzantine seeds are not arbitrary: 110 / 123 / 141 and
7231 / 7262 / 7324 were red for several PRs (a replica delivering a
block over its own reference copy; views applying transactions a block
contained but did not deliver) while each PR certified its logs
"identical to the parent, known failures included".  With the slice in
tier-1 a known failure is a red build.
"""

import pytest

from repro.simtest import SimHarness, SimtestConfig

FAMILIES = {
    "plain": ({}, (201, 202, 203, 204)),
    "elastic": ({"elastic_rate": 0.05}, (101, 110, 123, 141)),
    "byzantine": ({"byzantine_rate": 0.2, "adversarial_rate": 0.2}, (7231, 7262, 7293, 7324)),
}


@pytest.mark.parametrize(
    "family,seed",
    [(family, seed) for family, (_, seeds) in FAMILIES.items() for seed in seeds],
)
def test_every_invariant_holds(family, seed):
    flags, _ = FAMILIES[family]
    harness = SimHarness(SimtestConfig(seed=seed, steps=300, **flags))
    report = harness.run()
    assert report.ok, [f"{v.invariant} at step {v.step}: {v.detail}" for v in report.violations]
    assert report.steps_run == 300
    # Quiesce ran the whole registry, not just the per-step slice.
    assert harness.checker.checks_run.get("mv_consistency", 0) >= 1
    assert harness.checker.checks_run.get("chain_consistency", 0) >= 1
