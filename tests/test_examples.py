"""Every script under ``examples/`` runs to completion and says what it shows."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: One line each script prints once its use case has played out.
EXPECTED = {
    "crash_recovery_demo.py": "eventual commit (Definition 2) holds: True",
    "marketplace_analytics.py": "fraud screen findings  : 0 (clean market)",
    "quickstart.py": "rejected (double-spend caught by the platform)",
    "reverse_auction_marketplace.py": "second ACCEPT_BID on the same request -> rejected",
    "smart_contract_baseline.py": "SmartchainDB: 0 lines",
    "supply_chain_procurement.py": "warehouse holds the commitment: True",
}


def test_every_example_is_listed():
    assert sorted(path.name for path in (ROOT / "examples").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs(name):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert EXPECTED[name] in done.stdout, done.stdout[-2000:]
