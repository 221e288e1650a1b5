"""Wall time, raw and rescaled to a nominal host speed.

On a shared VM the same Python code runs 20-30% faster or slower from one
second to the next (frequency steps, a busy SMT sibling, a neighbour in
the cache); measured here, that put an inter-quartile spread of 5-37% on
raw 10-second throughput figures - more than any bound worth having.  The
modes last around a second, so the benchmark measures in chunks of ~0.1 s
and runs a fixed ~2.5 ms probe after each.  ``chunk time x nominal probe /
measured probe`` is what the chunk would have taken on a host where the
probe takes ``NOMINAL_PROBE_S``; a :class:`Stopwatch` adds those up.

Every chunk counts in full - no medians or trimming across chunks, which
would be steadier still but blind to rare expensive work (a snapshot, a
view rebuild).  Raw sums are what this host happened to deliver; the
rescaled sums compare code, not the host's mood.  The probe must never
call into ``repro``: a change that sped up the code would speed up the
yardstick with it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

#: The probe's duration on the reference host in its usual mode; a host
#: whose probe takes this long reports rescaled == raw.
NOMINAL_PROBE_S = 0.003
#: Target length of one measured chunk: well under the host's mode dwell
#: time, well over the probe.
CHUNK_S = 0.1

_P = 2**255 - 19
#: A few MB of transaction-shaped documents, so the probe's second half
#: misses the cache about as the pipeline's dict-and-JSON work does.
_DOCS = [
    {
        "id": f"{i:064x}",
        "operation": "TRANSFER",
        "asset": {"id": f"{i * 7:064x}"},
        "inputs": [
            {
                "owners_before": [f"owner-{i}"],
                "fulfills": {"transaction_id": f"{i * 3:064x}", "output_index": 0},
                "fulfillment": "s" * 88,
            }
        ],
        "outputs": [{"public_keys": [f"owner-{i + 1}"], "amount": 1}],
        "metadata": {"fill": "m" * 200},
    }
    for i in range(2048)
]
_cursor = 0


def _copy(value):
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


def probe() -> float:
    """Seconds a fixed slice of interpreter work takes right now: big-int
    modular arithmetic (the signature code's diet), then canonical JSON
    and deep copies over a rotating window of documents (everyone else's)."""
    global _cursor
    started = time.perf_counter()
    x = 123456789
    for i in range(600):
        x = pow(x * x + i, 5, _P)
    for offset in range(128):
        document = _DOCS[(_cursor + offset * 37) % len(_DOCS)]
        json.dumps(document, sort_keys=True, separators=(",", ":"))
        _copy(document)
    _cursor += 128 * 37
    return time.perf_counter() - started


@dataclass
class Stopwatch:
    """Accumulates chunked measurements."""

    raw_s: float = 0.0
    norm_s: float = 0.0

    def measure(self, chunk):
        """Time ``chunk()`` (about ``CHUNK_S`` of work), then probe;
        returns what the chunk returned."""
        started = time.perf_counter()
        result = chunk()
        elapsed = time.perf_counter() - started
        self.raw_s += elapsed
        self.norm_s += elapsed * NOMINAL_PROBE_S / probe()
        return result

    def measure_until(self, step) -> None:
        """Call ``step()`` until it returns False, in measured chunks."""
        more = True

        def chunk() -> None:
            nonlocal more
            deadline = time.perf_counter() + CHUNK_S
            while more and time.perf_counter() < deadline:
                more = step()

        while more:
            self.measure(chunk)
