"""Deterministic randomness for simulations and workloads.

Every stochastic choice (receiver-node selection, network jitter, workload
payload sizes) flows through a named, seeded stream so that experiments are
exactly reproducible and independent subsystems don't perturb each other's
sequences when one of them draws more numbers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A master seed fanning out independent named streams."""

    def __init__(self, seed: int = 2024):
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Named, independently seeded ``random.Random`` instance."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha3_256(f"{self._seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Draw one element from ``options`` on the named stream."""
        return self.stream(name).choice(list(options))

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform float on the named stream."""
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform int (inclusive) on the named stream."""
        return self.stream(name).randint(low, high)

