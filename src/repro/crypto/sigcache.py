"""Cluster-wide signature-verification cache.

An Ed25519 verdict is a pure function of ``(public_key, message,
signature)`` — there is nothing node-local about it.  Yet the replicated
pipeline meets the same triple many times: the admission memo settles a
payload's own signatures once per process, but every replica checks a
TRANSFER's fulfillments against the spent outputs' conditions again, and
every consumer of a commit certificate (a catch-up receiver, a shard
shipping or admitting cross-shard evidence) checks precommits another
node may have settled.  This module holds one bounded LRU of verdicts
shared by every simulated node in the process, so a triple one node
already verified costs the others a dictionary lookup.

Keys are ``(public_key, sha3-256(message), signature)``.  The message is
folded to its digest so the key stays small for large payloads; the full
signature and key stay in the key, so a forged signature or a swapped key
can never alias a cached verdict.  Both positive and negative verdicts are
cached — both are pure.

The shared instance is process-global on purpose: a "cluster" here is
many simulated nodes in one interpreter, and sharing the cache across
them is exactly the cross-replica amortisation the batching pipeline is
after.  Tests and benchmarks that need isolation swap the instance with
:func:`set_shared_cache` (or pass ``cache=None`` to the verify helpers).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable


class SignatureCache:
    """Bounded LRU of signature-verification verdicts.

    Args:
        maxsize: resident entry bound; the least recently used entry is
            evicted beyond it.  An evicted signature simply gets
            re-verified on next sight — eviction can never flip a verdict.
    """

    def __init__(self, maxsize: int = 65_536):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(public_key: Hashable, message: bytes, signature: Hashable) -> tuple:
        """Cache key for a triple; the message is folded to its digest."""
        return (public_key, hashlib.sha3_256(message).digest(), signature)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> bool | None:
        """Cached verdict for a :meth:`key`, or ``None`` on a miss."""
        verdict = self._entries.get(key)
        if verdict is None:  # only True/False are ever stored
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return verdict

    def put(self, key: tuple, verdict: bool) -> None:
        """Record a verdict, evicting the oldest entry past the bound."""
        self._entries[key] = verdict
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1


_shared: SignatureCache | None = SignatureCache()


def shared_cache() -> SignatureCache | None:
    """The process-wide cache every node consults (``None`` = disabled)."""
    return _shared


def set_shared_cache(cache: SignatureCache | None) -> SignatureCache | None:
    """Swap the shared cache (pass ``None`` to disable); returns the old one."""
    global _shared
    previous = _shared
    _shared = cache
    return previous
