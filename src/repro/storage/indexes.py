"""Secondary indexes for the document store.

Two kinds, mirroring what the SmartchainDB deployment needs:

* :class:`HashIndex` — O(1) point lookups on an exact value (transaction
  id, ``asset.id``, output public keys...).  Optionally unique.
* :class:`SortedIndex` — a two-level blocked sorted structure supporting
  ordered range scans (block heights, timestamps) with amortised
  O(sqrt(n)) inserts and removals instead of the O(n) ``list.insert``
  memmove a single flat list costs.

Index keys are extracted with the same dotted-path, array-fanning rules as
query evaluation, so an index on ``outputs.public_keys`` indexes a document
under *every* key appearing in any output; each index compiles its path once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.common.errors import DuplicateKeyError
from repro.storage.compiler import compile_resolver

#: Shared empty lookup result — callers treat lookups as read-only views.
_EMPTY_IDS: tuple[int, ...] = ()


def _index_keys(values: list[Any]) -> set[Any]:
    """All hashable key values among a document's resolved ``values``."""
    keys: set[Any] = set()
    for value in values:
        if isinstance(value, list):
            for element in value:
                if not isinstance(element, (dict, list)):
                    keys.add(element)
        elif not isinstance(value, dict):
            keys.add(value)
    return keys


class HashIndex:
    """Exact-match index mapping key value -> ids of the documents under it.

    Most keys (a transaction id, an output reference, a block height) hold
    one document for life, so a bucket of one id is a 1-tuple and becomes
    a ``set`` — four times the bytes — only when a second id arrives, and
    a 1-tuple again when removals leave it one id.
    """

    def __init__(self, path: str, unique: bool = False):
        self.path = path
        self.unique = unique
        self._resolve = compile_resolver(path)
        self._buckets: dict[Any, tuple[int] | set[int]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def add(self, doc_id: int, document: Any) -> None:
        """Index ``document`` under ``doc_id``.

        Raises:
            DuplicateKeyError: if unique and a key value is already taken.
        """
        keys = _index_keys(self._resolve(document))
        buckets = self._buckets
        if self.unique:
            for key in keys:
                bucket = buckets.get(key)
                if bucket and doc_id not in bucket:
                    raise DuplicateKeyError(
                        f"duplicate value {key!r} for unique index on {self.path!r}"
                    )
        for key in keys:
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = (doc_id,)
            elif type(bucket) is set:
                bucket.add(doc_id)
            elif bucket[0] != doc_id:
                buckets[key] = {bucket[0], doc_id}

    def remove(self, doc_id: int, document: Any) -> None:
        """Drop a document from the index."""
        buckets = self._buckets
        for key in _index_keys(self._resolve(document)):
            bucket = buckets.get(key)
            if type(bucket) is set:
                bucket.discard(doc_id)
                if len(bucket) == 1:
                    buckets[key] = tuple(bucket)
            elif bucket is not None and bucket[0] == doc_id:
                del buckets[key]

    def lookup(self, key: Any) -> tuple[int, ...] | set[int]:
        """Document ids stored under ``key`` — a *read-only view*, not a copy.

        The result is the index's live bucket (a 1-tuple or a set) or a
        shared empty tuple: sized and iterable, nothing more, and never to
        be mutated.  A removal shrinks a set in place before the bucket is
        swapped for a 1-tuple, so a caller that may mutate the collection
        while iterating must copy by *type*, not by size:
        ``Collection._plan`` sorts every set into its own candidate
        list and walks a tuple as it stands (a tuple cannot change under
        it).  No allocation happens on the probe itself.
        """
        bucket = self._buckets.get(key)
        return bucket if bucket is not None else _EMPTY_IDS

    def contains_key(self, key: Any) -> bool:
        return key in self._buckets


class SortedIndex:
    """Ordered index over a single comparable field; supports range scans.

    Entries are kept in blocks of at most ``2 * LOAD`` (key, id) pairs
    (parallel lists), with a ``_maxes`` summary list holding each block's
    largest key.  Point operations bisect ``_maxes`` to find the block,
    then bisect inside it — so an insert shifts at most one block's worth
    of entries instead of the whole index, the classic two-level sorted
    list giving amortised O(sqrt(n)) updates while range scans stay a
    simple in-order walk.

    Duplicate keys preserve insertion order (inserts land after the
    existing equal-key run), matching the previous flat implementation.
    """

    #: Half the maximum block size; blocks split once they exceed 2*LOAD.
    LOAD = 512

    def __init__(self, path: str):
        self.path = path
        self._resolve = compile_resolver(path)
        self._key_blocks: list[list[Any]] = []
        self._id_blocks: list[list[int]] = []
        self._maxes: list[Any] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length

    # -- internals -----------------------------------------------------------

    def _insert(self, key: Any, doc_id: int) -> None:
        maxes = self._maxes
        if not maxes:
            self._key_blocks.append([key])
            self._id_blocks.append([doc_id])
            maxes.append(key)
            self._length = 1
            return
        # First block whose max is > key keeps equal keys in arrival order;
        # keys beyond every max go into the last block.
        position = bisect_right(maxes, key)
        if position == len(maxes):
            position -= 1
        keys = self._key_blocks[position]
        ids = self._id_blocks[position]
        offset = bisect_right(keys, key)
        keys.insert(offset, key)
        ids.insert(offset, doc_id)
        if offset == len(keys) - 1:
            maxes[position] = keys[-1]
        self._length += 1
        if len(keys) > 2 * self.LOAD:
            half = len(keys) // 2
            self._key_blocks[position : position + 1] = [keys[:half], keys[half:]]
            self._id_blocks[position : position + 1] = [ids[:half], ids[half:]]
            maxes[position : position + 1] = [keys[half - 1], keys[-1]]

    def _delete(self, key: Any, doc_id: int) -> None:
        """Remove one ``(key, doc_id)`` entry if present."""
        maxes = self._maxes
        position = bisect_left(maxes, key)
        while position < len(maxes):
            keys = self._key_blocks[position]
            if keys and keys[0] > key:
                return
            ids = self._id_blocks[position]
            left = bisect_left(keys, key)
            right = bisect_right(keys, key)
            for offset in range(left, right):
                if ids[offset] == doc_id:
                    del keys[offset]
                    del ids[offset]
                    self._length -= 1
                    if not keys:
                        del self._key_blocks[position]
                        del self._id_blocks[position]
                        del maxes[position]
                    else:
                        maxes[position] = keys[-1]
                    return
            if right < len(keys):
                # The equal-key run ended inside this block: not present.
                return
            position += 1

    # -- public API ----------------------------------------------------------

    def add(self, doc_id: int, document: Any) -> None:
        """Insert every comparable value the document exposes at the path."""
        for key in _index_keys(self._resolve(document)):
            if isinstance(key, bool) or not isinstance(key, (int, float, str)):
                continue
            self._insert(key, doc_id)

    def remove(self, doc_id: int, document: Any) -> None:
        """Remove this document's entries (one per distinct key value)."""
        for key in _index_keys(self._resolve(document)):
            if isinstance(key, bool) or not isinstance(key, (int, float, str)):
                continue
            self._delete(key, doc_id)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Yield document ids with keys inside the given bounds, in order."""
        maxes = self._maxes
        if not maxes:
            return
        if low is None:
            position = 0
            offset = 0
        else:
            position = (
                bisect_left(maxes, low) if include_low else bisect_right(maxes, low)
            )
            if position >= len(maxes):
                return
            keys = self._key_blocks[position]
            offset = (
                bisect_left(keys, low) if include_low else bisect_right(keys, low)
            )
        while position < len(self._key_blocks):
            keys = self._key_blocks[position]
            ids = self._id_blocks[position]
            if high is None:
                stop = len(keys)
            elif include_high:
                stop = bisect_right(keys, high)
            else:
                stop = bisect_left(keys, high)
            for index in range(offset, stop):
                yield ids[index]
            if stop < len(keys):
                return
            position += 1
            offset = 0

