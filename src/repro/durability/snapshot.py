"""Incremental checkpoints: bound recovery replay and let the WAL compact.

A checkpoint is one file holding one frame — the same length-prefixed
CRC-checksummed canonical-JSON format the WAL uses: a **base**
(``{"lsn": n, "state": s}``, a node's whole durable state) or a
**delta** (``{"lsn": n, "prev": p, "state": s}``, what changed since the
checkpoint at ``p``), as ARIES-style incremental checkpoints.  Both have
one state shape (:func:`repro.durability.recovery.checkpoint_state`), so
recovery folds a chain base-first with one loader.  A new base is
written when the deltas since the current one outweigh it twice over, so
a chain is at most three times its base and rewrites of the whole state
stay geometrically rare as it grows.

The write protocol is crash-safe without any atomic-rename machinery:

1. write + sync the new checkpoint file ``snap-<lsn>``;
2. only then, for a base, delete the older files;
3. only then retire WAL segments wholly covered by ``lsn``.

A power failure between any two steps leaves the old chain or both;
:meth:`SnapshotManager.chain` skips any file whose frame fails its
checksum (a torn write) and follows ``prev`` links down to a base, so
recovery always finds the newest *whole* chain.

The state arrives **already encoded**, as byte pieces spliced from bytes
made once per document, block and certificate, which the frame hands to
the device by reference (:func:`~repro.durability.wal.frame_pieces`): a
delta costs the encoding of what changed and one CRC pass over it,
whatever the size of the state.  The file equals ``encode_frame`` of the
dict frame it decodes to.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.durability.wal import (
    StorageBackend,
    frame_pieces,
    iter_frames,
    single_frame_body,
)


class SnapshotManager:
    """Checkpoint files on the same device as the WAL they compact."""

    def __init__(self, disk: StorageBackend, prefix: str = "snap"):
        self.disk = disk
        self.prefix = prefix
        self.stats = {"taken": 0, "bases": 0, "skipped_invalid": 0}
        #: LSN of the chain's newest checkpoint (None: the next is a
        #: base), and the bytes of its base and of the deltas since.
        self.head: int | None = None
        self.base_bytes = 0
        self.delta_bytes = 0

    def _name(self, lsn: int) -> str:
        return f"{self.prefix}-{lsn:012d}.snap"

    def _candidates(self) -> list[tuple[int, str]]:
        found = []
        marker = f"{self.prefix}-"
        for name in self.disk.list():
            if name.startswith(marker) and name.endswith(".snap"):
                try:
                    lsn = int(name[len(marker) : -5])
                except ValueError:
                    continue
                found.append((lsn, name))
        return sorted(found)

    def base_due(self) -> bool:
        """Must the next checkpoint be a base?"""
        return self.head is None or self.delta_bytes > 2 * self.base_bytes

    def covers(self, lsn: int) -> bool:
        """Is the chain's head a whole checkpoint at ``lsn`` (nothing to
        take again)?  A torn head is deleted and forgotten, so the next
        checkpoint is a base.  The file is judged by frame length,
        checksum and its ``{"lsn":N,`` opening, not decoded."""
        if self.head != lsn:
            return False
        name = self._name(lsn)
        if name in self.disk.list():
            body = single_frame_body(self.disk.read(name))
            if body is not None and body.startswith(b'{"lsn":%d,' % lsn):
                return True
            self.disk.delete(name)
        self.head = None
        return False

    def take(self, state: Sequence[bytes], upto_lsn: int, base: bool = True) -> str:
        """Durably write ``state`` (canonical JSON, in pieces the device
        receives as they are) as a base or as a delta on the chain's head
        covering ``upto_lsn``, replacing any file of that name; a synced
        base deletes the older files."""
        name = self._name(upto_lsn)
        existing = self._candidates()
        if any(found_name == name for _, found_name in existing):
            self.disk.delete(name)
        link = b"" if base else b'"prev":%d,' % self.head
        pieces = frame_pieces(b'{"lsn":%d,%s"state":' % (upto_lsn, link), *state, b"}")
        self.disk.append(name, *pieces)
        self.disk.sync(name)
        size = sum(map(len, pieces))
        if base:
            for _, old_name in existing:
                if old_name != name:
                    self.disk.delete(old_name)
            self.base_bytes, self.delta_bytes = size, 0
            self.stats["bases"] += 1
        else:
            self.delta_bytes += size
        self.head = upto_lsn
        self.stats["taken"] += 1
        return name

    def chain(self) -> list[tuple[int, dict[str, Any], int]]:
        """The newest whole checkpoint chain, base first, as ``(lsn,
        state, file bytes)`` per file.  Torn or corrupt files are skipped
        (never deleted here — recovery is a read path)."""
        frames: dict[int, tuple[dict[str, Any], int]] = {}
        for lsn, name in self._candidates():
            data = self.disk.read(name)
            found = list(iter_frames(data))
            if len(found) == 1 and found[0].get("lsn") == lsn:
                frames[lsn] = (found[0], len(data))
            else:
                self.stats["skipped_invalid"] += 1
        for head in sorted(frames, reverse=True):
            chain, lsn = [], head
            while lsn in frames:
                frame, size = frames[lsn]
                chain.append((lsn, frame["state"], size))
                if "prev" not in frame:
                    return chain[::-1]
                lsn = frame["prev"]
        return []

    def adopt(self, chain: list[tuple[int, dict[str, Any], int]]) -> None:
        """Extend ``chain`` (what recovery loaded) from now on."""
        self.head = chain[-1][0] if chain else None
        self.base_bytes = chain[0][2] if chain else 0
        self.delta_bytes = sum(size for _, _, size in chain[1:])
