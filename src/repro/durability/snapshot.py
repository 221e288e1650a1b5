"""Checkpoints: bound recovery replay and let the WAL compact.

A snapshot is one frame — the same length-prefixed CRC-checksummed
canonical-JSON format the WAL uses — holding a full dump of a node's
durable state (collections, applied chain, consensus lock) plus the LSN
it covers.  The write protocol is crash-safe without any atomic-rename
machinery:

1. write + sync the new snapshot file ``snap-<lsn>``;
2. only then delete older snapshots;
3. only then retire WAL segments wholly covered by ``lsn``.

A power failure between any two steps leaves either the old snapshot or
both; :meth:`SnapshotManager.latest` walks candidates newest-first and
skips any whose frame fails its checksum (a torn snapshot write), so
recovery always finds the newest *valid* checkpoint and replays the WAL
suffix from there.

The state arrives **already encoded**, as byte pieces: the owner splices
it from bytes made once per document, block and certificate when their
journal records were built
(:meth:`repro.storage.collection.Collection.encoded_documents`,
``Validator.consensus_snapshot``), so a checkpoint costs the encoding of
what changed since the last one plus a join per collection, one CRC pass
and one copy into the frame — not a deep copy and a ``json.dumps`` of the
whole state.  The contract is byte identity: the file equals
``encode_frame({"lsn": n, "state": s})`` for the dict state ``s`` those
bytes decode to, which is what :meth:`SnapshotManager.latest` and
recovery read back.  The kept bytes cost each replica about one snapshot
file's size in memory (3.5 MB per validator at the end of the e2e
``market_reads`` run).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.durability.wal import (
    StorageBackend,
    frame_payload,
    iter_frames,
    single_frame_body,
)


class SnapshotManager:
    """Snapshot files on the same device as the WAL they compact."""

    def __init__(self, disk: StorageBackend, prefix: str = "snap"):
        self.disk = disk
        self.prefix = prefix
        self.stats = {"taken": 0, "skipped_invalid": 0}

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

    def take(self, state: Sequence[bytes], upto_lsn: int) -> str:
        """Durably write a checkpoint of ``state`` covering ``upto_lsn``.

        ``state`` is the canonical JSON encoding of the state object, in
        pieces that are joined here, straight into the frame.
        Older snapshots are deleted only after the new one is synced.
        Re-taking an LSN already covered by a *valid* snapshot is a
        no-op (state is a function of the journal, so the bytes would be
        equivalent); appending to it instead would grow a multi-frame
        file :meth:`latest` rejects — losing the only checkpoint after
        its WAL segments were retired.  A torn same-LSN snapshot is
        deleted and rewritten.  The existing file is judged by frame
        length, checksum and its ``{"lsn":N,`` opening, not decoded.
        """
        name = self._name(upto_lsn)
        existing = self._candidates()
        if any(found_name == name for _, found_name in existing):
            body = single_frame_body(self.disk.read(name))
            if body is not None and body.startswith(b'{"lsn":%d,' % upto_lsn):
                return name
            self.disk.delete(name)
        self.disk.append(
            name, frame_payload(b'{"lsn":%d,"state":' % upto_lsn, *state, b"}")
        )
        self.disk.sync(name)
        for _, old_name in existing:
            if old_name != name:
                self.disk.delete(old_name)
        self.stats["taken"] += 1
        return name

    def latest(self) -> tuple[int, dict[str, Any]] | None:
        """Newest snapshot whose frame validates, or None.

        Torn or corrupt snapshot files are skipped (never deleted here —
        recovery is a read path), falling back to the next older one.
        """
        for lsn, name in reversed(self._candidates()):
            frames = list(iter_frames(self.disk.read(name)))
            if len(frames) == 1 and frames[0].get("lsn") == lsn:
                return lsn, frames[0]["state"]
            self.stats["skipped_invalid"] += 1
        return None
