"""Segmented write-ahead log over a pluggable storage backend.

The log is a sequence of *frames*, each a length-prefixed,
CRC32-checksummed, canonically-encoded JSON record::

    [4B length BE][4B crc32 BE][canonical JSON payload]

Frames append to *segments* — named append-only byte files on a
:class:`StorageBackend` — and a new segment opens once the active one
passes ``segment_max_bytes``, so snapshot-driven compaction can retire
whole files instead of rewriting one unbounded log.

Two backends ship:

* :class:`SimDisk` — a deterministic in-memory device with *real crash
  semantics*: appended bytes sit in a volatile (OS page cache) buffer
  until ``sync`` makes them durable, and :meth:`SimDisk.power_fail` can
  drop the volatile tail at **any byte offset** — including mid-frame,
  the torn write every recovery path must survive.  The chaos plane
  drives it.
* :class:`FileBackend` — real files with real ``fsync``; the durability
  benchmark and any out-of-sim deployment use it.

Recovery semantics are *scan to torn tail*: :meth:`SegmentedWal.scan`
yields records until the first frame that fails its length or checksum
check, which is by construction the longest valid prefix the device
durably holds.  :meth:`SegmentedWal.repair` then truncates the torn
bytes so post-recovery appends extend the valid prefix.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterator

from repro.common.encoding import canonical_bytes, canonical_serialize

#: Bytes of frame header: 4-byte payload length + 4-byte CRC32.
FRAME_HEADER = 8

#: Consecutive parts smaller than this are checksummed through joins of
#: about this many bytes: one ``crc32`` call per run, not one per part.
CRC_RUN_BYTES = 1 << 16


def frame_pieces(*parts: bytes) -> list[bytes]:
    """``[header, *parts]``: one wire frame, its payload left in pieces.

    The parts are already canonically encoded; length and checksum run
    over them in place and the list holds them by reference, so a
    backend that takes pieces (:meth:`StorageBackend.append`) never
    copies a checkpoint's state into one buffer.
    """
    length = checksum = 0
    run: list[bytes] = []
    run_bytes = 0
    for part in parts:
        size = len(part)
        length += size
        if size >= CRC_RUN_BYTES:
            checksum = zlib.crc32(part, zlib.crc32(b"".join(run), checksum))
            run, run_bytes = [], 0
            continue
        run.append(part)
        run_bytes += size
        if run_bytes >= CRC_RUN_BYTES:
            checksum = zlib.crc32(b"".join(run), checksum)
            run, run_bytes = [], 0
    checksum = zlib.crc32(b"".join(run), checksum)
    return [length.to_bytes(4, "big") + checksum.to_bytes(4, "big"), *parts]


def frame_payload(*parts: bytes) -> bytes:
    """:func:`frame_pieces` joined, for a caller that needs one ``bytes``."""
    return b"".join(frame_pieces(*parts))


def encode_frame(record: dict[str, Any]) -> bytes:
    """One wire frame for ``record`` (canonical JSON body)."""
    return frame_payload(canonical_bytes(record))


def decode_prefix(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """``(frames, prefix_bytes)``: the longest valid frame prefix, once.

    A short header, a body extending past the buffer, a checksum
    mismatch or an undecodable body all terminate the walk silently:
    everything before the bad frame is the longest valid prefix,
    everything after is torn tail.  One pass serves both the decoded
    records and the byte boundary (scan and repair share it instead of
    decoding the log twice).
    """
    frames: list[dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset + FRAME_HEADER <= total:
        length = int.from_bytes(data[offset : offset + 4], "big")
        checksum = int.from_bytes(data[offset + 4 : offset + 8], "big")
        body_end = offset + FRAME_HEADER + length
        if body_end > total:
            break  # torn tail: frame body never fully reached the device
        body = data[offset + FRAME_HEADER : body_end]
        if zlib.crc32(body) != checksum:
            break  # corrupt/torn frame: the walk must not cross it
        try:
            frames.append(json.loads(body.decode("utf-8")))
        except ValueError:
            break
        offset = body_end
    return frames, offset


def single_frame_body(data: bytes) -> bytes | None:
    """The body of ``data`` if it is exactly one intact frame, else None.

    Length and checksum only — the body is not decoded, so a caller that
    needs just a look at its first bytes (the same-LSN snapshot guard)
    does not parse megabytes of state.
    """
    body = data[FRAME_HEADER:]
    if (
        len(data) < FRAME_HEADER
        or int.from_bytes(data[:4], "big") != len(body)
        or int.from_bytes(data[4:8], "big") != zlib.crc32(body)
    ):
        return None
    return body


def iter_frames(data: bytes) -> Iterator[dict[str, Any]]:
    """Decoded frames of the longest valid prefix (see :func:`decode_prefix`)."""
    yield from decode_prefix(data)[0]


def valid_prefix_length(data: bytes) -> int:
    """Byte length of the longest valid frame prefix of ``data``."""
    return decode_prefix(data)[1]


class StorageBackend:
    """Abstract append-only file namespace (the durability device)."""

    def append(self, name: str, *pieces: bytes) -> None:
        """Append the concatenation of ``pieces`` to ``name``."""
        raise NotImplementedError

    def sync(self, name: str) -> None:
        """Make every appended byte of ``name`` durable."""
        raise NotImplementedError

    def read(self, name: str) -> bytes:
        """The *durable* contents of ``name`` (what survives power loss)."""
        raise NotImplementedError

    def list(self) -> list[str]:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def truncate(self, name: str, size: int) -> None:
        """Durably cut ``name`` down to ``size`` bytes (recovery repair)."""
        raise NotImplementedError


class SimDisk(StorageBackend):
    """Deterministic in-memory device with page-cache crash semantics.

    Appends land in a per-file volatile buffer; ``sync`` flushes the
    buffer into the durable image.  :meth:`power_fail` models process or
    machine death: all volatile bytes vanish, except that the *most
    recently appended* file may durably keep an arbitrary prefix of its
    volatile tail — the torn write (a partial sector made it to the
    platter before power was lost).

    A file is the list of ``bytes`` objects appended to it, kept by
    reference: an append copies nothing (a mutable buffer is copied, so
    a later write to it cannot reach the device) and :meth:`read` joins.
    A checkpoint's frame therefore shares the bytes its node already
    keeps per document and block.  Byte-identical across runs, no wall
    clock, no randomness.
    """

    def __init__(self) -> None:
        self._durable: dict[str, list[bytes]] = {}
        self._volatile: dict[str, list[bytes]] = {}
        self._last_appended: str | None = None
        self.stats = {
            "appends": 0,
            "appended_bytes": 0,
            "syncs": 0,
            "power_failures": 0,
        }

    def append(self, name: str, *pieces: bytes) -> None:
        self._durable.setdefault(name, [])
        tail = self._volatile.setdefault(name, [])
        for piece in pieces:
            tail.append(piece if type(piece) is bytes else bytes(piece))
        self._last_appended = name
        self.stats["appends"] += 1
        self.stats["appended_bytes"] += sum(map(len, pieces))

    def sync(self, name: str) -> None:
        self.stats["syncs"] += 1
        tail = self._volatile.get(name)
        if tail:
            self._durable.setdefault(name, []).extend(tail)
            tail.clear()

    def sync_all(self) -> None:
        for name in list(self._volatile):
            if self._volatile[name]:
                self.sync(name)

    def read(self, name: str) -> bytes:
        return b"".join(self._durable.get(name, ()))

    def list(self) -> list[str]:
        return sorted(self._durable)

    def delete(self, name: str) -> None:
        self._durable.pop(name, None)
        self._volatile.pop(name, None)

    def truncate(self, name: str, size: int) -> None:
        durable = self._durable.get(name)
        if durable is not None:
            durable[:] = _head(durable, size)
        self._volatile.pop(name, None)

    # -- crash surface (driven by the chaos plane) ---------------------------

    def power_fail(self, torn_bytes: int = 0) -> None:
        """Drop every unsynced byte; optionally tear a partial write.

        Args:
            torn_bytes: how many leading bytes of the most recently
                appended file's volatile tail durably survive — landing
                the device mid-frame when it falls inside one.
        """
        self.stats["power_failures"] += 1
        if torn_bytes > 0 and self._last_appended is not None:
            tail = self._volatile.get(self._last_appended)
            if tail:
                self._durable.setdefault(self._last_appended, []).extend(
                    _head(tail, torn_bytes)
                )
        for tail in self._volatile.values():
            tail.clear()

    def corrupt(self, name: str, offset: int) -> None:
        """Flip one durable byte (bit-rot / misdirected write)."""
        durable = self._durable.get(name)
        if durable is None or offset < 0:
            return
        for index, piece in enumerate(durable):
            if offset < len(piece):
                flipped = bytearray(piece)
                flipped[offset] ^= 0xFF
                durable[index] = bytes(flipped)
                return
            offset -= len(piece)

    def clone(self) -> "SimDisk":
        """Independent copy (property tests fork one baseline image);
        the pieces are immutable, so only the lists are copied."""
        twin = SimDisk()
        twin._durable = {name: list(pieces) for name, pieces in self._durable.items()}
        twin._volatile = {name: list(pieces) for name, pieces in self._volatile.items()}
        twin._last_appended = self._last_appended
        twin.stats = dict(self.stats)
        return twin

    def durable_size(self, name: str) -> int:
        return sum(map(len, self._durable.get(name, ())))


def _head(pieces: list[bytes], size: int) -> list[bytes]:
    """The pieces holding the first ``size`` bytes of ``pieces``, the
    last one cut where the byte budget runs out."""
    head = []
    for piece in pieces:
        if size <= 0:
            break
        if len(piece) > size:
            piece = piece[:size]
        head.append(piece)
        size -= len(piece)
    return head


class FileBackend(StorageBackend):
    """Real files under one directory, with real ``fsync`` durability."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._handles: dict[str, Any] = {}
        self.stats = {"appends": 0, "appended_bytes": 0, "syncs": 0}

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _handle(self, name: str):
        handle = self._handles.get(name)
        if handle is None:
            handle = open(self._path(name), "ab")
            self._handles[name] = handle
        return handle

    def append(self, name: str, *pieces: bytes) -> None:
        self._handle(name).writelines(pieces)
        self.stats["appends"] += 1
        self.stats["appended_bytes"] += sum(map(len, pieces))

    def sync(self, name: str) -> None:
        handle = self._handles.get(name)
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
        self.stats["syncs"] += 1

    def read(self, name: str) -> bytes:
        handle = self._handles.get(name)
        if handle is not None:
            handle.flush()
        try:
            with open(self._path(name), "rb") as reader:
                return reader.read()
        except FileNotFoundError:
            return b""

    def list(self) -> list[str]:
        try:
            return sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []

    def delete(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def truncate(self, name: str, size: int) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        with open(self._path(name), "ab") as writer:
            writer.truncate(size)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()


class SegmentedWal:
    """Append-only log of LSN-stamped records across rotating segments.

    Args:
        disk: the storage backend.
        prefix: segment file prefix (one WAL per prefix per device).
        segment_max_bytes: rotation threshold — a fresh segment opens
            once the active one's appended size passes it.
    """

    def __init__(
        self,
        disk: StorageBackend,
        prefix: str = "wal",
        segment_max_bytes: int = 65536,
    ):
        self.disk = disk
        self.prefix = prefix
        self.segment_max_bytes = segment_max_bytes
        self.next_lsn = 1
        #: LSN the latest snapshot covers (records <= it are retired).
        self.snapshot_lsn = 0
        #: Segment names in LSN order, with their first LSNs.
        self._segments: list[tuple[int, str]] = self._discover()
        #: Appended-but-possibly-unsynced segment names.
        self._dirty: set[str] = set()
        #: Appended bytes of the active segment (durable + volatile).
        self._active_size = 0
        if self._segments:
            self._active_size = len(self.disk.read(self._segments[-1][1]))
        self.stats = {"records": 0, "rotations": 0, "retired_segments": 0}

    # -- segment bookkeeping --------------------------------------------------

    def _segment_name(self, first_lsn: int) -> str:
        return f"{self.prefix}-{first_lsn:012d}.seg"

    def _discover(self) -> list[tuple[int, str]]:
        found = []
        marker = f"{self.prefix}-"
        for name in self.disk.list():
            if name.startswith(marker) and name.endswith(".seg"):
                try:
                    first_lsn = int(name[len(marker) : -4])
                except ValueError:
                    continue
                found.append((first_lsn, name))
        return sorted(found)

    def segments(self) -> list[str]:
        return [name for _, name in self._segments]

    @property
    def last_lsn(self) -> int:
        return self.next_lsn - 1

    @property
    def appended_since_snapshot(self) -> int:
        return self.last_lsn - self.snapshot_lsn

    # -- writing --------------------------------------------------------------

    def append(self, record: dict[str, Any], body: bytes | None = None) -> int:
        """Stamp ``record`` with the next LSN and append its frame.

        ``body``, when given, is ``canonical_bytes(record)`` made earlier
        (a journaled insert, lock or block is encoded once, where it is
        built).  Either way the frame is spliced around the record's
        bytes and equals ``encode_frame({"lsn": lsn, "rec": record})``.

        The bytes are *not* durable until :meth:`sync` — the group-commit
        layer batches many appends under one sync.
        """
        lsn = self.next_lsn
        self.next_lsn += 1
        if body is None:
            body = canonical_bytes(record)
        frame = frame_pieces(b'{"lsn":%d,"rec":' % lsn, body, b"}")
        if not self._segments or self._active_size >= self.segment_max_bytes:
            name = self._segment_name(lsn)
            self._segments.append((lsn, name))
            self._active_size = 0
            if len(self._segments) > 1:
                self.stats["rotations"] += 1
        name = self._segments[-1][1]
        self.disk.append(name, *frame)
        self._dirty.add(name)
        self._active_size += sum(map(len, frame))
        self.stats["records"] += 1
        return lsn

    def sync(self) -> None:
        """Make every appended frame durable (one backend sync per dirty
        segment — normally exactly one)."""
        for name in sorted(self._dirty):
            self.disk.sync(name)
        self._dirty.clear()

    # -- reading / recovery ---------------------------------------------------

    def scan(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(lsn, record)`` over the durable longest valid prefix.

        The scan stops at the first invalid frame *and never resumes*:
        a torn or corrupt frame in segment k invalidates segment k's
        tail and every later segment (their records are not a prefix).
        """
        for index, (_, name) in enumerate(self._segments):
            data = self.disk.read(name)
            frames, prefix = decode_prefix(data)
            for frame in frames:
                yield frame["lsn"], frame["rec"]
            if prefix < len(data) or self._torn_rotation(index, frames):
                return

    def _torn_rotation(self, index: int, frames: list[dict[str, Any]]) -> bool:
        """True when a later segment exists but this one ended torn-free
        while losing its tail to a power failure (detected by the next
        segment's first LSN not following on)."""
        if index + 1 >= len(self._segments):
            return False
        if not frames:
            return True
        return frames[-1]["lsn"] + 1 != self._segments[index + 1][0]

    def repair(self) -> int:
        """Truncate torn bytes so appends extend the valid prefix.

        Returns the LSN of the last surviving record and primes
        ``next_lsn`` after it.  Segments past a torn frame are deleted
        outright — their contents are beyond the valid prefix.
        """
        last_lsn = 0
        keep = 0
        for index, (_, name) in enumerate(self._segments):
            data = self.disk.read(name)
            frames, prefix = decode_prefix(data)
            if frames:
                last_lsn = frames[-1]["lsn"]
            if prefix < len(data):
                self.disk.truncate(name, prefix)
                keep = index + 1 if prefix > 0 else index
                break
            if self._torn_rotation(index, frames):
                keep = index + 1
                break
            keep = index + 1
        for _, name in self._segments[keep:]:
            self.disk.delete(name)
        self._segments = self._segments[:keep]
        self._dirty.clear()
        self._active_size = (
            len(self.disk.read(self._segments[-1][1])) if self._segments else 0
        )
        self.next_lsn = last_lsn + 1
        return last_lsn

    # -- compaction -----------------------------------------------------------

    def retire(self, cutoff_lsn: int) -> int:
        """Delete segments wholly covered by a snapshot at ``cutoff_lsn``.

        A segment may go once the *next* segment already starts at or
        before the first LSN still needed (``cutoff_lsn + 1``).
        """
        self.snapshot_lsn = max(self.snapshot_lsn, cutoff_lsn)
        retired = 0
        while len(self._segments) > 1 and self._segments[1][0] <= cutoff_lsn + 1:
            _, name = self._segments.pop(0)
            self.disk.delete(name)
            self._dirty.discard(name)
            retired += 1
        self.stats["retired_segments"] += retired
        return retired

    def describe(self) -> str:
        return canonical_serialize(
            {
                "segments": self.segments(),
                "next_lsn": self.next_lsn,
                "snapshot_lsn": self.snapshot_lsn,
            }
        )
