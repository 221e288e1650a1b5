"""The SimDisk keeps appended bytes by reference, in per-file piece lists.

A frame reaches the device as pieces (``frame_pieces``) and a
checkpoint's pieces are the bytes its node already keeps per document,
block and certificate.  These tests pin that the chunked device keeps the
byte semantics of a flat buffer — torn writes, bit-rot, truncation,
repair, clones — at offsets inside and across pieces.
"""

import json

from repro.common.encoding import array_pieces, canonical_bytes
from repro.durability.snapshot import SnapshotManager
from repro.durability.wal import (
    FRAME_HEADER,
    FileBackend,
    SegmentedWal,
    SimDisk,
    encode_frame,
    frame_pieces,
)


def snapshot_frame(lsn, items):
    return frame_pieces(b'{"lsn":%d,"state":' % lsn, *array_pieces(items), b"}")


class TestFramePieces:
    def test_pieces_join_to_the_whole_frame_across_crc_runs(self):
        # Small parts share checksum runs, big ones are checksummed alone.
        sizes = (0, 10, 70_000, 5, 40_000, 40_000, 3)
        items = [canonical_bytes({"n": i, "pad": "x" * size}) for i, size in enumerate(sizes)]
        pieces = snapshot_frame(9, items)
        state = [json.loads(item) for item in items]
        assert b"".join(pieces) == encode_frame({"lsn": 9, "state": state})
        assert all(any(piece is item for piece in pieces) for item in items)


class TestTornWrites:
    def test_a_tear_inside_a_multi_piece_snapshot_frame(self):
        items = [canonical_bytes({"doc": i, "body": "é" * i}) for i in range(5)]
        pieces = snapshot_frame(7, items)
        whole = b"".join(pieces)
        name = SnapshotManager(SimDisk())._name(7)
        for torn in range(len(whole) + 1):
            disk = SimDisk()
            SnapshotManager(disk).take([b"[]"], 3)
            disk.append(name, *pieces)
            disk.power_fail(torn)
            assert disk.read(name) == whole[:torn]
            if torn == len(whole):
                expected = (7, [json.loads(item) for item in items])
            else:
                expected = (3, [])
            assert SnapshotManager(disk).chain()[-1][:2] == expected

    def test_a_tear_inside_a_wal_frame_header(self):
        disk = SimDisk()
        wal = SegmentedWal(disk)
        wal.append({"n": 0})
        wal.sync()
        (name,) = wal.segments()
        first = disk.read(name)
        wal.append({"n": 1, "pad": "y" * 40})
        for torn in range(1, FRAME_HEADER):
            twin = disk.clone()
            twin.power_fail(torn)
            assert twin.durable_size(name) == len(first) + torn
            reopened = SegmentedWal(twin)
            assert [record for _, record in reopened.scan()] == [{"n": 0}]
            assert reopened.repair() == 1
            assert twin.read(name) == first


def chunked_disk():
    """One durable file of five pieces, appended in two syncs."""
    disk = SimDisk()
    disk.append("f", b"head-", b"0123456789" * 3, b"-tail")
    disk.sync("f")
    disk.append("f", b"+", b"more")
    disk.sync("f")
    return disk, b"head-" + b"0123456789" * 3 + b"-tail+more"


class TestChunkedFiles:
    def test_corrupt_flips_exactly_one_byte_at_every_offset(self):
        _, whole = chunked_disk()
        for offset in range(len(whole) + 1):
            disk, _ = chunked_disk()
            disk.corrupt("f", offset)
            expected = bytearray(whole)
            if offset < len(whole):
                expected[offset] ^= 0xFF
            assert disk.read("f") == bytes(expected)

    def test_truncate_at_every_offset_then_append(self):
        _, whole = chunked_disk()
        for size in range(len(whole) + 2):
            disk, _ = chunked_disk()
            disk.truncate("f", size)
            assert disk.read("f") == whole[:size]
            assert disk.durable_size("f") == min(size, len(whole))
            disk.append("f", b"!")
            disk.sync("f")
            assert disk.read("f") == whole[:size] + b"!"

    def test_repair_cuts_a_segment_before_a_corrupt_body_piece(self):
        disk = SimDisk()
        wal = SegmentedWal(disk)
        records = [{"n": i, "pad": "z" * 30} for i in range(3)]
        bodies = [canonical_bytes(record) for record in records]
        for record, body in zip(records, bodies):
            wal.append(record, body)
        wal.sync()
        (name,) = wal.segments()
        first = len(encode_frame({"lsn": 1, "rec": records[0]}))
        disk.corrupt(name, first + FRAME_HEADER + 20)  # inside record 1's body
        reopened = SegmentedWal(disk)
        assert reopened.repair() == 1
        assert disk.durable_size(name) == first
        reopened.append({"n": "after"})
        reopened.sync()
        assert [record["n"] for _, record in reopened.scan()] == [0, "after"]
        assert bodies[1] == canonical_bytes(records[1])  # the kept body is untouched

    def test_clones_share_pieces_but_not_files(self):
        disk, whole = chunked_disk()
        disk.append("f", b"volatile")
        twin = disk.clone()
        twin.corrupt("f", 7)
        twin.truncate("f", 20)
        twin.append("g", b"new")
        twin.sync("g")
        disk.sync("f")
        assert disk.read("f") == whole + b"volatile" and disk.list() == ["f"]
        torn = bytearray(whole[:20])
        torn[7] ^= 0xFF
        assert twin.read("f") == bytes(torn) and twin.list() == ["f", "g"]
        disk.corrupt("f", 0)
        assert twin.read("f")[0] == whole[0]

    def test_a_mutable_buffer_is_copied_on_append(self):
        buffer = bytearray(b"abc")
        disk = SimDisk()
        disk.append("f", buffer, memoryview(b"xyz"))
        buffer[:] = b"XXXXX"
        disk.sync("f")
        buffer.extend(b"!")
        assert disk.read("f") == b"abcxyz"
        assert disk.stats["appended_bytes"] == 6

    def test_file_backend_writes_pieces(self, tmp_path):
        backend = FileBackend(str(tmp_path))
        backend.append("f", b"ab", b"", b"cd")
        backend.sync("f")
        assert backend.read("f") == b"abcd"
        assert backend.stats["appended_bytes"] == 4
        backend.close()
