"""Frame format, segmentation, rotation and retirement of the WAL."""

import pytest

from repro.durability.wal import (
    FRAME_HEADER,
    SegmentedWal,
    SimDisk,
    encode_frame,
    iter_frames,
    single_frame_body,
    valid_prefix_length,
)


class TestFrames:
    def test_roundtrip_single_record(self):
        frame = encode_frame({"a": 1, "b": "text"})
        assert list(iter_frames(frame)) == [{"a": 1, "b": "text"}]

    def test_length_prefix_matches_payload(self):
        frame = encode_frame({"x": True})
        declared = int.from_bytes(frame[:4], "big")
        assert declared == len(frame) - FRAME_HEADER

    def test_scan_stops_at_short_tail(self):
        frames = encode_frame({"n": 1}) + encode_frame({"n": 2})
        torn = frames[:-3]  # last frame loses its final bytes
        assert list(iter_frames(torn)) == [{"n": 1}]

    def test_scan_stops_at_checksum_mismatch(self):
        data = bytearray(encode_frame({"n": 1}) + encode_frame({"n": 2}))
        data[-2] ^= 0xFF  # corrupt the second frame's body
        assert list(iter_frames(bytes(data))) == [{"n": 1}]

    def test_valid_prefix_length_is_a_frame_boundary(self):
        first = encode_frame({"n": 1})
        data = first + encode_frame({"n": 2})[:-1]
        assert valid_prefix_length(data) == len(first)

    def test_unicode_survives_canonical_encoding(self):
        frame = encode_frame({"name": "zoë", "glyph": "✓"})
        assert list(iter_frames(frame)) == [{"name": "zoë", "glyph": "✓"}]


    def test_single_frame_body_accepts_exactly_one_intact_frame(self):
        frame = encode_frame({"lsn": 7, "state": {"k": "zoë"}})
        assert single_frame_body(frame) == frame[FRAME_HEADER:]
        assert single_frame_body(frame + frame) is None  # a second frame appended
        assert single_frame_body(frame[:-1]) is None  # torn tail
        assert single_frame_body(frame[:5]) is None  # torn header
        assert single_frame_body(b"") is None
        flipped = bytearray(frame)
        flipped[-2] ^= 0xFF
        assert single_frame_body(bytes(flipped)) is None

    def test_append_with_a_pre_encoded_body_writes_the_same_frame(self):
        spliced, encoded = SimDisk(), SimDisk()
        record = {"k": "db", "op": "insert", "c": "rows", "d": {"z": 1.5, "a": "é"}}
        body = b'{"c":"rows","d":{"a":"\xc3\xa9","z":1.5},"k":"db","op":"insert"}'
        SegmentedWal(spliced).append(record, body)
        SegmentedWal(encoded).append(record)
        spliced.sync_all()
        encoded.sync_all()
        (name,) = spliced.list()
        assert spliced.read(name) == encoded.read(name) != b""


class TestSimDisk:
    def test_append_is_volatile_until_sync(self):
        disk = SimDisk()
        disk.append("f", b"abc")
        assert disk.read("f") == b""
        disk.sync("f")
        assert disk.read("f") == b"abc"

    def test_power_fail_drops_unsynced_tail(self):
        disk = SimDisk()
        disk.append("f", b"abc")
        disk.sync("f")
        disk.append("f", b"xyz")
        disk.power_fail()
        assert disk.read("f") == b"abc"

    def test_power_fail_can_tear_mid_write(self):
        disk = SimDisk()
        disk.append("f", b"abcdef")
        disk.power_fail(torn_bytes=2)
        assert disk.read("f") == b"ab"

    def test_truncate_and_corrupt(self):
        disk = SimDisk()
        disk.append("f", b"abcdef")
        disk.sync("f")
        disk.truncate("f", 4)
        assert disk.read("f") == b"abcd"
        disk.corrupt("f", 0)
        assert disk.read("f")[0] == ord("a") ^ 0xFF

    def test_clone_is_independent(self):
        disk = SimDisk()
        disk.append("f", b"abc")
        disk.sync("f")
        twin = disk.clone()
        twin.append("f", b"x")
        twin.sync("f")
        assert disk.read("f") == b"abc"
        assert twin.read("f") == b"abcx"


@pytest.fixture()
def wal():
    return SegmentedWal(SimDisk(), segment_max_bytes=256)


class TestSegmentedWal:
    def test_lsns_are_contiguous_from_one(self, wal):
        lsns = [wal.append({"n": i}) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_scan_returns_synced_records_in_order(self, wal):
        for i in range(4):
            wal.append({"n": i})
        wal.sync()
        assert [rec["n"] for _, rec in wal.scan()] == [0, 1, 2, 3]

    def test_unsynced_records_are_not_durable(self, wal):
        wal.append({"n": 0})
        wal.sync()
        wal.append({"n": 1})  # never synced
        assert [rec["n"] for _, rec in wal.scan()] == [0]

    def test_rotation_produces_multiple_segments(self, wal):
        for i in range(40):
            wal.append({"n": i, "pad": "x" * 32})
        wal.sync()
        assert len(wal.segments()) > 1
        assert [rec["n"] for _, rec in wal.scan()] == list(range(40))

    def test_reopen_discovers_existing_segments(self, wal):
        for i in range(40):
            wal.append({"n": i, "pad": "x" * 32})
        wal.sync()
        reopened = SegmentedWal(wal.disk, segment_max_bytes=256)
        assert reopened.segments() == wal.segments()
        assert [rec["n"] for _, rec in reopened.scan()] == list(range(40))

    def test_retire_deletes_fully_covered_segments(self, wal):
        for i in range(40):
            wal.append({"n": i, "pad": "x" * 32})
        wal.sync()
        segments_before = len(wal.segments())
        retired = wal.retire(wal.last_lsn)
        # Everything but the active segment is covered by the cutoff.
        assert retired == segments_before - 1
        assert len(wal.segments()) == 1
        surviving = [rec["n"] for _, rec in wal.scan()]
        assert all(n >= 40 - len(surviving) for n in surviving)

    def test_repair_truncates_torn_tail_and_continues_lsns(self, wal):
        for i in range(3):
            wal.append({"n": i})
        wal.sync()
        name = wal.segments()[-1]
        wal.disk.truncate(name, wal.disk.durable_size(name) - 2)
        reopened = SegmentedWal(wal.disk, segment_max_bytes=256)
        last = reopened.repair()
        assert last == 2
        assert reopened.next_lsn == 3
        # Appends now extend the valid prefix seamlessly.
        reopened.append({"n": "fresh"})
        reopened.sync()
        assert [rec["n"] for _, rec in reopened.scan()] == [0, 1, "fresh"]

    def test_repair_drops_segments_after_a_broken_one(self, wal):
        for i in range(40):
            wal.append({"n": i, "pad": "x" * 32})
        wal.sync()
        first = wal.segments()[0]
        wal.disk.truncate(first, wal.disk.durable_size(first) - 1)
        reopened = SegmentedWal(wal.disk, segment_max_bytes=256)
        reopened.repair()
        assert reopened.segments() == [first]
        records = [rec["n"] for _, rec in reopened.scan()]
        assert records == list(range(len(records)))  # a strict prefix
