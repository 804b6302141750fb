"""Tests for the in-memory event log and its wire encoding."""

import struct

import pytest

from repro.__main__ import main
from repro.eventlog.encode import (
    _HEADER,
    _SECTION,
    MEMORY_EVENT_BYTES,
    SYNC_EVENT_BYTES,
    decode_log,
    decode_log_columns,
    encode_log,
    encoded_size,
)
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.log import EventLog
from repro.eventlog.segment import decode_segment, encode_segment


def sample_log():
    log = EventLog()
    log.append_sync(0, SyncKind.THREAD_START, ("thread", 0), 1, -1)
    log.append_memory(0, 0x1000, 5, True, mask=0b101)
    log.append_memory(1, 0x2000, 6, False, mask=0b010)
    log.append_sync(1, SyncKind.LOCK, ("mutex", 0x3000), 2, 7)
    log.append_sync(1, SyncKind.ALLOC_PAGE, ("page", 42), 3, 8)
    return log


class TestEventLog:
    def test_counts(self):
        log = sample_log()
        assert log.memory_count == 2
        assert log.sync_count == 3
        assert len(log) == 5

    def test_per_thread_preserves_order(self):
        streams = sample_log().per_thread()
        assert [type(e).__name__ for e in streams[1]] == [
            "MemoryEvent", "SyncEvent", "SyncEvent"]

    def test_mask_counts(self):
        log = sample_log()
        assert log.memory_logged_by(0) == 1
        assert log.memory_logged_by(1) == 1
        assert log.memory_logged_by(2) == 1
        assert log.memory_logged_by(3) == 0

    def test_filtered_keeps_all_sync(self):
        sub = sample_log().filtered(0)
        assert sub.sync_count == 3
        assert sub.memory_count == 1

    def test_filtered_memory_selection(self):
        sub = sample_log().filtered(1)
        addrs = [e.addr for e in sub.events if isinstance(e, MemoryEvent)]
        assert addrs == [0x2000]

    def test_sync_vars_in_first_seen_order(self):
        vars_seen = sample_log().sync_vars()
        assert vars_seen[0] == ("thread", 0)
        assert ("page", 42) in vars_seen

    def test_event_properties(self):
        acquire = SyncEvent(0, SyncKind.LOCK, ("mutex", 1), 1, 0)
        release = SyncEvent(0, SyncKind.UNLOCK, ("mutex", 1), 2, 0)
        both = SyncEvent(0, SyncKind.ATOMIC, ("atomic", 1), 3, 0)
        assert acquire.is_acquire and not acquire.is_release
        assert release.is_release and not release.is_acquire
        assert both.is_acquire and both.is_release


class TestEncoding:
    def test_round_trip_per_thread_streams(self):
        log = sample_log()
        decoded = decode_log(encode_log(log))
        original = log.per_thread()
        restored = decoded.per_thread()
        assert set(original) == set(restored)
        for tid in original:
            for a, b in zip(original[tid], restored[tid]):
                if isinstance(a, MemoryEvent):
                    assert (a.tid, a.addr, a.pc, a.is_write) == \
                        (b.tid, b.addr, b.pc, b.is_write)
                else:
                    assert a == b

    def test_encoded_size_matches_actual_bytes(self):
        log = sample_log()
        assert encoded_size(log) == len(encode_log(log))

    def test_event_sizes_documented(self):
        log = EventLog()
        base = encoded_size(log)
        log.append_memory(0, 1, 2, True)
        with_mem = encoded_size(log)
        log.append_sync(0, SyncKind.LOCK, ("mutex", 1), 1, 2)
        with_sync = encoded_size(log)
        # First event also pays the thread-section header.
        assert with_sync - with_mem == SYNC_EVENT_BYTES
        assert with_mem - base > MEMORY_EVENT_BYTES

    def test_negative_pc_round_trips(self):
        log = EventLog()
        log.append_sync(0, SyncKind.THREAD_EXIT, ("thread", 0), 9, -1)
        decoded = decode_log(encode_log(log))
        assert decoded.events[0].pc == -1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_log(b"XXXX" + b"\x00" * 10)

    def test_trailing_garbage_rejected(self):
        data = encode_log(sample_log()) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            decode_log(data)

    def test_masks_are_not_on_the_wire(self):
        # Masks are an in-memory experiment artifact; decoding yields the
        # default mask.
        log = EventLog()
        log.append_memory(0, 1, 2, True, mask=0b1010)
        decoded = decode_log(encode_log(log))
        assert decoded.events[0].mask == 1

    def test_all_sync_kinds_encode(self):
        log = EventLog()
        domains = {
            SyncKind.LOCK: "mutex", SyncKind.UNLOCK: "mutex",
            SyncKind.WAIT: "event", SyncKind.NOTIFY: "event",
            SyncKind.FORK: "thread", SyncKind.JOIN: "thread",
            SyncKind.THREAD_START: "thread", SyncKind.THREAD_EXIT: "thread",
            SyncKind.ATOMIC: "atomic",
            SyncKind.ALLOC_PAGE: "page", SyncKind.FREE_PAGE: "page",
        }
        for index, (kind, domain) in enumerate(domains.items()):
            log.append_sync(0, kind, (domain, index), index, index)
        decoded = decode_log(encode_log(log))
        assert [e.kind for e in decoded.events] == list(domains)


def three_event_log():
    """A memory event and a LOCK on thread 1, and thread 2's THREAD_START
    between them, with no pc."""
    log = EventLog()
    log.append_memory(1, 0x1000, 5, True)
    log.append_sync(2, SyncKind.THREAD_START, ("thread", 2), 3, -1)
    log.append_sync(1, SyncKind.LOCK, ("mutex", 0x2000), 7, 6)
    return log


#: three_event_log as a per-thread file: one column block per thread.
THREE_EVENT_FILE = bytes.fromhex(
    "4c545243 0300 0200"                # LTRC, version 3, two sections
    "01000000 02000000"                 # thread 1, two events
    "01 02"                             #   kinds: write, LOCK
    "00100000 00200000"                 #   addrs: 0x1000, mutex 0x2000
    "05000000 06000000"                 #   pcs
    "00"                                #   domains: mutex
    "07000000"                          #   timestamps
    "02000000 01000000"                 # thread 2, one event
    "08"                                #   kinds: THREAD_START
    "02000000"                          #   addrs: thread 2
    "ffffffff"                          #   pcs: none
    "02"                                #   domains: thread
    "03000000")                         #   timestamps

#: three_event_log as one segment frame: one block with a tid column.
THREE_EVENT_FRAME = bytes.fromhex(
    "4c545253 0300 0000"                # LTRS, version 3, no flags
    "03000000 31000000"                 # three events, 49 payload bytes
    "01 08 02"                          # kinds: write, THREAD_START, LOCK
    "01000000 02000000 01000000"        # tids
    "00100000 02000000 00200000"        # addrs
    "05000000 ffffffff 06000000"        # pcs
    "02 00"                             # domains: thread, mutex
    "03000000 07000000")                # timestamps


class TestColumnLayout:
    """The column block pinned byte for byte in both formats, and the
    versions before it refused."""

    def test_three_event_log_in_both_formats(self):
        log = three_event_log()
        assert encode_log(log) == THREE_EVENT_FILE
        assert encoded_size(log) == len(THREE_EVENT_FILE)
        assert encode_segment(log.events) == THREE_EVENT_FRAME
        assert decode_segment(THREE_EVENT_FRAME) == (
            log.events, len(THREE_EVENT_FRAME))
        assert decode_log(THREE_EVENT_FILE).events == sorted(
            log.events, key=lambda event: event.tid)

    def test_version_1_file_is_refused(self, tmp_path):
        # The row layout: thread 0's one memory event as kind, addr, pc.
        data = (_HEADER.pack(b"LTRC", 1, 1) + _SECTION.pack(0, 1)
                + struct.pack("<BII", 1, 0x1000, 5))
        with pytest.raises(ValueError, match="unsupported log version 1"):
            decode_log(data)
        path = tmp_path / "v1.ltrc"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="unsupported log version 1"):
            main(["analyze", str(path)])
        with pytest.raises(ValueError, match="unknown log version 1"):
            encode_log(three_event_log(), version=1)


def _raw_file(*sections):
    """A per-thread file from ``(tid, [(is_write, addr, pc), ...])``
    sections of memory events, as given, each section's events written
    as a column block by hand: the kind bytes, then the addr and pc
    columns."""
    parts = [_HEADER.pack(b"LTRC", 3, len(sections))]
    for tid, events in sections:
        parts.append(_SECTION.pack(tid, len(events)))
        parts.append(bytes(int(is_write) for is_write, _, _ in events))
        parts.extend(struct.pack("<I", addr) for _, addr, _ in events)
        parts.extend(struct.pack("<I", pc) for _, _, pc in events)
    return b"".join(parts)


#: Offset of sample_log's first block, thread 0's: its kind column opens
#: with the THREAD_START sync event.
FIRST_RECORD = _HEADER.size + _SECTION.size
#: That sync event's domain code: after the section's two kind bytes and
#: its addr and pc columns of two u32s each.
FIRST_DOMAIN = FIRST_RECORD + 2 + 2 * 4 + 2 * 4


def _corrupt(case):
    data = bytearray(encode_log(sample_log()))
    if case == "truncated header":
        return bytes(data[:_HEADER.size - 3])
    if case == "truncated section header":
        # The header claims one more section than the file holds.
        data[6] += 1
        return bytes(data)
    if case == "truncated record":
        return bytes(data[:-1])
    if case in ("first section too long", "last section too long"):
        # A section claims one more event than it holds, so its block
        # runs on into what follows: the last one past the end of the
        # file, the first one into its neighbour, whose header is then
        # read from inside a block and claims far more events than the
        # file holds.
        at = _HEADER.size
        if case == "last section too long":
            at += _SECTION.size + SYNC_EVENT_BYTES + MEMORY_EVENT_BYTES
        tid, count = _SECTION.unpack_from(data, at)
        data[at:at + _SECTION.size] = _SECTION.pack(tid, count + 1)
        return bytes(data)
    if case == "bad kind code":
        data[FIRST_RECORD] = 127
        return bytes(data)
    if case == "bad domain code":
        assert data[FIRST_DOMAIN] == 2  # the "thread" domain
        data[FIRST_DOMAIN] = 9
        return bytes(data)
    if case == "trailing bytes":
        return bytes(data) + b"\x00"
    if case == "duplicate tid":
        event = (True, 0x1000, 5)
        return _raw_file((3, [event]), (3, [event]))
    raise AssertionError(case)


#: case -> the reason the decoder must name.
CORRUPT_V1 = {
    "truncated header": "truncated log header",
    "truncated section header": "truncated section header",
    "truncated record": "truncated record in the section of thread 1",
    "first section too long": "truncated record",
    "last section too long": "truncated record in the section of thread 1",
    "bad kind code": "bad sync kind code 127",
    "bad domain code": "bad sync-var domain code 9",
    "trailing bytes": "trailing bytes after last section",
    "duplicate tid": "second section for thread 3",
}


class TestCorruptV1:
    """A damaged per-thread log fails with a ValueError that names the
    damage, both through ``decode_log`` and through ``repro analyze``."""

    @pytest.mark.parametrize("case", list(CORRUPT_V1))
    def test_decode_log_names_the_problem(self, case):
        with pytest.raises(ValueError, match=CORRUPT_V1[case]):
            decode_log(_corrupt(case))

    @pytest.mark.parametrize("case", list(CORRUPT_V1))
    def test_analyze_names_the_problem(self, case, tmp_path, capsys):
        path = tmp_path / "bad.ltrc"
        path.write_bytes(_corrupt(case))
        with pytest.raises(ValueError, match=CORRUPT_V1[case]):
            main(["analyze", str(path)])
        assert capsys.readouterr().out == ""

    def test_empty_sections_are_accepted_and_are_not_threads(self, tmp_path,
                                                             capsys):
        event = (True, 0x1000, 5)
        data = _raw_file((0, [event]), (4, []), (9, [event, event]))
        log = decode_log(data)
        assert sorted(log.per_thread()) == [0, 9]
        cols, sections = decode_log_columns(data)
        assert sections == [(0, 0, 1), (9, 1, 3)]
        path = tmp_path / "empty.ltrc"
        path.write_bytes(data)
        assert main(["analyze", str(path)]) == 0
        assert "3 memory events, 2 threads" in capsys.readouterr().out

    def test_sections_come_back_sorted_by_tid(self):
        event = (False, 0x2000, 7)
        cols, sections = decode_log_columns(
            _raw_file((5, [event, event]), (2, [event])))
        assert sections == [(2, 2, 3), (5, 0, 2)]
        assert cols.tids == [5, 5, 2]
        assert [e.tid for e in decode_log(
            _raw_file((5, [event, event]), (2, [event]))).events] == [2, 5, 5]


class TestStore:
    def test_save_and_load(self, tmp_path):
        from repro.eventlog.store import load_log, save_log

        log = sample_log()
        path = tmp_path / "log.ltrc"
        written = save_log(log, path)
        assert written == path.stat().st_size
        loaded = load_log(path)
        assert loaded.sync_count == log.sync_count
        assert loaded.memory_count == log.memory_count

    def test_save_is_atomic(self, tmp_path):
        from repro.eventlog.store import save_log

        path = tmp_path / "log.ltrc"
        save_log(sample_log(), path)
        assert not (tmp_path / "log.ltrc.tmp").exists()

    def test_v2_save_load_round_trip(self, tmp_path):
        from repro.eventlog.store import load_log, save_log

        log = sample_log()
        path = tmp_path / "log.ltrc"
        written = save_log(log, path, version=2, compress=True)
        assert written == path.stat().st_size
        loaded = load_log(path)
        assert loaded.sync_count == log.sync_count
        assert loaded.memory_count == log.memory_count

    def test_failed_encode_leaves_no_temp_file(self, tmp_path):
        from repro.eventlog.store import save_log

        log = EventLog()
        log.append_sync(0, SyncKind.LOCK, ("no-such-domain", 1), 1, 0)
        path = tmp_path / "log.ltrc"
        with pytest.raises(KeyError):
            save_log(log, path)
        assert not path.exists()
        assert not (tmp_path / "log.ltrc.tmp").exists()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        from repro.eventlog.store import save_log

        # The destination is a non-empty directory, so the final
        # os.replace must fail after the temp file was fully written.
        path = tmp_path / "log.ltrc"
        path.mkdir()
        (path / "occupied").write_text("x")
        with pytest.raises(OSError):
            save_log(sample_log(), path)
        assert not (tmp_path / "log.ltrc.tmp").exists()

    def test_streaming_writer_failure_leaves_no_temp_file(self, tmp_path):
        from repro.eventlog.writer import StreamingLogWriter

        path = tmp_path / "log.ltrc"
        path.mkdir()
        (path / "occupied").write_text("x")
        writer = StreamingLogWriter(path)
        writer.feed(sample_log().events[0])
        with pytest.raises(OSError):
            writer.close()
        assert not (tmp_path / "log.ltrc.tmp").exists()
