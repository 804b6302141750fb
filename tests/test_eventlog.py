"""Tests for the in-memory event log and its wire encoding."""

import pytest

from repro.__main__ import main
from repro.eventlog.encode import (
    _HEADER,
    _MEMORY,
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


def _raw_v1(*sections):
    """A v1 file from ``(tid, [record bytes, ...])`` sections, as given."""
    parts = [_HEADER.pack(b"LTRC", 1, len(sections))]
    for tid, records in sections:
        parts.append(_SECTION.pack(tid, len(records)))
        parts.extend(records)
    return b"".join(parts)


#: Offset of sample_log's first record, thread 0's THREAD_START sync event.
FIRST_RECORD = _HEADER.size + _SECTION.size


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
        # A section claims one more record than it holds: the first one
        # then misreads its neighbour's header as a record.
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
        data[FIRST_RECORD + 1] = 9
        return bytes(data)
    if case == "trailing bytes":
        return bytes(data) + b"\x00"
    if case == "duplicate tid":
        record = _MEMORY.pack(1, 0x1000, 5)
        return _raw_v1((3, [record]), (3, [record]))
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
        record = _MEMORY.pack(1, 0x1000, 5)
        data = _raw_v1((0, [record]), (4, []), (9, [record, record]))
        log = decode_log(data)
        assert sorted(log.per_thread()) == [0, 9]
        cols, sections = decode_log_columns(data)
        assert sections == [(0, 0, 1), (9, 1, 3)]
        path = tmp_path / "empty.ltrc"
        path.write_bytes(data)
        assert main(["analyze", str(path)]) == 0
        assert "3 memory events, 2 threads" in capsys.readouterr().out

    def test_sections_come_back_sorted_by_tid(self):
        record = _MEMORY.pack(0, 0x2000, 7)
        cols, sections = decode_log_columns(
            _raw_v1((5, [record, record]), (2, [record])))
        assert sections == [(2, 2, 3), (5, 0, 2)]
        assert cols.tids == [5, 5, 2]
        assert [e.tid for e in decode_log(
            _raw_v1((5, [record, record]), (2, [record]))).events] == [2, 5, 5]


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
