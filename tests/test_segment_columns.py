"""Batched-vs-streaming parity for the columnar segment path.

The telemetry workers now decode ``LTRS`` frames straight into
:class:`~repro.eventlog.segment.SegmentColumns` and feed them to the
batched detector — per-event objects never exist on the hot path.  These
tests pin the contract that makes that safe:

* columns are a lossless view: ``decode_segment_columns(...).to_events()``
  equals ``decode_segment(...)`` for any stream, compressed or not;
* detector state is path-independent: columnar ``feed_batch`` over wire
  frames produces byte-identical reports to event-at-a-time ``feed`` —
  including events that took the v1 (per-thread-section) format detour;
* corrupt payloads **raise** instead of mis-detecting: truncation, trailing
  bytes, bad kind/domain codes, and damaged zlib payloads all fail loudly
  on the columnar path, exactly like the object path.
"""

from __future__ import annotations

import pytest
import struct
import zlib
from hypothesis import given, settings, strategies as st

from repro.detector.flat import FlatDetector
from repro.detector.hb import HappensBeforeDetector
from repro.eventlog.encode import decode_log, encode_log
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.log import EventLog
from repro.eventlog.segment import (
    FLAG_ZLIB,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    _SEG_HEADER,
    SegmentBatcher,
    columns_from_events,
    decode_segment,
    decode_segment_columns,
    encode_segment,
)

_DOMAINS = ("mutex", "event", "thread", "atomic", "page")

memory_events = st.builds(
    MemoryEvent,
    tid=st.integers(0, 7),
    addr=st.integers(0, 0xFFFF_FFFF),
    pc=st.integers(-1, 0xFFFF_FFFE),
    is_write=st.booleans(),
)
sync_events = st.builds(
    SyncEvent,
    tid=st.integers(0, 7),
    kind=st.sampled_from(list(SyncKind)),
    var=st.tuples(st.sampled_from(_DOMAINS), st.integers(0, 0xFFFF_FFFF)),
    timestamp=st.integers(0, 0xFFFF_FFFF),
    pc=st.integers(-1, 0xFFFF_FFFE),
)
event_streams = st.lists(st.one_of(memory_events, sync_events), max_size=60)

#: Collision-rich streams so parity tests actually exercise race recording.
racy_streams = st.lists(
    st.one_of(
        st.builds(MemoryEvent, tid=st.integers(0, 3),
                  addr=st.integers(0, 7), pc=st.integers(0, 20),
                  is_write=st.booleans()),
        st.builds(SyncEvent, tid=st.integers(0, 3),
                  kind=st.sampled_from([SyncKind.LOCK, SyncKind.UNLOCK,
                                        SyncKind.ALLOC_PAGE,
                                        SyncKind.FREE_PAGE]),
                  var=st.tuples(st.sampled_from(_DOMAINS),
                                st.integers(0, 2)),
                  timestamp=st.integers(0, 50), pc=st.integers(0, 20)),
    ), max_size=80)


def report_key(detector):
    report = detector.report
    return (dict(report.occurrences), dict(report.examples),
            set(report.addresses))


def make_log(events):
    log = EventLog()
    for event in events:
        if isinstance(event, SyncEvent):
            log.append_sync(event.tid, event.kind, event.var,
                            event.timestamp, event.pc)
        else:
            log.append_memory(event.tid, event.addr, event.pc,
                              event.is_write)
    return log


class TestColumnsAreLossless:
    @settings(max_examples=60, deadline=None)
    @given(events=event_streams, compress=st.booleans())
    def test_columns_to_events_equals_object_decode(self, events, compress):
        frame = encode_segment(events, compress=compress)
        via_objects, end_a = decode_segment(frame)
        cols, end_b = decode_segment_columns(frame)
        assert end_a == end_b == len(frame)
        assert cols.to_events() == via_objects
        assert cols.count == len(events)
        assert cols.memory_count == sum(
            1 for e in events if isinstance(e, MemoryEvent))
        assert cols.sync_count == cols.count - cols.memory_count

    @settings(max_examples=40, deadline=None)
    @given(events=event_streams)
    def test_columns_from_events_round_trip(self, events):
        assert columns_from_events(events).to_events() == events


class TestDetectorParity:
    @settings(max_examples=40, deadline=None)
    @given(events=racy_streams, compress=st.booleans())
    def test_wire_columns_match_per_event_feed(self, events, compress):
        frame = encode_segment(events, compress=compress)
        cols, _ = decode_segment_columns(frame)
        batched = FlatDetector("hb")
        batched.feed_batch(cols)
        streamed = HappensBeforeDetector()
        for event in decode_segment(frame)[0]:
            streamed.feed(event)
        assert report_key(batched) == report_key(streamed)
        assert batched.events_processed == streamed.events_processed

    @settings(max_examples=25, deadline=None)
    @given(events=racy_streams)
    def test_v1_log_detour_matches(self, events):
        # Events that travelled through the v1 per-thread-section format
        # come back grouped by thread; both paths must agree on *that*
        # stream (the v1 order), proving the columnar ramp handles
        # in-memory object streams identically to per-event feed.
        decoded = decode_log(encode_log(make_log(events), version=1))
        v1_events = decoded.events
        batched = FlatDetector("hb")
        batched.feed_batch(columns_from_events(v1_events))
        streamed = HappensBeforeDetector().feed_all(v1_events)
        assert report_key(batched) == report_key(streamed)


class TestCorruptionRaises:
    def frame(self, compress=False):
        if compress:
            # Redundant enough that zlib genuinely shrinks the payload
            # (tiny incompressible segments keep the flag unset).
            events = [MemoryEvent(0, 0x10, 1, True)] * 60
        else:
            events = [MemoryEvent(0, 0x10, 1, True),
                      SyncEvent(1, SyncKind.LOCK, ("mutex", 2), 1, 3),
                      MemoryEvent(1, 0x10, 2, False)]
        return encode_segment(events, compress=compress)

    def test_truncated_payload(self):
        frame = self.frame()
        with pytest.raises(ValueError):
            decode_segment_columns(frame[:-4])

    def test_truncated_event_record(self):
        # Shrink the payload but fix up the header length so only the
        # per-record bounds check can catch it.
        frame = bytearray(self.frame())
        magic, version, flags, count, payload_len = _SEG_HEADER.unpack_from(
            frame, 0)
        cut = _SEG_HEADER.pack(magic, version, flags, count, payload_len - 3)
        frame[:_SEG_HEADER.size] = cut
        with pytest.raises((ValueError, struct.error)):
            decode_segment_columns(bytes(frame[:-3]))

    def test_trailing_bytes(self):
        frame = bytearray(self.frame())
        magic, version, flags, count, payload_len = _SEG_HEADER.unpack_from(
            frame, 0)
        # Claim one event fewer than the payload actually holds.
        frame[:_SEG_HEADER.size] = _SEG_HEADER.pack(magic, version, flags,
                                                    count - 1, payload_len)
        with pytest.raises(ValueError, match="trailing"):
            decode_segment_columns(bytes(frame))

    def test_bad_sync_kind_code(self):
        frame = bytearray(self.frame())
        # The sync record starts after the header + one memory record.
        sync_at = _SEG_HEADER.size + 13
        assert frame[sync_at] >= 2
        frame[sync_at] = 0xFF
        with pytest.raises(ValueError, match="kind"):
            decode_segment_columns(bytes(frame))

    def test_bad_domain_code(self):
        frame = bytearray(self.frame())
        sync_at = _SEG_HEADER.size + 13
        frame[sync_at + 1] = 0xEE
        with pytest.raises(ValueError, match="domain"):
            decode_segment_columns(bytes(frame))

    def test_damaged_zlib_payload(self):
        frame = bytearray(self.frame(compress=True) )
        if not _SEG_HEADER.unpack_from(frame, 0)[2] & FLAG_ZLIB:
            pytest.skip("stream too small to compress")
        frame[_SEG_HEADER.size + 2] ^= 0xFF
        with pytest.raises((zlib.error, ValueError)):
            decode_segment_columns(bytes(frame))

    def test_bad_magic(self):
        frame = bytearray(self.frame())
        frame[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            decode_segment_columns(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(self.frame())
        magic, _, flags, count, payload_len = _SEG_HEADER.unpack_from(frame, 0)
        frame[:_SEG_HEADER.size] = _SEG_HEADER.pack(magic, 99, flags, count,
                                                    payload_len)
        with pytest.raises(ValueError, match="version"):
            decode_segment_columns(bytes(frame))


class TestSegmentBatcher:
    """Frame-at-a-time reading is invisible relative to per-frame decode."""

    def encode_stream(self, events, *, per_frame=7, compress=False):
        return [encode_segment(events[i:i + per_frame], compress=compress)
                for i in range(0, max(len(events), 1), per_frame)]

    @settings(max_examples=40, deadline=None)
    @given(events=event_streams, compress=st.booleans())
    def test_batches_are_lossless(self, events, compress):
        frames = self.encode_stream(events, compress=compress)
        batches = []
        batcher = SegmentBatcher(batches.append)
        stream = b"".join(frames)
        offset = 0
        counts = []
        while offset < len(stream):
            count, offset = batcher.push(stream, offset)
            counts.append(count)
            # Each push hands its frame to the sink before returning.
            assert len(batches) == len(counts)
        assert sum(counts) == len(events)
        replayed = [e for batch in batches for e in batch.to_events()]
        assert replayed == events

    def test_detector_parity_with_per_frame_decode(self):
        events = []
        for i in range(200):
            events.append(MemoryEvent(i % 3, i % 5, i, i % 2 == 0))
            if i % 9 == 0:
                events.append(SyncEvent(i % 3, SyncKind.UNLOCK,
                                        ("mutex", i % 2), i, i))
        frames = self.encode_stream(events, per_frame=13)
        batched = FlatDetector("hb")
        batcher = SegmentBatcher(batched.feed_batch)
        for frame in frames:
            batcher.push(frame)
        per_frame = FlatDetector("hb")
        for frame in frames:
            per_frame.feed_batch(decode_segment_columns(frame)[0])
        assert report_key(batched) == report_key(per_frame)
        assert batched.events_processed == per_frame.events_processed

    def test_push_rejects_truncated_frame(self):
        frame = encode_segment([MemoryEvent(0, 1, 2, True)] * 4)
        batches = []
        batcher = SegmentBatcher(batches.append)
        with pytest.raises(ValueError):
            batcher.push(frame[:-5])
        # The bad frame never reached the sink; the batcher stays usable.
        assert batches == []
        batcher.push(frame)
        assert len(batches) == 1 and batches[0].count == 4

    def test_poisoned_frame_raises_at_its_own_push(self):
        good_a = [MemoryEvent(0, 1, 2, True),
                  SyncEvent(0, SyncKind.LOCK, ("mutex", 1), 1, 3)]
        bad = [MemoryEvent(1, 2, 3, False),
               SyncEvent(1, SyncKind.UNLOCK, ("mutex", 1), 2, 4)]
        good_b = [MemoryEvent(2, 3, 4, True)]
        frames = [encode_segment(s) for s in (good_a, bad, good_b)]
        # Poison the middle frame's sync kind code: the header is valid,
        # the payload is not.
        poisoned = bytearray(frames[1])
        poisoned[_SEG_HEADER.size + 13] = 0xFF
        frames[1] = bytes(poisoned)
        batches = []
        batcher = SegmentBatcher(batches.append)
        batcher.push(frames[0])
        with pytest.raises(ValueError, match="kind"):
            batcher.push(frames[1])
        batcher.push(frames[2])
        # Exactly the poisoned frame was dropped; its neighbors survived.
        assert [e for b in batches for e in b.to_events()] == good_a + good_b
