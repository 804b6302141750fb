"""Tests for the v2 segmented wire format (repro.eventlog.segment).

Round-trip fidelity is checked property-style over random event streams —
with and without zlib — because the telemetry service's exactness argument
starts with "the segment stream replays the producer's event order
byte-for-byte".
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.eventlog.encode import decode_log, encode_log
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.log import EventLog
from repro.eventlog.segment import (
    FLAG_ZLIB,
    decode_segment,
    encode_segment,
    segment_event_count,
    split_log,
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


class TestSegmentRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(events=event_streams, compress=st.booleans())
    def test_round_trip_preserves_stream_order(self, events, compress):
        frame = encode_segment(events, compress=compress)
        decoded, consumed = decode_segment(frame)
        assert consumed == len(frame)
        assert decoded == events

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams, compress=st.booleans(),
           segment_events=st.integers(1, 17))
    def test_split_log_concatenates_back(self, events, compress,
                                         segment_events):
        frames = split_log(make_log(events), segment_events=segment_events,
                           compress=compress)
        rejoined = []
        for frame in frames:
            decoded, _ = decode_segment(frame)
            rejoined.extend(decoded)
        assert rejoined == events

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams, compress=st.booleans())
    def test_v2_file_round_trip_preserves_interleaving(self, events,
                                                       compress):
        log = make_log(events)
        data = encode_log(log, version=2, compress=compress,
                          segment_events=13)
        decoded = decode_log(data)
        assert decoded.events == events
        assert decoded.sync_count == log.sync_count
        assert decoded.memory_count == log.memory_count

    def test_compression_actually_shrinks_redundant_streams(self):
        events = [MemoryEvent(0, 0x1000, 5, True)] * 500
        plain = encode_segment(events)
        packed = encode_segment(events, compress=True)
        assert len(packed) < len(plain) // 4
        decoded, _ = decode_segment(packed)
        assert decoded == events

    def test_tiny_segment_skips_useless_compression(self):
        # One event cannot shrink under zlib; the flag must then be clear
        # so readers never inflate a raw payload.
        frame = encode_segment([MemoryEvent(0, 1, 2, True)], compress=True)
        flags = int.from_bytes(frame[6:8], "little")
        assert not flags & FLAG_ZLIB
        decoded, _ = decode_segment(frame)
        assert decoded == [MemoryEvent(0, 1, 2, True)]


class TestSegmentValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_segment(b"XXXX" + b"\x00" * 12)

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            segment_event_count(b"LTRS\x02\x00")

    def test_truncated_payload_rejected(self):
        frame = encode_segment([MemoryEvent(0, 1, 2, True)])
        with pytest.raises(ValueError, match="truncated"):
            decode_segment(frame[:-1])

    def test_v1_encoder_rejects_compression(self):
        with pytest.raises(ValueError, match="version"):
            encode_log(EventLog(), compress=True)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            encode_log(EventLog(), version=7)

    def test_v1_files_still_decode(self):
        log = make_log([SyncEvent(0, SyncKind.LOCK, ("mutex", 1), 1, 0),
                        MemoryEvent(0, 64, 2, True)])
        decoded = decode_log(encode_log(log, version=1))
        assert decoded.sync_count == 1 and decoded.memory_count == 1
