"""Framed log *segments*: the version-2 wire format (telemetry service).

The version-1 format of :mod:`repro.eventlog.encode` serializes a finished
log as per-thread sections — the right shape for a file written once at the
end of a run, but useless for *streaming*: a client shipping events off the
machine while the run is live cannot know section sizes up front, and the
telemetry server wants to analyze events incrementally, not after the run.

A **segment** is the streaming unit: a self-delimiting frame holding a slice
of the event stream *in processing order* (each event carries its tid
explicitly, so the interleaving survives the wire — unlike v1, which only
preserves per-thread program order).  Producers guarantee that the
concatenation of a client's segments is a valid happens-before processing
order: either the true temporal order of a live run
(:class:`repro.service.client.TelemetrySink`) or the timestamp-merged order
of a saved log (:func:`repro.detector.merge.merge_thread_logs`).

Segment frame layout (little-endian)::

    magic b"LTRS" + version u16 (=2) + flags u16 + event-count u32
    + payload-length u32 + payload

where flags bit 0 selects zlib compression of the payload, and the payload
packs events back to back:

* memory event: kind u8 (0 = read, 1 = write) + tid u32 + addr u32 + pc u32
* sync event:   kind u8 (2 + SyncKind index) + var-domain u8 + tid u32
  + var-id u32 + timestamp u32 + pc u32

A version-2 *file* is the v1 file header (magic ``b"LTRC"``, version 2,
segment count in place of the section count) followed by that many segment
frames; :func:`repro.eventlog.encode.decode_log` reads both versions.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

from .events import Event, MemoryEvent, SyncEvent
from .encode import (
    _CODE_DOMAINS,
    _CODE_KINDS,
    _DOMAIN_CODES,
    _KIND_CODES,
    _MAX_KIND_CODE,
    _PC_NONE,
    _encode_pc,
)
from .log import EventLog

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "FLAG_ZLIB",
    "SegmentColumns",
    "SegmentBatcher",
    "encode_segment",
    "decode_segment",
    "decode_segment_columns",
    "columns_from_events",
    "segment_event_count",
    "split_log",
]

SEGMENT_MAGIC = b"LTRS"
SEGMENT_VERSION = 2

#: Flags bit 0: payload is zlib-compressed.
FLAG_ZLIB = 0x0001

_SEG_HEADER = struct.Struct("<4sHHII")
_MEMORY2 = struct.Struct("<BIII")
_SYNC2 = struct.Struct("<BBIIII")


def _pack_events(events: Sequence[Event]) -> bytes:
    parts: List[bytes] = []
    for event in events:
        if isinstance(event, MemoryEvent):
            parts.append(_MEMORY2.pack(int(event.is_write),
                                       event.tid & 0xFFFF_FFFF,
                                       event.addr & 0xFFFF_FFFF,
                                       _encode_pc(event.pc)))
        else:
            domain, ident = event.var
            parts.append(_SYNC2.pack(_KIND_CODES[event.kind],
                                     _DOMAIN_CODES[domain],
                                     event.tid & 0xFFFF_FFFF,
                                     ident & 0xFFFF_FFFF,
                                     event.timestamp & 0xFFFF_FFFF,
                                     _encode_pc(event.pc)))
    return b"".join(parts)


def encode_segment(events: Sequence[Event], *, compress: bool = False) -> bytes:
    """Serialize ``events`` (in processing order) to one segment frame."""
    payload = _pack_events(events)
    flags = 0
    if compress:
        packed = zlib.compress(payload)
        # Tiny segments can grow under zlib; keep whichever is smaller so
        # the flag always means "this payload needs inflating".
        if len(packed) < len(payload):
            payload = packed
            flags |= FLAG_ZLIB
    return _SEG_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, flags,
                            len(events), len(payload)) + payload


def segment_event_count(data: bytes, offset: int = 0) -> int:
    """Events in the segment frame at ``offset``, validating its header."""
    if len(data) - offset < _SEG_HEADER.size:
        raise ValueError("truncated segment header")
    magic, version, _, count, payload_len = _SEG_HEADER.unpack_from(data, offset)
    if magic != SEGMENT_MAGIC:
        raise ValueError("not a LiteRace segment (bad magic)")
    if version != SEGMENT_VERSION:
        raise ValueError(f"unsupported segment version {version}")
    if len(data) - offset - _SEG_HEADER.size < payload_len:
        raise ValueError("truncated segment payload")
    return count


class SegmentColumns:
    """One decoded segment as parallel columns — no per-event objects.

    The batched detector hot path (:class:`repro.detector.flat.FlatDetector`)
    consumes these directly; ``to_events()`` materializes the traditional
    object stream for the compatibility path and for tests.

    Layout: ``ops``/``tids``/``addrs``/``pcs`` are parallel lists of length
    ``count`` in stream order.  ``ops[i]`` is the wire kind code (0 = read,
    1 = write, 2+ = sync kind); for memory events ``addrs[i]`` is the
    accessed address, for sync events it is the SyncVar identifier.  The two
    sync-only columns (``sync_domains``, ``sync_timestamps``) are packed
    densely — the *j*-th sync event in the stream reads its domain code and
    timestamp at index *j* — so the memory-event common case pays for four
    list appends, not six.
    """

    __slots__ = ("count", "ops", "tids", "addrs", "pcs",
                 "sync_domains", "sync_timestamps",
                 "memory_count", "sync_count")

    def __init__(self):
        self.count = 0
        self.ops: List[int] = []
        self.tids: List[int] = []
        self.addrs: List[int] = []
        self.pcs: List[int] = []
        self.sync_domains: List[int] = []
        self.sync_timestamps: List[int] = []
        self.memory_count = 0
        self.sync_count = 0

    def to_events(self) -> List[Event]:
        """Materialize the columns back into the object event stream."""
        events: List[Event] = []
        append = events.append
        domains = self.sync_domains
        timestamps = self.sync_timestamps
        j = 0
        for i in range(self.count):
            op = self.ops[i]
            if op < 2:
                append(MemoryEvent(self.tids[i], self.addrs[i],
                                   self.pcs[i], bool(op)))
            else:
                domain = domains[j]
                append(SyncEvent(self.tids[i], _CODE_KINDS[op],
                                 (_CODE_DOMAINS.get(domain, domain),
                                  self.addrs[i]),
                                 timestamps[j], self.pcs[i]))
                j += 1
        return events


def columns_from_events(events: Sequence[Event]) -> SegmentColumns:
    """Convert an in-memory event stream into :class:`SegmentColumns`.

    This is the entry ramp into the batched detector path for producers
    that still hold object streams (saved logs, the per-event ``feed``
    compatibility shims).  Unknown SyncVar domains (possible only for
    in-memory events, never on the wire) pass through unchanged.
    """
    cols = SegmentColumns()
    ops = cols.ops
    tids = cols.tids
    addrs = cols.addrs
    pcs = cols.pcs
    domains = cols.sync_domains
    timestamps = cols.sync_timestamps
    n = 0
    syncs = 0
    for event in events:
        if isinstance(event, MemoryEvent):
            ops.append(1 if event.is_write else 0)
            tids.append(event.tid)
            addrs.append(event.addr)
            pcs.append(event.pc)
        else:
            domain, ident = event.var
            ops.append(_KIND_CODES[event.kind])
            tids.append(event.tid)
            addrs.append(ident)
            pcs.append(event.pc)
            domains.append(_DOMAIN_CODES.get(domain, domain))
            timestamps.append(event.timestamp)
            syncs += 1
        n += 1
    cols.count = n
    cols.sync_count = syncs
    cols.memory_count = n - syncs
    return cols


def decode_segment_columns(data: bytes,
                           offset: int = 0) -> Tuple[SegmentColumns, int]:
    """Parse one segment frame at ``offset`` into columns.

    This is the hot decode path: one pass over the payload appending plain
    ints into parallel lists, with no event-object or enum allocation.
    Corrupt payloads raise (bad kind/domain codes, trailing bytes, short
    records) — a poisoned segment must never silently mis-detect.
    """
    count = segment_event_count(data, offset)
    _, _, flags, _, payload_len = _SEG_HEADER.unpack_from(data, offset)
    start = offset + _SEG_HEADER.size
    payload = bytes(data[start:start + payload_len])
    if flags & FLAG_ZLIB:
        payload = zlib.decompress(payload)
    cols = SegmentColumns()
    ops = cols.ops
    tids = cols.tids
    addrs = cols.addrs
    pcs = cols.pcs
    domains = cols.sync_domains
    timestamps = cols.sync_timestamps
    memory_unpack = _MEMORY2.unpack_from
    sync_unpack = _SYNC2.unpack_from
    memory_size = _MEMORY2.size
    sync_size = _SYNC2.size
    payload_end = len(payload)
    pos = 0
    syncs = 0
    for _ in range(count):
        if pos >= payload_end:
            raise ValueError("truncated event in segment payload")
        kind_code = payload[pos]
        if kind_code < 2:
            flag, tid, addr, pc = memory_unpack(payload, pos)
            pos += memory_size
            ops.append(flag)
            tids.append(tid)
            addrs.append(addr)
            pcs.append(-1 if pc == _PC_NONE else pc)
        else:
            code, domain_code, tid, ident, ts, pc = sync_unpack(payload, pos)
            pos += sync_size
            if code > _MAX_KIND_CODE:
                raise ValueError(f"bad sync kind code {code}")
            if domain_code not in _CODE_DOMAINS:
                raise ValueError(f"bad sync-var domain code {domain_code}")
            ops.append(code)
            tids.append(tid)
            addrs.append(ident)
            pcs.append(-1 if pc == _PC_NONE else pc)
            domains.append(domain_code)
            timestamps.append(ts)
            syncs += 1
    if pos != payload_end:
        raise ValueError("trailing bytes in segment payload")
    cols.count = count
    cols.sync_count = syncs
    cols.memory_count = count - syncs
    return cols, start + payload_len


def decode_segment(data: bytes, offset: int = 0) -> Tuple[List[Event], int]:
    """Parse one segment frame at ``offset``.

    Returns the decoded events (stream order, tids preserved) and the offset
    of the first byte after the frame.  Implemented on top of
    :func:`decode_segment_columns` so the object path and the columnar hot
    path can never drift apart.
    """
    cols, end = decode_segment_columns(data, offset)
    return cols.to_events(), end


class SegmentBatcher:
    """Read encoded frames one at a time straight into a columns sink.

    Both streaming readers go through this: a detector worker feeding each
    SEGMENT frame as it arrives (:class:`repro.service.shard.ShardDetector`)
    and ``repro analyze`` walking a v2 log.  ``push`` decodes one frame
    with :func:`decode_segment_columns` and hands its columns to the sink
    before returning, so when ``push`` returns the frame has been analyzed,
    and a decode error is raised by the push of the frame that caused it,
    before the sink sees any of that frame.  Nothing is ever held back, so
    ``flush`` has nothing to drain.
    """

    def __init__(self, sink):
        self._sink = sink

    def push(self, data: bytes, offset: int = 0) -> Tuple[int, int]:
        """Decode the frame at ``offset`` and feed it to the sink.

        Returns ``(event_count, end)`` where ``end`` is the offset of the
        first byte after the frame, so callers can walk a concatenated
        frame stream without re-parsing headers.
        """
        cols, end = decode_segment_columns(data, offset)
        self._sink(cols)
        return cols.count, end

    def flush(self) -> None:
        """Nothing to drain: every pushed frame already reached the sink.

        Kept because the benchmark harness wraps ``push`` and ``flush``
        by name.
        """


def split_log(log: EventLog, *, segment_events: int = 512,
              compress: bool = False) -> List[bytes]:
    """Chop ``log``'s global event stream into encoded segment frames.

    The stream order is preserved across the segment boundary, so feeding
    the decoded segments to a detector in order replays the log exactly.
    """
    if segment_events < 1:
        raise ValueError("segment_events must be >= 1")
    frames: List[bytes] = []
    events = log.events
    for start in range(0, len(events), segment_events):
        frames.append(encode_segment(events[start:start + segment_events],
                                     compress=compress))
    return frames
