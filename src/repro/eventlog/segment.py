"""Framed log *segments*: the streaming unit of the telemetry service.

A per-thread log file (:mod:`repro.eventlog.encode`) is the right shape for
a log written once at the end of a run, but useless for *streaming*: a
client shipping events off the machine while the run is live cannot know
section sizes up front, and the telemetry server wants to analyze events
incrementally, not after the run.

A **segment** is the streaming unit: a self-delimiting frame holding a slice
of the event stream *in processing order* (each event carries its tid
explicitly, so the interleaving survives the wire — unlike a per-thread
file, which only preserves per-thread program order).  Producers guarantee
that the concatenation of a client's segments is a valid happens-before
processing order: either the true temporal order of a live run
(:class:`repro.service.client.TelemetrySink`) or the timestamp-merged order
of a saved log (:func:`repro.detector.merge.merge_thread_logs`).

Segment frame layout (little-endian)::

    magic b"LTRS" + version u16 (=3) + flags u16 + event-count u32
    + payload-length u32 + payload

where flags bit 0 selects zlib compression of the payload, and the payload
is one column block (:mod:`repro.eventlog.block`) with a tid column: a
memory event costs 13 bytes and a sync event 18.  A frame of any other
version is refused.

A segmented *file* (file version 2) is the log file header (magic
``b"LTRC"``, version 2, segment count in place of the section count)
followed by that many segment frames; :func:`repro.eventlog.encode.decode_log`
reads it.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

from .block import (
    _CODE_DOMAINS,
    _CODE_KINDS,
    _DOMAIN_CODES,
    _KIND_CODES,
    BlockTruncated,
    decode_block,
    encode_block,
)
from .events import Event, MemoryEvent, SyncEvent
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
SEGMENT_VERSION = 3

#: Flags bit 0: payload is zlib-compressed.
FLAG_ZLIB = 0x0001

_SEG_HEADER = struct.Struct("<4sHHII")


def encode_segment(events: Sequence[Event], *, compress: bool = False) -> bytes:
    """Serialize ``events`` (in processing order) to one segment frame."""
    payload = encode_block(events, with_tids=True)
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

    Layout: ``ops``/``tids``/``addrs``/``pcs`` are parallel sequences of
    length ``count`` in stream order.  ``ops[i]`` is the wire kind code
    (0 = read, 1 = write, 2+ = sync kind); for memory events ``addrs[i]``
    is the accessed address, for sync events it is the SyncVar identifier.
    The two sync-only columns (``sync_domains``, ``sync_timestamps``) are
    packed densely — the *j*-th sync event in the stream reads its domain
    code and timestamp at index *j* — as in the column block on the wire.

    Readers only index, slice and iterate the columns.  The decoders hand
    them out as they unpack a block: ``bytes`` for the two code columns
    and tuples (or lists) for the others; :func:`columns_from_events` and
    the timestamp merge build lists.
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

    This is the hot decode path: one ``struct.unpack_from`` per column of
    the payload's block, with no event-object or enum allocation and no
    Python loop per event.  Corrupt payloads raise (bad kind/domain codes,
    trailing bytes, a block cut short) — a poisoned segment must never
    silently mis-detect.
    """
    count = segment_event_count(data, offset)
    _, _, flags, _, payload_len = _SEG_HEADER.unpack_from(data, offset)
    start = offset + _SEG_HEADER.size
    frame_end = start + payload_len
    payload, at, limit = data, start, frame_end
    if flags & FLAG_ZLIB:
        payload = zlib.decompress(data[start:frame_end])
        at, limit = 0, len(payload)
    try:
        block, end = decode_block(payload, at, count, limit, with_tids=True)
    except BlockTruncated:
        raise ValueError("truncated event in segment payload") from None
    if end != limit:
        raise ValueError("trailing bytes in segment payload")
    cols = SegmentColumns()
    (cols.ops, cols.tids, cols.addrs, cols.pcs, cols.sync_domains,
     cols.sync_timestamps) = block
    cols.count = count
    cols.sync_count = len(cols.sync_domains)
    cols.memory_count = count - cols.sync_count
    return cols, frame_end


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
    and ``repro analyze`` walking a segmented log.  ``push`` decodes one
    frame with :func:`decode_segment_columns` and hands its columns to the
    sink before returning, so when ``push`` returns the frame has been
    analyzed, and a decode error is raised by the push of the frame that
    caused it, before the sink sees any of that frame.  Nothing is ever
    held back, so ``flush`` has nothing to drain.
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
