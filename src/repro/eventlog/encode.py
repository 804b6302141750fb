"""Byte-accurate binary encoding of event logs.

Log *volume* is one of the paper's headline overhead metrics (Table 5
reports MB/s for LiteRace vs full logging), so the encoding is real: events
serialize to bytes with the layout below, and sizes are measured on the
wire, not estimated.

Wire format (little-endian):

* File header: magic ``b"LTRC"`` + version u16 + thread-section count u16.
* Per-thread section: tid u32 + event count u32, then that thread's events
  in program order (tids are therefore *not* repeated per event, matching
  the paper's per-thread log buffers).
* Memory event: kind byte (0 = read, 1 = write) + addr u32 + pc u32
  — 9 bytes, the "addresses and program counter values" of §3.3.
* Sync event: kind byte (2 + SyncKind index) + var-domain byte + var-id u32
  + timestamp u32 + pc u32 — 14 bytes, the "memory addresses of the
  synchronization variables along with their timestamps".

That layout is **version 1**.  **Version 2** (the telemetry-service format,
:mod:`repro.eventlog.segment`) replaces the per-thread sections with framed
*segments* carrying the event stream in processing order, with optional
zlib compression; the file header is unchanged except that the count field
holds the number of segments.  :func:`decode_log` reads both versions;
:func:`encode_log` writes v1 by default and v2 on request.

A v1 file has one parser, :func:`decode_log_columns`: it reads the thread
sections straight into :class:`~repro.eventlog.segment.SegmentColumns` plus
each section's ``(tid, start, stop)`` column range, with no event objects.
``repro analyze`` hands those to the columnar timestamp merge
(:func:`repro.detector.merge.merge_thread_columns`), and :func:`decode_log`
materializes events from them, as ``decode_segment`` does on top of the v2
column decoder.  Corrupt input raises ``ValueError`` naming the damage, in
either version.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, List, Tuple

from .events import MemoryEvent, SyncKind
from .log import EventLog

if TYPE_CHECKING:  # pragma: no cover - segment imports this module
    from .segment import SegmentColumns

__all__ = [
    "encode_log",
    "decode_log",
    "decode_log_columns",
    "encoded_size",
    "read_log_header",
    "MEMORY_EVENT_BYTES",
    "SYNC_EVENT_BYTES",
]

_MAGIC = b"LTRC"
_VERSION = 1
_VERSION_SEGMENTED = 2

MEMORY_EVENT_BYTES = 9
SYNC_EVENT_BYTES = 14

_HEADER = struct.Struct("<4sHH")
_SECTION = struct.Struct("<II")
_MEMORY = struct.Struct("<BII")
_SYNC = struct.Struct("<BBIII")

_KIND_CODES: Dict[SyncKind, int] = {kind: 2 + i for i, kind in enumerate(SyncKind)}
_CODE_KINDS: Dict[int, SyncKind] = {code: kind for kind, code in _KIND_CODES.items()}
#: Highest valid sync kind code on the wire (codes are 2 + SyncKind index).
_MAX_KIND_CODE = max(_CODE_KINDS)

_DOMAIN_CODES = {"mutex": 0, "event": 1, "thread": 2, "atomic": 3, "page": 4}
_CODE_DOMAINS = {code: name for name, code in _DOMAIN_CODES.items()}

_PC_NONE = 0xFFFF_FFFF


def _encode_pc(pc: int) -> int:
    return _PC_NONE if pc < 0 else pc


def encode_log(log: EventLog, *, version: int = 1,
               compress: bool = False,
               segment_events: int = 4096) -> bytes:
    """Serialize ``log`` to its on-disk representation.

    ``version=1`` (the default) writes the per-thread-section layout;
    ``compress`` is rejected there because v1 readers predate it.
    ``version=2`` writes framed segments preserving the global stream
    order, optionally zlib-compressed, ``segment_events`` per frame.
    """
    if version == _VERSION_SEGMENTED:
        from .segment import split_log

        frames = split_log(log, segment_events=segment_events,
                           compress=compress)
        if len(frames) > 0xFFFF:
            raise ValueError("too many segments for one file; "
                             "raise segment_events")
        parts = [_HEADER.pack(_MAGIC, _VERSION_SEGMENTED, len(frames))]
        parts.extend(frames)
        return b"".join(parts)
    if version != _VERSION:
        raise ValueError(f"unknown log version {version}")
    if compress:
        raise ValueError("compression requires version=2")
    streams = log.per_thread()
    parts: List[bytes] = [_HEADER.pack(_MAGIC, _VERSION, len(streams))]
    for tid in sorted(streams):
        events = streams[tid]
        parts.append(_SECTION.pack(tid, len(events)))
        for event in events:
            if isinstance(event, MemoryEvent):
                parts.append(
                    _MEMORY.pack(int(event.is_write),
                                 event.addr & 0xFFFF_FFFF,
                                 _encode_pc(event.pc))
                )
            else:
                domain, ident = event.var
                parts.append(
                    _SYNC.pack(_KIND_CODES[event.kind],
                               _DOMAIN_CODES[domain],
                               ident & 0xFFFF_FFFF,
                               event.timestamp & 0xFFFF_FFFF,
                               _encode_pc(event.pc))
                )
    return b"".join(parts)


def read_log_header(data: bytes):
    """Parse a log file header without touching the body.

    Returns ``(version, section_count, body_offset)`` — for v2 logs
    ``section_count`` is the number of segment frames starting at
    ``body_offset``, which lets columnar consumers walk the frames
    directly instead of materializing event objects via
    :func:`decode_log`.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated log header")
    magic, version, section_count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("not a LiteRace log (bad magic)")
    return version, section_count, _HEADER.size


def decode_log_columns(data: bytes) -> Tuple[SegmentColumns,
                                             List[Tuple[int, int, int]]]:
    """Parse a v1 log straight into columns, with no event objects.

    Returns ``(cols, sections)``: ``cols`` is a
    :class:`~repro.eventlog.segment.SegmentColumns` holding every event of
    the file, section after section as stored (so each thread's events
    stay in program order), and ``sections`` lists ``(tid, start, stop)``,
    the column range of each non-empty thread section, sorted by tid.
    That is the input of :func:`repro.detector.merge.merge_thread_columns`,
    which rebuilds a processing order from the sync timestamps.

    Corrupt input raises ``ValueError`` naming the problem: a truncated
    header, section header or record, a bad sync kind or SyncVar domain
    code, trailing bytes, or a second section for a tid already seen.
    Empty sections are accepted; they list no range and count as no
    thread.
    """
    from .segment import SegmentColumns

    version, section_count, offset = read_log_header(data)
    if version != _VERSION:
        raise ValueError(f"unsupported log version {version}")
    cols = SegmentColumns()
    ops = cols.ops
    tids = cols.tids
    addrs = cols.addrs
    pcs = cols.pcs
    domains = cols.sync_domains
    timestamps = cols.sync_timestamps
    memory_unpack = _MEMORY.unpack_from
    sync_unpack = _SYNC.unpack_from
    memory_size = _MEMORY.size
    sync_size = _SYNC.size
    end = len(data)
    sections: List[Tuple[int, int, int]] = []
    seen = set()
    for _ in range(section_count):
        if end - offset < _SECTION.size:
            raise ValueError("truncated section header")
        tid, count = _SECTION.unpack_from(data, offset)
        offset += _SECTION.size
        if tid in seen:
            raise ValueError(f"second section for thread {tid}")
        seen.add(tid)
        start = len(ops)
        try:
            for _ in range(count):
                # Most records are memory events: read one as such and
                # re-read it as a sync record only if its kind says so.
                kind_code, addr, pc = memory_unpack(data, offset)
                if kind_code < 2:
                    offset += memory_size
                    ops.append(kind_code)
                    addrs.append(addr)
                    pcs.append(pc)
                else:
                    _, domain_code, ident, ts, pc = sync_unpack(data, offset)
                    offset += sync_size
                    if kind_code > _MAX_KIND_CODE:
                        raise ValueError(f"bad sync kind code {kind_code}")
                    if domain_code not in _CODE_DOMAINS:
                        raise ValueError(
                            f"bad sync-var domain code {domain_code}")
                    ops.append(kind_code)
                    addrs.append(ident)
                    pcs.append(pc)
                    domains.append(domain_code)
                    timestamps.append(ts)
        except struct.error:
            raise ValueError(f"truncated record in the section of thread "
                             f"{tid}") from None
        if count:
            tids += [tid] * count
            sections.append((tid, start, start + count))
    if offset != end:
        raise ValueError("trailing bytes after last section")
    if _PC_NONE in pcs:
        cols.pcs = [-1 if pc == _PC_NONE else pc for pc in pcs]
    cols.count = len(ops)
    cols.sync_count = len(timestamps)
    cols.memory_count = cols.count - cols.sync_count
    sections.sort()
    return cols, sections


def decode_log(data: bytes) -> EventLog:
    """Parse bytes produced by :func:`encode_log` back into an event log.

    Both versions are read.  For v1, per-thread program order is preserved
    but the interleaving *between* threads is not on the wire (it never is,
    for a real tool) — the offline detector reconstructs it from
    timestamps; the log holds the threads one after another in tid order.
    Implemented on :func:`decode_log_columns`, so v1 has one parser.  For
    v2 the segment stream order *is* the interleaving the producer saw, and
    it survives the round trip.
    """
    version, section_count, offset = read_log_header(data)
    log = EventLog()
    if version == _VERSION_SEGMENTED:
        from .segment import decode_segment

        for _ in range(section_count):
            events, offset = decode_segment(data, offset)
            log.extend(events)
        if offset != len(data):
            raise ValueError("trailing bytes after last segment")
        return log
    cols, sections = decode_log_columns(data)
    events = cols.to_events()
    for _, start, stop in sections:
        log.extend(events[start:stop])
    return log


def encoded_size(log: EventLog) -> int:
    """Size in bytes of ``log`` on the wire, without materializing it."""
    # One section per thread that logged anything, as in encode_log.
    sections = len({event.tid for event in log.events})
    return (
        _HEADER.size
        + _SECTION.size * sections
        + MEMORY_EVENT_BYTES * log.memory_count
        + SYNC_EVENT_BYTES * log.sync_count
    )
