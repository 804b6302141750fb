"""Byte-accurate binary encoding of event logs.

Log *volume* is one of the paper's headline overhead metrics (Table 5
reports MB/s for LiteRace vs full logging), so the encoding is real: events
serialize to bytes with the layout below, and sizes are measured on the
wire, not estimated.

File format (little-endian):

* File header: magic ``b"LTRC"`` + version u16 + section count u16.
* **Version 3**, the per-thread log and the default: one section per
  thread, tid u32 + event count u32, then that thread's events in program
  order as one column block (:mod:`repro.eventlog.block`).  Tids are
  therefore *not* repeated per event, matching the paper's per-thread log
  buffers: a memory event costs 9 bytes (kind, address, pc — the
  "addresses and program counter values" of §3.3) and a sync event 14
  (plus SyncVar domain and timestamp, the "memory addresses of the
  synchronization variables along with their timestamps").
* **Version 2**, the segmented log: the count field holds the number of
  segment frames (:mod:`repro.eventlog.segment`) that follow.  Segments
  carry the event stream in processing order, with tids, optionally
  zlib-compressed.

:func:`encode_log` writes version 3 by default and version 2 on request;
:func:`decode_log` reads both.  Any other version, including the row
layout of version 1, is refused.

A per-thread file has one parser, :func:`decode_log_columns`: it reads
each section's block straight into
:class:`~repro.eventlog.segment.SegmentColumns` plus the section's
``(tid, start, stop)`` column range, with no event objects.  ``repro
analyze`` hands those to the columnar timestamp merge
(:func:`repro.detector.merge.merge_thread_columns`), and :func:`decode_log`
materializes events from them, as ``decode_segment`` does on top of the
segment column decoder.  Corrupt input raises ``ValueError`` naming the
damage, in either version.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .block import (
    MEMORY_EVENT_BYTES,
    SYNC_EVENT_BYTES,
    BlockTruncated,
    decode_block,
    encode_block,
)
from .log import EventLog
from .segment import SegmentColumns, decode_segment, split_log

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
_VERSION_THREADS = 3
_VERSION_SEGMENTED = 2

_HEADER = struct.Struct("<4sHH")
_SECTION = struct.Struct("<II")


def encode_log(log: EventLog, *, version: int = _VERSION_THREADS,
               compress: bool = False,
               segment_events: int = 4096) -> bytes:
    """Serialize ``log`` to its on-disk representation.

    ``version=3`` (the default) writes one section per thread;
    ``compress`` is rejected there.  ``version=2`` writes framed segments
    preserving the global stream order, optionally zlib-compressed,
    ``segment_events`` per frame.
    """
    if version == _VERSION_SEGMENTED:
        frames = split_log(log, segment_events=segment_events,
                           compress=compress)
        if len(frames) > 0xFFFF:
            raise ValueError("too many segments for one file; "
                             "raise segment_events")
        parts = [_HEADER.pack(_MAGIC, _VERSION_SEGMENTED, len(frames))]
        parts.extend(frames)
        return b"".join(parts)
    if version != _VERSION_THREADS:
        raise ValueError(f"unknown log version {version}")
    if compress:
        raise ValueError("compression requires version=2")
    streams = log.per_thread()
    parts: List[bytes] = [_HEADER.pack(_MAGIC, _VERSION_THREADS,
                                       len(streams))]
    for tid in sorted(streams):
        events = streams[tid]
        parts.append(_SECTION.pack(tid, len(events)))
        parts.append(encode_block(events, with_tids=False))
    return b"".join(parts)


def read_log_header(data: bytes):
    """Parse a log file header without touching the body.

    Returns ``(version, section_count, body_offset)`` — for segmented
    logs ``section_count`` is the number of segment frames starting at
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
    """Parse a per-thread log straight into columns, with no event objects.

    Returns ``(cols, sections)``: ``cols`` is a
    :class:`~repro.eventlog.segment.SegmentColumns` holding every event of
    the file, section after section as stored (so each thread's events
    stay in program order), and ``sections`` lists ``(tid, start, stop)``,
    the column range of each non-empty thread section, sorted by tid.
    That is the input of :func:`repro.detector.merge.merge_thread_columns`,
    which rebuilds a processing order from the sync timestamps.

    Corrupt input raises ``ValueError`` naming the problem: a truncated
    header, section header or block, a bad sync kind or SyncVar domain
    code, trailing bytes, or a second section for a tid already seen.
    Empty sections are accepted; they list no range and count as no
    thread.
    """
    version, section_count, offset = read_log_header(data)
    if version != _VERSION_THREADS:
        raise ValueError(f"unsupported log version {version}")
    cols = SegmentColumns()
    tids = cols.tids
    addrs = cols.addrs
    pcs = cols.pcs
    timestamps = cols.sync_timestamps
    kinds: List[bytes] = []
    domains: List[bytes] = []
    end = len(data)
    sections: List[Tuple[int, int, int]] = []
    seen = set()
    start = 0
    for _ in range(section_count):
        if end - offset < _SECTION.size:
            raise ValueError("truncated section header")
        tid, count = _SECTION.unpack_from(data, offset)
        offset += _SECTION.size
        if tid in seen:
            raise ValueError(f"second section for thread {tid}")
        seen.add(tid)
        try:
            (section_kinds, _, section_addrs, section_pcs, section_domains,
             section_timestamps), offset = decode_block(
                data, offset, count, end, with_tids=False)
        except BlockTruncated:
            raise ValueError(f"truncated record in the section of thread "
                             f"{tid}") from None
        if count:
            kinds.append(section_kinds)
            tids += [tid] * count
            addrs += section_addrs
            pcs += section_pcs
            domains.append(section_domains)
            timestamps += section_timestamps
            sections.append((tid, start, start + count))
            start += count
    if offset != end:
        raise ValueError("trailing bytes after last section")
    cols.ops = b"".join(kinds)
    cols.sync_domains = b"".join(domains)
    cols.count = start
    cols.sync_count = len(cols.sync_domains)
    cols.memory_count = cols.count - cols.sync_count
    sections.sort()
    return cols, sections


def decode_log(data: bytes) -> EventLog:
    """Parse bytes produced by :func:`encode_log` back into an event log.

    Both versions are read.  For a per-thread log, program order is
    preserved but the interleaving *between* threads is not on the wire
    (it never is, for a real tool) — the offline detector reconstructs it
    from timestamps; the log holds the threads one after another in tid
    order.  Implemented on :func:`decode_log_columns`, so that format has
    one parser.  For a segmented log the segment stream order *is* the
    interleaving the producer saw, and it survives the round trip.
    """
    version, section_count, offset = read_log_header(data)
    log = EventLog()
    if version == _VERSION_SEGMENTED:
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
