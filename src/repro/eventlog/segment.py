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

import re
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
from ..numpy_support import HAVE_NUMPY, np

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "FLAG_ZLIB",
    "DEFAULT_BATCH_EVENTS",
    "SegmentColumns",
    "NumpySegmentColumns",
    "SegmentBatcher",
    "concat_columns",
    "encode_segment",
    "decode_segment",
    "decode_segment_columns",
    "decode_segment_columns_numpy",
    "decode_segment_columns_fast",
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
    return _decode_payload_list(payload, count), start + payload_len


def _decode_payload_list(payload: bytes, count: int) -> SegmentColumns:
    """One validating pass over a raw payload of ``count`` records."""
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
    return cols


def decode_segment(data: bytes, offset: int = 0) -> Tuple[List[Event], int]:
    """Parse one segment frame at ``offset``.

    Returns the decoded events (stream order, tids preserved) and the offset
    of the first byte after the frame.  Implemented on top of
    :func:`decode_segment_columns` so the object path and the columnar hot
    path can never drift apart.
    """
    cols, end = decode_segment_columns(data, offset)
    return cols.to_events(), end


# -- numpy-backed columns ----------------------------------------------------

class NumpySegmentColumns(SegmentColumns):
    """:class:`SegmentColumns` whose parallel columns are int64 ndarrays.

    Shape-compatible with the list-backed base (same slots, same counts),
    so any consumer that only reads counts or iterates works unchanged; the
    vectorized pre-filter kernel (:mod:`repro.detector.vectorized`) wants
    exactly these arrays.  ``as_list_columns`` converts back for consumers
    that index with Python-int semantics (the pure slow loop keys dicts
    with column values, and ``np.int64`` keys would hash-equal but compare
    slower).
    """

    __slots__ = ()

    def as_list_columns(self) -> SegmentColumns:
        cols = SegmentColumns()
        cols.count = self.count
        cols.ops = self.ops.tolist()
        cols.tids = self.tids.tolist()
        cols.addrs = self.addrs.tolist()
        cols.pcs = self.pcs.tolist()
        cols.sync_domains = (self.sync_domains.tolist()
                             if not isinstance(self.sync_domains, list)
                             else self.sync_domains)
        cols.sync_timestamps = (self.sync_timestamps.tolist()
                                if not isinstance(self.sync_timestamps, list)
                                else self.sync_timestamps)
        cols.memory_count = self.memory_count
        cols.sync_count = self.sync_count
        return cols

    def to_events(self) -> List[Event]:
        return self.as_list_columns().to_events()


if HAVE_NUMPY:
    # Wire records are packed (no padding), so structured dtypes with
    # explicit offsets read them zero-copy straight out of the payload.
    _MEM_DTYPE = np.dtype({
        "names": ["kind", "tid", "addr", "pc"],
        "formats": ["u1", "<u4", "<u4", "<u4"],
        "offsets": [0, 1, 5, 9], "itemsize": _MEMORY2.size})
    _SYNC_DTYPE = np.dtype({
        "names": ["kind", "domain", "tid", "ident", "ts", "pc"],
        "formats": ["u1", "u1", "<u4", "<u4", "<u4", "<u4"],
        "offsets": [0, 1, 2, 6, 10, 14], "itemsize": _SYNC2.size})
    _DOMAIN_OK = np.zeros(256, dtype=bool)
    _DOMAIN_OK[list(_CODE_DOMAINS)] = True
    _MEM_ROW = np.arange(_MEMORY2.size, dtype=np.int64)
    _SYNC_ROW = np.arange(_SYNC2.size, dtype=np.int64)
    # One alternation per record shape, each greedily repeated: every match
    # is a maximal run of same-shape records, so the tokenizer does the
    # boundary hunt in C no matter how the shapes interleave.  A kind byte
    # outside both classes simply stops the match — caught as corruption.
    _RUN_RE = re.compile(
        (rb"(?s)(?:[\x00\x01].{%d})+|(?:[%s-%s].{%d})+"
         % (_MEMORY2.size - 1, re.escape(bytes([2])),
            re.escape(bytes([_MAX_KIND_CODE])), _SYNC2.size - 1)))


def _np_check_sync(recs):
    kinds = recs["kind"]
    if (kinds > _MAX_KIND_CODE).any():
        bad = int(kinds[kinds > _MAX_KIND_CODE][0])
        raise ValueError(f"bad sync kind code {bad}")
    domains = recs["domain"]
    if not _DOMAIN_OK[domains].all():
        bad = int(domains[~_DOMAIN_OK[domains]][0])
        raise ValueError(f"bad sync-var domain code {bad}")


def decode_segment_columns_numpy(
        data: bytes, offset: int = 0) -> Tuple[NumpySegmentColumns, int]:
    """Parse one segment frame into numpy-backed columns.

    Same validation contract as :func:`decode_segment_columns` (corrupt
    payloads raise ``ValueError``), same column values, but the columns
    come back as int64 ndarrays built from ``np.frombuffer`` views over
    the payload instead of a per-event Python loop.

    Record sizes differ (memory 13B, sync 18B), so the record boundaries
    are data-dependent; two strategies cover the density spectrum:

    * no sync events — one ``frombuffer`` over the whole payload;
    * mixed — a compiled regex tokenizes the payload into maximal
      homogeneous *runs* (both record shapes are fixed-width, so one
      alternation matches a whole run at C speed), per-record offsets
      come from a ragged-range cumsum over the run table, and two
      fancy-indexed gathers decode both record types at once.
    """
    count = segment_event_count(data, offset)
    _, _, flags, _, payload_len = _SEG_HEADER.unpack_from(data, offset)
    start = offset + _SEG_HEADER.size
    payload = bytes(data[start:start + payload_len])
    end = start + payload_len
    if flags & FLAG_ZLIB:
        payload = zlib.decompress(payload)
    plen = len(payload)
    msize = _MEMORY2.size
    ssize = _SYNC2.size
    # count = m + s and plen = 13m + 18s pin the sync count up front; any
    # inconsistency is a corrupt frame.
    extra = plen - msize * count
    if extra < 0 or extra % (ssize - msize):
        raise ValueError("truncated event in segment payload")
    syncs = extra // (ssize - msize)
    if syncs > count:
        raise ValueError("trailing bytes in segment payload")
    if syncs * 8 > count:
        # Sync-dense frames fragment into tiny runs where every vectorized
        # strategy drowns in per-run overhead; the list decoder's single
        # Python pass is the better tool, and the detector kernel declines
        # sync-dominated batches anyway.
        return decode_segment_columns(data, offset)
    return _np_decode_payload(payload, count, syncs), end


def _np_decode_payload(payload, count, syncs):
    """Decode one well-sized payload (sizes pre-validated) into columns.

    The payload need not come from a single frame: frame payloads are
    plain record streams, so concatenating several and decoding once is
    equivalent to decoding each — that is how :class:`SegmentBatcher`
    amortizes the fixed numpy call overhead across a whole batch.
    """
    msize = _MEMORY2.size
    cols = NumpySegmentColumns()
    cols.count = count
    cols.sync_count = syncs
    cols.memory_count = count - syncs
    if count == 0:
        cols.ops = np.empty(0, np.int64)
        cols.tids = np.empty(0, np.int64)
        cols.addrs = np.empty(0, np.int64)
        cols.pcs = np.empty(0, np.int64)
        cols.sync_domains = np.empty(0, np.int64)
        cols.sync_timestamps = np.empty(0, np.int64)
        return cols

    u8 = np.frombuffer(payload, np.uint8)
    if syncs == 0:
        kinds = u8[::msize]
        if (kinds < 2).all():
            recs = np.frombuffer(payload, _MEM_DTYPE, count=count)
            cols.ops = kinds.astype(np.int64)
            cols.tids = recs["tid"].astype(np.int64)
            cols.addrs = recs["addr"].astype(np.int64)
            pcs = recs["pc"].astype(np.int64)
            pcs[pcs == _PC_NONE] = -1
            cols.pcs = pcs
            cols.sync_domains = np.empty(0, np.int64)
            cols.sync_timestamps = np.empty(0, np.int64)
            return cols
        # Sizes said all-memory but a kind byte disagrees: corrupt frame.
        raise ValueError("truncated event in segment payload")

    cols.ops = np.empty(count, np.int64)
    cols.tids = np.empty(count, np.int64)
    cols.addrs = np.empty(count, np.int64)
    cols.pcs = np.empty(count, np.int64)
    cols.sync_domains = np.empty(syncs, np.int64)
    cols.sync_timestamps = np.empty(syncs, np.int64)

    _np_decode_from_runs(cols, u8, _collect_runs(payload), count, syncs)
    pcs = cols.pcs
    pcs[pcs == _PC_NONE] = -1
    return cols


def _collect_runs(payload):
    """Run table (is_mem list, record-count list) via C-speed tokenization."""
    msize = _MEMORY2.size
    ssize = _SYNC2.size
    kinds: List[bool] = []
    counts: List[int] = []
    pos = 0
    for match in _RUN_RE.finditer(payload):
        begin, end = match.span()
        if begin != pos:
            break  # an unparseable byte stopped the tokenizer at ``pos``
        if payload[begin] < 2:
            kinds.append(True)
            counts.append((end - begin) // msize)
        else:
            kinds.append(False)
            counts.append((end - begin) // ssize)
        pos = end
    if pos != len(payload):
        raise ValueError("truncated event in segment payload")
    return kinds, counts


def _np_decode_from_runs(cols, u8, runs, count, syncs):
    """Vectorized decode given the run table.

    Expanding the run table to a byte-level type mask (one ``np.repeat``)
    compacts each record shape into its own contiguous buffer, where a
    structured view plus per-field contiguous casts replace the slow
    scattered-record gathers — O(payload) array ops however fragmented
    the interleaving is.
    """
    run_is_mem = np.array(runs[0], bool)
    run_nrec = np.array(runs[1], np.int64)
    total_m = int(run_nrec[run_is_mem].sum())
    total_s = int(run_nrec.sum()) - total_m
    # 13m + 18s = payload length holds for other (m, s) splits too, so a
    # clean tokenization can still contradict the declared sync count.
    if total_s != syncs or total_m + total_s != count:
        raise ValueError("truncated event in segment payload")
    byte_len = run_nrec * np.where(run_is_mem, _MEMORY2.size, _SYNC2.size)
    mem_byte = np.repeat(run_is_mem, byte_len)
    rec_is_mem = np.repeat(run_is_mem, run_nrec)
    mpos = np.flatnonzero(rec_is_mem)
    spos = np.flatnonzero(~rec_is_mem)
    if total_m:
        mrecs = u8[mem_byte].view(_MEM_DTYPE)
        cols.ops[mpos] = mrecs["kind"]
        cols.tids[mpos] = mrecs["tid"].astype(np.int64)
        cols.addrs[mpos] = mrecs["addr"].astype(np.int64)
        cols.pcs[mpos] = mrecs["pc"].astype(np.int64)
    if total_s:
        srecs = u8[~mem_byte].view(_SYNC_DTYPE)
        _np_check_sync(srecs)
        cols.ops[spos] = srecs["kind"]
        cols.tids[spos] = srecs["tid"].astype(np.int64)
        cols.addrs[spos] = srecs["ident"].astype(np.int64)
        cols.pcs[spos] = srecs["pc"].astype(np.int64)
        # Sync columns are packed densely in stream order, which the byte
        # mask preserves — so no reordering is needed.
        cols.sync_domains[:] = srecs["domain"]
        cols.sync_timestamps[:] = srecs["ts"]


if HAVE_NUMPY:
    decode_segment_columns_fast = decode_segment_columns_numpy
else:
    decode_segment_columns_fast = decode_segment_columns
decode_segment_columns_fast.__doc__ = (
    """The fastest available columnar decode for this interpreter.

    ``decode_segment_columns_numpy`` when numpy is importable (and not
    disabled via ``REPRO_NO_NUMPY=1``), else ``decode_segment_columns``.
    """)


# -- batching across segment boundaries --------------------------------------

#: Batch size the vectorized kernel is sized for: large enough to amortize
#: numpy call overhead (fixed ~40us of sort/scan per batch), small enough
#: that a pipeline's buffered tail stays negligible.
DEFAULT_BATCH_EVENTS = 4096


def concat_columns(parts: Sequence[SegmentColumns]) -> SegmentColumns:
    """Concatenate decoded segments into one columns batch (stream order).

    Safe wherever segments from one stream are fed in order: the detector
    is batch-boundary invariant (asserted by the differential suite), so
    regrouping segments cannot change any report.
    """
    if len(parts) == 1:
        return parts[0]
    if HAVE_NUMPY and all(isinstance(p, NumpySegmentColumns) for p in parts):
        out = NumpySegmentColumns()
        out.ops = np.concatenate([p.ops for p in parts])
        out.tids = np.concatenate([p.tids for p in parts])
        out.addrs = np.concatenate([p.addrs for p in parts])
        out.pcs = np.concatenate([p.pcs for p in parts])
        out.sync_domains = np.concatenate([p.sync_domains for p in parts])
        out.sync_timestamps = np.concatenate(
            [p.sync_timestamps for p in parts])
    else:
        out = SegmentColumns()
        for part in parts:
            if isinstance(part, NumpySegmentColumns):
                part = part.as_list_columns()
            out.ops += part.ops
            out.tids += part.tids
            out.addrs += part.addrs
            out.pcs += part.pcs
            out.sync_domains += part.sync_domains
            out.sync_timestamps += part.sync_timestamps
    out.count = sum(p.count for p in parts)
    out.sync_count = sum(p.sync_count for p in parts)
    out.memory_count = out.count - out.sync_count
    return out


class SegmentBatcher:
    """Batch *encoded* frames and decode each batch in one vectorized pass.

    Decoding frame by frame pays the per-frame decode overhead (~50 numpy
    calls per frame at wire sizes).  This batcher works below the decoder
    instead: each ``push`` only parses the 16-byte header (and inflates a
    compressed payload), and ``flush`` joins the buffered payloads — frame
    payloads are plain record streams, so the concatenation is itself a
    valid payload — and decodes the whole batch with one set of array
    operations before handing the columns to the sink.  Decode errors
    therefore surface at flush time, attributed to the batch rather than
    the frame.

    Falls back per-frame to the list decoder when numpy is unavailable or
    the joined batch is sync-dense (where the vectorized decode would lose
    to the plain Python pass anyway).
    """

    def __init__(self, sink, *, target_events: int = DEFAULT_BATCH_EVENTS):
        if target_events < 1:
            raise ValueError("target_events must be >= 1")
        self._sink = sink
        self._frames: List[Tuple[bytes, int]] = []
        self._count = 0
        self._syncs = 0
        self.target_events = target_events

    def push(self, data: bytes, offset: int = 0) -> Tuple[int, int]:
        """Buffer one encoded frame at ``offset``.

        Returns ``(event_count, end)`` where ``end`` is the offset of the
        first byte after the frame, so callers can walk a concatenated
        frame stream without re-parsing headers.
        """
        count = segment_event_count(data, offset)
        _, _, flags, _, payload_len = _SEG_HEADER.unpack_from(data, offset)
        start = offset + _SEG_HEADER.size
        payload = bytes(data[start:start + payload_len])
        if len(payload) != payload_len:
            raise ValueError("truncated segment payload")
        if flags & FLAG_ZLIB:
            payload = zlib.decompress(payload)
        extra = len(payload) - _MEMORY2.size * count
        if extra < 0 or extra % (_SYNC2.size - _MEMORY2.size):
            raise ValueError("truncated event in segment payload")
        syncs = extra // (_SYNC2.size - _MEMORY2.size)
        if syncs > count:
            raise ValueError("trailing bytes in segment payload")
        self._frames.append((payload, count))
        self._count += count
        self._syncs += syncs
        if self._count >= self.target_events:
            self.flush()
        return count, start + payload_len

    def flush(self) -> None:
        if not self._frames:
            return
        frames = self._frames
        count = self._count
        syncs = self._syncs
        self._frames = []
        self._count = 0
        self._syncs = 0
        joined = (frames[0][0] if len(frames) == 1
                  else b"".join(payload for payload, _ in frames))
        try:
            if HAVE_NUMPY and syncs * 8 <= count:
                batch = _np_decode_payload(joined, count, syncs)
            else:
                batch = _decode_payload_list(joined, count)
        except ValueError:
            # A poisoned frame (bad kind/domain code past the size checks).
            # Salvage the batch frame by frame so exactly the bad frames
            # are skipped, then let the error surface to the caller.
            good = []
            for payload, frame_count in frames:
                try:
                    good.append(_decode_payload_list(payload, frame_count))
                except ValueError:
                    continue
            if good:
                self._sink(concat_columns(good))
            raise
        self._sink(batch)

    def __enter__(self) -> "SegmentBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()


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
