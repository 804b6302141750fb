"""The column block: the one event codec of log files and wire segments.

Both on-disk formats store events as a *block* of columns rather than as
records one after another, so a reader turns a whole column into ints
with one ``struct.unpack_from`` call and validates it with a few C-speed
passes (``max``, ``bytes.count``) instead of unpacking one record per
Python iteration.  A per-thread section of a log file
(:mod:`repro.eventlog.encode`) is one block, its tid in the section
header; the payload of a segment frame (:mod:`repro.eventlog.segment`) is
one block with a tid column.

Layout of a block of ``n`` events, ``s`` of them sync events
(little-endian)::

    kinds       n x u8    0 = read, 1 = write, 2 + SyncKind index = sync
    tids        n x u32   segment blocks only
    addrs       n x u32   the accessed address; a sync event's SyncVar id
    pcs         n x u32   0xFFFFFFFF for none (pc -1)
    domains     s x u8    each sync event's SyncVar domain code, in order
    timestamps  s x u32   each sync event's timestamp, in order

A memory event costs 9 bytes and a sync event 14
(:data:`MEMORY_EVENT_BYTES`, :data:`SYNC_EVENT_BYTES`), plus 4 for the tid
in a segment: the "addresses and program counter values" of §3.3 and the
"memory addresses of the synchronization variables along with their
timestamps".  Addresses, SyncVar ids, tids and timestamps wrap to 32 bits.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from .events import Event, MemoryEvent, SyncKind

__all__ = ["BlockTruncated", "encode_block", "decode_block",
           "MEMORY_EVENT_BYTES", "SYNC_EVENT_BYTES"]

#: A memory event's bytes in a block without tids: kind, addr, pc.
MEMORY_EVENT_BYTES = 9
#: A sync event's bytes in a block without tids: a memory event's, plus
#: its SyncVar domain and timestamp.
SYNC_EVENT_BYTES = 14

_KIND_CODES: Dict[SyncKind, int] = {kind: 2 + i for i, kind in enumerate(SyncKind)}
_CODE_KINDS: Dict[int, SyncKind] = {code: kind for kind, code in _KIND_CODES.items()}
#: Highest valid kind code (codes are 0, 1 and 2 + SyncKind index).
_MAX_KIND_CODE = max(_CODE_KINDS)

_DOMAIN_CODES = {"mutex": 0, "event": 1, "thread": 2, "atomic": 3, "page": 4}
_CODE_DOMAINS = {code: name for name, code in _DOMAIN_CODES.items()}
_MAX_DOMAIN_CODE = max(_CODE_DOMAINS)

_PC_NONE = 0xFFFF_FFFF

#: One decoded block: kinds (bytes), tids (None in a file section), addrs,
#: pcs (-1 for none), sync domains (bytes) and sync timestamps.
Block = Tuple[bytes, Optional[Sequence[int]], Sequence[int], Sequence[int],
              bytes, Sequence[int]]


class BlockTruncated(ValueError):
    """The block runs past the end of its section or payload.  Each
    format names the damage in its own words."""


def _u32s(values: List[int]) -> bytes:
    """``values`` as little-endian u32s, wrapped to 32 bits."""
    try:
        return struct.pack(f"<{len(values)}I", *values)
    except struct.error:
        return struct.pack(f"<{len(values)}I",
                           *[value & 0xFFFF_FFFF for value in values])


def encode_block(events: Sequence[Event], *, with_tids: bool) -> bytes:
    """Serialize ``events``, in order, as one block.

    ``with_tids`` adds the tid column of a segment payload.  An unknown
    SyncVar domain raises ``KeyError``, so it never reaches the wire.
    """
    kinds = bytearray()
    addrs: List[int] = []
    pcs: List[int] = []
    domains = bytearray()
    timestamps: List[int] = []
    add_kind, add_addr, add_pc = kinds.append, addrs.append, pcs.append
    add_domain, add_timestamp = domains.append, timestamps.append
    kind_codes, domain_codes = _KIND_CODES, _DOMAIN_CODES
    for event in events:
        if isinstance(event, MemoryEvent):
            add_kind(1 if event.is_write else 0)
            add_addr(event.addr)
            add_pc(event.pc)
        else:
            add_kind(kind_codes[event.kind])
            domain, ident = event.var
            add_addr(ident)
            pc = event.pc
            add_pc(pc if pc >= 0 else _PC_NONE)
            add_domain(domain_codes[domain])
            add_timestamp(event.timestamp)
    if pcs and min(pcs) < 0:
        pcs = [pc if pc >= 0 else _PC_NONE for pc in pcs]
    parts = [kinds]
    if with_tids:
        parts.append(_u32s([event.tid for event in events]))
    parts += (_u32s(addrs), struct.pack(f"<{len(pcs)}I", *pcs), domains,
              _u32s(timestamps))
    return b"".join(parts)


def _first_above(codes: bytes, highest: int) -> Optional[int]:
    """The first code in ``codes`` above ``highest``, found at C speed
    when there is none."""
    if not codes or max(codes) <= highest:
        return None
    return next(code for code in codes if code > highest)


def _pcs(pcs: Sequence[int]) -> Sequence[int]:
    """``pcs`` with each none marker read back as -1."""
    if _PC_NONE not in pcs:
        return pcs
    pcs = list(pcs)
    at = pcs.index(_PC_NONE)
    try:
        while True:
            pcs[at] = -1
            at = pcs.index(_PC_NONE, at + 1)
    except ValueError:
        return pcs


def decode_block(data: bytes, offset: int, count: int, limit: int, *,
                 with_tids: bool) -> Tuple[Block, int]:
    """Parse the block of ``count`` events at ``offset`` in ``data``.

    The block must end by ``limit``.  Returns the columns and the offset
    of the first byte after the block.  Raises :class:`BlockTruncated` if
    the block runs past ``limit``, and ``ValueError`` naming the first bad
    sync kind or SyncVar domain code.
    """
    columns_at = offset + count
    if columns_at > limit:
        raise BlockTruncated("truncated block")
    kinds = bytes(data[offset:columns_at])
    bad = _first_above(kinds, _MAX_KIND_CODE)
    if bad is not None:
        raise ValueError(f"bad sync kind code {bad}")
    syncs = count - kinds.count(0) - kinds.count(1)
    words = 3 * count if with_tids else 2 * count
    end = columns_at + 4 * words + 5 * syncs
    if end > limit:
        raise BlockTruncated("truncated block")
    column = f"<{count}I"
    pos = columns_at
    tids = None
    if with_tids:
        tids = struct.unpack_from(column, data, pos)
        pos += 4 * count
    addrs = struct.unpack_from(column, data, pos)
    pos += 4 * count
    pcs = struct.unpack_from(column, data, pos)
    pos += 4 * count
    domains = bytes(data[pos:pos + syncs])
    bad = _first_above(domains, _MAX_DOMAIN_CODE)
    if bad is not None:
        raise ValueError(f"bad sync-var domain code {bad}")
    timestamps = struct.unpack_from(f"<{syncs}I", data, pos + syncs)
    return (kinds, tids, addrs, _pcs(pcs), domains, timestamps), end
