"""Address-range sharding and the detector worker process.

A fleet of clients produces far more events than one interpreter can
analyze, so the server spreads the work over a pool of worker *processes*.
The unit of work is a (client, shard) pair, and the server sends a
client's segments only to the workers that own its pairs.  By default a
client has one shard: one worker analyzes its whole log, and the workers
run different clients in parallel.  With more shards a client's addresses
are partitioned by **address range**: addresses are grouped into 64-byte
blocks and blocks are assigned round-robin to ``num_shards`` logical
shards (:func:`shard_of`).  Shards are logical — when a worker dies its
pairs migrate to survivors and the shard count (and therefore the
address routing) never changes.

The invariant that makes sharding exact (§4.2): every shard consumes the
client's **complete synchronization stream**, so every shard computes the
same vector clocks as a single detector would; memory events touch only
per-address state, so restricting a shard to its own addresses partitions
the race instances without altering any of them.  The union of shard
reports is therefore byte-for-byte the single-detector report's race set
and occurrence counts — no false positives, no lost races.  The price is
that each of a client's shards decodes every frame and replays every sync
event, which is why one shard is the default.

:func:`worker_main` is the process entry point.  It keeps one incremental
:class:`ShardDetector` per (client, shard) pair, created lazily, so a pair
reassigned after a crash rebuilds cleanly from a journal replay.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..detector.flat import FlatDetector
from ..detector.races import RaceReport
from ..eventlog.segment import SegmentBatcher, SegmentColumns
from .protocol import report_to_wire

__all__ = ["SHARD_BLOCK_SHIFT", "shard_of", "ShardDetector", "worker_main"]

#: Addresses within the same 2**SHARD_BLOCK_SHIFT-byte block (a cache line)
#: always land on the same shard.
SHARD_BLOCK_SHIFT = 6


def shard_of(addr: int, num_shards: int) -> int:
    """The shard owning ``addr``'s 64-byte block."""
    return (addr >> SHARD_BLOCK_SHIFT) % num_shards


class ShardDetector:
    """An incremental happens-before detector restricted to one shard.

    Feed it a client's segment frames in processing order; it consumes
    every sync event (keeping its happens-before relation complete) and
    exactly the memory events whose address belongs to shard ``shard_id``.
    """

    def __init__(self, shard_id: int, num_shards: int,
                 alloc_as_sync: bool = True):
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"shard {shard_id} outside 0..{num_shards - 1}")
        self.shard_id = shard_id
        self.num_shards = num_shards
        self._detector = FlatDetector("hb", alloc_as_sync=alloc_as_sync)
        self._reader = SegmentBatcher(self._consume)
        self.sync_events = 0
        self.memory_events = 0
        self.segments = 0

    def _consume(self, cols: SegmentColumns) -> None:
        if self.num_shards == 1:
            # The only shard owns every address: skip the per-event filter.
            memory, sync = self._detector.feed_batch(cols)
        else:
            memory, sync = self._detector.feed_batch(
                cols, shard_id=self.shard_id, num_shards=self.num_shards,
                block_shift=SHARD_BLOCK_SHIFT)
        self.memory_events += memory
        self.sync_events += sync

    def feed_frame(self, data: bytes, offset: int = 0) -> int:
        """Decode one *encoded* segment frame and detect it (the worker
        hot path).

        When this returns the frame has been analyzed.  A poisoned payload
        raises here, before the detector sees any of the frame, so the
        detector keeps running on the frames that decode cleanly.  Returns
        the frame's event count.
        """
        count, _ = self._reader.push(data, offset)
        self.segments += 1
        return count

    @property
    def report(self) -> RaceReport:
        return self._detector.report


def worker_main(worker_id: int, in_queue, out_queue, num_shards: int,
                alloc_as_sync: bool = True) -> None:
    """Detector worker loop (runs in a child process).

    Messages in (tuples, first element is the verb)::

        ("segment", client_id, seq, shard_ids, payload)
        ("finalize", client_id, shard_ids)
        ("discard", client_id)
        ("stop",)

    End of input on a pipe (the server closed its write end) stops the
    loop as ``("stop",)`` does.

    Messages out::

        ("ack", worker_id, client_id, seq, shard_ids, event_count)
        ("report", worker_id, client_id, shard_id, wire_report, segments)
        ("error", worker_id, client_id, seq, message)

    Each segment is decoded and detected before it is answered, so an ack
    means the frame was analyzed, and a malformed segment gets an error
    for its own ``seq``.  It is skipped rather than allowed to kill the
    process — a crash here would trigger a replay of the same poisoned
    segment on another worker, looping forever.
    """
    detectors: Dict[Tuple[int, int], ShardDetector] = {}

    def detector_for(client_id: int, shard_id: int) -> ShardDetector:
        key = (client_id, shard_id)
        state = detectors.get(key)
        if state is None:
            state = ShardDetector(shard_id, num_shards,
                                  alloc_as_sync=alloc_as_sync)
            detectors[key] = state
        return state

    while True:
        try:
            message = in_queue.get()
        except (EOFError, OSError):
            break  # the server closed its end of the pipe
        verb = message[0]
        if verb == "stop":
            break
        if verb == "segment":
            _, client_id, seq, shard_ids, payload = message
            count = 0
            error = None
            for shard_id in shard_ids:
                try:
                    count = detector_for(client_id,
                                         shard_id).feed_frame(payload)
                except Exception as exc:
                    # Catch everything: the server only validates the
                    # outer frame header, so a corrupt payload can surface
                    # as struct.error, zlib.error, ValueError, KeyError...
                    # Decoding is all or nothing, so every shard skips the
                    # same frame and their sync streams stay identical.
                    error = exc
            if error is not None:
                out_queue.put(("error", worker_id, client_id, seq,
                               f"bad segment: {error}"))
                continue
            out_queue.put(("ack", worker_id, client_id, seq,
                           tuple(shard_ids), count))
        elif verb == "finalize":
            _, client_id, shard_ids = message
            for shard_id in shard_ids:
                state = detectors.pop((client_id, shard_id), None)
                if state is None:
                    # The shard never saw a segment for this client (e.g.
                    # an empty log); report an empty shard result so the
                    # aggregator's completion count still adds up.
                    state = ShardDetector(shard_id, num_shards,
                                          alloc_as_sync=alloc_as_sync)
                out_queue.put(("report", worker_id, client_id, shard_id,
                               report_to_wire(state.report),
                               state.segments))
        elif verb == "discard":
            _, client_id = message
            for key in [k for k in detectors if k[0] == client_id]:
                del detectors[key]
