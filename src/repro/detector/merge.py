"""Reconstructing a processing order from per-thread logs (§4.2).

The profiler writes one log per thread; the interleaving between threads is
not recorded.  What *is* recorded is a logical timestamp on every sync
event, drawn from one of 128 hashed global counters, with the guarantee that
if ``a`` happens-before ``b`` and both operate on the same SyncVar then
``a``'s timestamp is smaller (§4.2).

The offline detector therefore replays per-thread streams under one
constraint: a sync event on var *v* may only be consumed when its timestamp
is the smallest not-yet-consumed timestamp on *v*.  Memory events (and sync
events whose var appears in no other thread) are never blocked.

When the instrumentation fails to stamp timestamps atomically with the
operation — the hazard §4.2 describes for user-level compare-and-exchange
locks — the recorded timestamps can contradict the actual order.  Replay
then wedges; like a real tool, we break the tie by forcing the blocked sync
event with the globally smallest timestamp and count the *inconsistency*.
Each forced event corresponds to a lost or inverted happens-before edge and
is what produces the "hundreds of false data races" the paper reports for
the non-atomic configuration.

Since only sync events can block, the replay (:func:`_replay`) reads just a
per-thread *sync summary* — where each sync event sits in its thread's
stream, its SyncVar and its timestamp — and answers with stream slices, so
its cost follows the sync events while memory events move as list slices.
Two thin adapters feed it: :func:`merge_thread_logs` for in-memory event
objects, and :func:`merge_thread_columns` for a v1 log decoded straight to
columns by :func:`repro.eventlog.encode.decode_log_columns` (the path
behind ``repro analyze``).  Both produce the same order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Sequence, Tuple

from ..eventlog.events import Event, SyncEvent
from ..eventlog.log import EventLog
from ..eventlog.segment import SegmentColumns

__all__ = ["MergeResult", "merge_thread_logs", "merge_thread_columns"]

#: One thread for :func:`_replay`: its stream spans indices ``[begin, end)``
#: of some sequence, and its sync events sit at the ascending ``positions``
#: in that range, with SyncVar ``keys`` and ``timestamps`` in step.
ThreadSummary = Tuple[int, int, Sequence[int], Sequence[object],
                      Sequence[int]]

#: ``(thread, start, stop)``: ``thread`` indexes the summaries handed to
#: :func:`_replay`; the run is that thread's stream slice ``[start, stop)``.
Run = Tuple[int, int, int]


@dataclass
class MergeResult:
    """A reconstructed global order plus replay diagnostics."""

    events: List[Event] = field(default_factory=list)
    #: Sync events that had to be forced out of timestamp order.
    inconsistencies: int = 0


def _replay(threads: Sequence[ThreadSummary]) -> Tuple[List[Run], int]:
    """The §4.2 replay over per-thread sync summaries, in ascending tid order.

    Rounds visit the threads in order; each thread's turn runs as far as it
    can — memory events always, a sync event only while its timestamp is
    the smallest unconsumed one on its SyncVar — and a turn that makes
    progress becomes one run.  A round in which no thread progresses forces
    the blocked sync event with the smallest timestamp (lowest thread on
    ties) as a run of its own and counts it as an inconsistency.  Per
    SyncVar, the unconsumed timestamps are a min-heap; a forced timestamp
    that is not at the top is deleted lazily.

    Returns the runs in processing order and the inconsistency count.
    """
    heaps: Dict[object, List[int]] = defaultdict(list)
    for _, _, _, keys, timestamps in threads:
        for key, ts in zip(keys, timestamps):
            heaps[key].append(ts)
    for heap in heaps.values():
        heapq.heapify(heap)
    heappop = heapq.heappop
    # SyncVar key -> {timestamp: forced but not yet popped, count}.
    removed: Dict[object, Dict[int, int]] = {}
    cursors = [begin for begin, *_ in threads]
    consumed = [0] * len(threads)
    active = [t for t, (begin, end, *_) in enumerate(threads) if begin < end]
    runs: List[Run] = []
    inconsistencies = 0
    while active:
        progressed = finished = False
        for t in active:
            _, end, positions, keys, timestamps = threads[t]
            k = consumed[t]
            syncs = len(positions)
            while k < syncs:
                key = keys[k]
                heap = heaps[key]
                if removed:
                    gone = removed.get(key)
                    if gone:
                        while gone.get(heap[0]):
                            gone[heap[0]] -= 1
                            heappop(heap)
                if heap[0] != timestamps[k]:
                    break  # blocked on a smaller unconsumed timestamp
                heappop(heap)
                k += 1
            stop = positions[k] if k < syncs else end
            start = cursors[t]
            if stop > start:
                runs.append((t, start, stop))
                cursors[t] = stop
                consumed[t] = k
                progressed = True
                finished = finished or stop == end
        if not progressed:
            # Wedged: timestamps are inconsistent with any valid
            # interleaving.  Every active thread is blocked at a sync event;
            # force the one with the smallest timestamp.
            best = -1
            best_ts = None
            for t in active:
                ts = threads[t][4][consumed[t]]
                if best_ts is None or ts < best_ts:
                    best_ts = ts
                    best = t
            _, end, _, keys, _ = threads[best]
            key = keys[consumed[best]]
            heap = heaps[key]
            if heap[0] == best_ts:
                heappop(heap)
            else:
                gone = removed.setdefault(key, {})
                gone[best_ts] = gone.get(best_ts, 0) + 1
            start = cursors[best]
            runs.append((best, start, start + 1))
            cursors[best] = start + 1
            consumed[best] += 1
            inconsistencies += 1
            finished = start + 1 == end
        if finished:
            active = [t for t in active if cursors[t] < threads[t][1]]
    return runs, inconsistencies


def merge_thread_logs(log: EventLog) -> MergeResult:
    """Reconstruct a global processing order from ``log``'s per-thread streams."""
    streams = log.per_thread()
    ordered = [streams[tid] for tid in sorted(streams)]
    threads = []
    for events in ordered:
        positions = [i for i, event in enumerate(events)
                     if isinstance(event, SyncEvent)]
        syncs = [events[i] for i in positions]
        threads.append((0, len(events), positions,
                        [event.var for event in syncs],
                        [event.timestamp for event in syncs]))
    runs, inconsistencies = _replay(threads)
    merged: List[Event] = []
    for t, start, stop in runs:
        merged += ordered[t][start:stop]
    return MergeResult(merged, inconsistencies)


#: byte value -> 1 for a sync kind code, 0 for a memory one.
_SYNC_FLAGS = bytes([0, 0] + [1] * 254)


def merge_thread_columns(cols: SegmentColumns,
                         sections: Sequence[Tuple[int, int, int]]
                         ) -> Tuple[SegmentColumns, int]:
    """The columnar :func:`merge_thread_logs`: no event objects.

    ``cols`` holds list-backed columns decoded from the wire (integer
    SyncVar domain codes) and ``sections`` the ``(tid, start, stop)``
    column range of each thread's stream in program order, sorted by tid:
    exactly what :func:`repro.eventlog.encode.decode_log_columns`
    returns.  Returns the events as columns in the reconstructed
    processing order, plus the number of sync events forced out of
    timestamp order.
    """
    ops = cols.ops
    tids = cols.tids
    addrs = cols.addrs
    pcs = cols.pcs
    domains = cols.sync_domains
    timestamps = cols.sync_timestamps
    # Column index of the j-th sync event, found at C speed.
    sync_at = list(compress(range(cols.count),
                            bytes(ops).translate(_SYNC_FLAGS)))
    threads = []
    for _, start, stop in sections:
        first = bisect_left(sync_at, start)
        last = bisect_left(sync_at, stop, first)
        positions = sync_at[first:last]
        # SyncVar keys packed as FlatDetector packs them: one int each.
        keys = [(domain << 32) | addrs[i]
                for domain, i in zip(domains[first:last], positions)]
        threads.append((start, stop, positions, keys,
                        timestamps[first:last]))
    runs, inconsistencies = _replay(threads)
    out = SegmentColumns()
    for _, start, stop in runs:
        out.ops += ops[start:stop]
        out.tids += tids[start:stop]
        out.addrs += addrs[start:stop]
        out.pcs += pcs[start:stop]
        first = bisect_left(sync_at, start)
        last = bisect_left(sync_at, stop, first)
        out.sync_domains += domains[first:last]
        out.sync_timestamps += timestamps[first:last]
    out.count = cols.count
    out.sync_count = cols.sync_count
    out.memory_count = cols.memory_count
    return out, inconsistencies
