"""Differential test: the §4.2 merge against its event-at-a-time original.

``merge_thread_logs`` and ``merge_thread_columns`` are thin adapters over
one replay of per-thread sync summaries that moves memory events as
slices.  The reference below is the implementation that replay replaced,
copied verbatim: it walks every event of every thread one at a time.  Both
adapters must reproduce its order exactly — the object adapter returns the
very same event objects, and the columnar path (``encode_log`` → columnar
decode → column merge) returns the columns of that order — along with the
same number of forced (inconsistent) sync events, on well-formed
timestamps and on adversarial ones alike: ties, inversions and circular
wedges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.detector.merge import (
    MergeResult,
    merge_thread_columns,
    merge_thread_logs,
)
from repro.eventlog.encode import decode_log_columns, encode_log
from repro.eventlog.events import (
    Event,
    MemoryEvent,
    SyncEvent,
    SyncKind,
    SyncVar,
)
from repro.eventlog.log import EventLog
from repro.eventlog.segment import columns_from_events


# -- the reference: the event-at-a-time merge, verbatim ---------------------

class _VarQueue:
    """Min-heap of unconsumed timestamps for one SyncVar, with lazy deletes."""

    __slots__ = ("heap", "removed")

    def __init__(self):
        self.heap: List[int] = []
        self.removed: Dict[int, int] = {}

    def push(self, ts: int) -> None:
        heapq.heappush(self.heap, ts)

    def peek_min(self) -> int:
        heap, removed = self.heap, self.removed
        while heap and removed.get(heap[0], 0) > 0:
            removed[heap[0]] -= 1
            heapq.heappop(heap)
        return heap[0]

    def consume(self, ts: int) -> None:
        if self.heap and self.heap[0] == ts:
            heapq.heappop(self.heap)
        else:
            self.removed[ts] = self.removed.get(ts, 0) + 1


def reference_merge_thread_logs(log: EventLog) -> MergeResult:
    """Reconstruct a global processing order from ``log``'s per-thread streams."""
    streams = log.per_thread()
    cursors: Dict[int, int] = {tid: 0 for tid in streams}
    var_queues: Dict[SyncVar, _VarQueue] = {}
    for events in streams.values():
        for event in events:
            if isinstance(event, SyncEvent):
                var_queues.setdefault(event.var, _VarQueue()).push(event.timestamp)

    result = MergeResult()
    remaining = sum(len(events) for events in streams.values())
    tids = sorted(streams)

    def emit(tid: int, event: Event) -> None:
        result.events.append(event)
        cursors[tid] += 1

    while remaining:
        progressed = False
        for tid in tids:
            events = streams[tid]
            while cursors[tid] < len(events):
                event = events[cursors[tid]]
                if isinstance(event, MemoryEvent):
                    emit(tid, event)
                    remaining -= 1
                    progressed = True
                    continue
                queue = var_queues[event.var]
                if event.timestamp == queue.peek_min():
                    queue.consume(event.timestamp)
                    emit(tid, event)
                    remaining -= 1
                    progressed = True
                    continue
                break  # this thread is blocked on a sync event
        if progressed:
            continue
        # Wedged: timestamps are inconsistent with any valid interleaving.
        # Force the blocked sync event with the smallest timestamp.
        best_tid = -1
        best_ts = None
        for tid in tids:
            if cursors[tid] < len(streams[tid]):
                event = streams[tid][cursors[tid]]
                assert isinstance(event, SyncEvent)
                if best_ts is None or event.timestamp < best_ts:
                    best_ts = event.timestamp
                    best_tid = tid
        event = streams[best_tid][cursors[best_tid]]
        var_queues[event.var].consume(event.timestamp)
        emit(best_tid, event)
        remaining -= 1
        result.inconsistencies += 1
    return result


# -- generated logs -----------------------------------------------------------

WIRE_DOMAINS = ("mutex", "event", "thread", "atomic", "page")
#: In-memory logs may carry SyncVar domains the wire format has no code for.
ODD_DOMAINS = ("lockfree", "custom")
KINDS = list(SyncKind)


@dataclass
class _Spec:
    """One generated event before timestamps are assigned."""

    thread: int
    var: SyncVar = None
    kind: SyncKind = None
    addr: int = 0
    pc: int = 0
    is_write: bool = False
    timestamp: int = 0


@st.composite
def thread_logs(draw, domains=WIRE_DOMAINS):
    """An :class:`EventLog` of 1-6 threads over a few shared vars.

    The stamping mode is drawn too: ``ordered`` stamps each var's sync
    events increasingly in generation order (a consistent run, possibly
    through shared counters); ``random`` draws them from a tiny range
    (ties, inversions, circular wedges); ``perturbed`` takes an ordered
    stamping and swaps a few of them (isolated inversions).
    """
    tids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6,
                         unique=True))
    vars_ = draw(st.lists(
        st.tuples(st.sampled_from(domains), st.integers(0, 3)),
        min_size=1, max_size=4, unique=True))
    # Per-thread sync density, so memory-only threads are common.
    density = [draw(st.sampled_from((0.0, 0.2, 0.5, 0.9))) for _ in tids]
    length = draw(st.integers(0, 40))
    specs = []
    for _ in range(length):
        t = draw(st.integers(0, len(tids) - 1))
        if draw(st.floats(0, 1)) < density[t]:
            specs.append(_Spec(t, var=draw(st.sampled_from(vars_)),
                               kind=draw(st.sampled_from(KINDS)),
                               pc=draw(st.integers(-1, 50))))
        else:
            specs.append(_Spec(t, addr=draw(st.integers(0, 2**32 - 1)
                                            | st.integers(0, 8)),
                               pc=draw(st.integers(-1, 50)),
                               is_write=draw(st.booleans())))
    syncs = [spec for spec in specs if spec.var is not None]
    mode = draw(st.sampled_from(("ordered", "random", "perturbed")))
    if mode == "random":
        for spec in syncs:
            spec.timestamp = draw(st.integers(0, 4))
    else:
        counters = draw(st.integers(1, 4))
        clock = [0] * counters
        for spec in syncs:
            slot = vars_.index(spec.var) % counters
            clock[slot] += 1
            spec.timestamp = clock[slot]
        if mode == "perturbed" and len(syncs) > 1:
            for _ in range(draw(st.integers(1, 3))):
                i = draw(st.integers(0, len(syncs) - 1))
                j = draw(st.integers(0, len(syncs) - 1))
                syncs[i].timestamp, syncs[j].timestamp = \
                    syncs[j].timestamp, syncs[i].timestamp
    log = EventLog()
    for spec in specs:
        tid = tids[spec.thread]
        if spec.var is None:
            log.append_memory(tid, spec.addr, spec.pc, spec.is_write)
        else:
            log.append_sync(tid, spec.kind, spec.var, spec.timestamp,
                            spec.pc)
    return log


def _log(*events) -> EventLog:
    log = EventLog()
    log.extend(events)
    return log


A, B = ("mutex", 10), ("mutex", 11)
#: Explicit corner cases, run on every test run.
EMPTY = _log()
MEMORY_ONLY = _log(MemoryEvent(2, 8, 1, True), MemoryEvent(0, 8, 2, False),
                   MemoryEvent(2, 9, 3, False))
CIRCULAR_WEDGE = _log(SyncEvent(0, SyncKind.LOCK, A, 2, 0),
                      SyncEvent(0, SyncKind.LOCK, B, 1, 1),
                      MemoryEvent(1, 4, 7, True),
                      SyncEvent(1, SyncKind.LOCK, B, 2, 0),
                      SyncEvent(1, SyncKind.LOCK, A, 1, 1))
TIES = _log(SyncEvent(5, SyncKind.UNLOCK, A, 3, 0),
            SyncEvent(1, SyncKind.LOCK, A, 3, 1),
            MemoryEvent(5, 4, 2, True),
            SyncEvent(1, SyncKind.UNLOCK, A, 3, 3))
ODD_DOMAIN = _log(SyncEvent(3, SyncKind.ATOMIC, ("lockfree", 1), 2, 0),
                  SyncEvent(1, SyncKind.ATOMIC, ("lockfree", 1), 1, 0),
                  MemoryEvent(3, 6, 1, True))


def _columns(cols) -> tuple:
    return (cols.count, cols.sync_count, cols.memory_count, cols.ops,
            cols.tids, cols.addrs, cols.pcs, cols.sync_domains,
            cols.sync_timestamps)


SETTINGS = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(thread_logs(domains=WIRE_DOMAINS + ODD_DOMAINS))
@example(EMPTY)
@example(MEMORY_ONLY)
@example(CIRCULAR_WEDGE)
@example(TIES)
@example(ODD_DOMAIN)
def test_object_adapter_matches_reference(log):
    expected = reference_merge_thread_logs(log)
    merged = merge_thread_logs(log)
    # The very same event objects, in the same order.
    assert [id(e) for e in merged.events] == [id(e) for e in expected.events]
    assert merged.inconsistencies == expected.inconsistencies


@SETTINGS
@given(thread_logs())
@example(EMPTY)
@example(MEMORY_ONLY)
@example(CIRCULAR_WEDGE)
@example(TIES)
def test_column_path_matches_reference(log):
    expected = reference_merge_thread_logs(log)
    cols, sections = decode_log_columns(encode_log(log))
    merged, inconsistencies = merge_thread_columns(cols, sections)
    assert _columns(merged) == _columns(columns_from_events(expected.events))
    assert inconsistencies == expected.inconsistencies


def test_circular_wedge_example_forces_an_event():
    # Otherwise the explicit examples would not reach the forcing rule.
    assert reference_merge_thread_logs(CIRCULAR_WEDGE).inconsistencies == 1
