"""The happens-before data-race detector (§2.1, §4.4).

This is a standard vector-clock happens-before detector in the style the
paper cites ([21, 36]): it consumes an event stream (sync events plus
whatever memory events survived sampling), maintains

* one vector clock per thread,
* one vector clock per SyncVar, and
* per-address access metadata (the last write epoch and the set of reads
  since, with their PCs),

and reports a race whenever two accesses to the same address — at least one
a write — are unordered by the happens-before relation induced by HB1–HB3.

Because the profiler logs *all* synchronization operations, the
happens-before relation computed here is complete even for heavily sampled
logs, which is the paper's no-false-positives guarantee: dropping memory
events can only remove reported races, never add them.

``alloc_as_sync=False`` disables the §4.3 rule that treats allocation
routines as synchronization on the containing page; the ablation experiment
uses it to demonstrate the false races that rule prevents.

This module is the *specification*, not the production path: every caller
in the tool (offline analysis, the experiments, the CLI, the telemetry
shards) runs :class:`~repro.detector.flat.FlatDetector`, which must
reproduce this detector's report byte for byte.  It stays
as the differential oracle that contract is checked against
(``tests/test_detector_differential.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..eventlog.events import Event, MemoryEvent, SyncEvent, SyncKind, SyncVar
from .races import RaceInstance, RaceReport
from .vectorclock import VectorClock

__all__ = ["HappensBeforeDetector", "detect_races"]


class _AddressState:
    """Access history for one address."""

    __slots__ = ("write_tid", "write_clock", "write_pc", "reads")

    def __init__(self):
        self.write_tid: int = -1
        self.write_clock: int = 0
        self.write_pc: int = -1
        #: tid -> (clock, pc) for reads since the last write
        self.reads: Dict[int, Tuple[int, int]] = {}


class HappensBeforeDetector:
    """Streaming happens-before detector; feed events, then read ``report``."""

    def __init__(self, alloc_as_sync: bool = True):
        self.alloc_as_sync = alloc_as_sync
        self.report = RaceReport()
        self._thread_vc: Dict[int, VectorClock] = {}
        self._var_vc: Dict[SyncVar, VectorClock] = {}
        self._addresses: Dict[int, _AddressState] = {}
        self.events_processed = 0

    # ------------------------------------------------------------------
    def _vc_of(self, tid: int) -> VectorClock:
        vc = self._thread_vc.get(tid)
        if vc is None:
            # A thread's own component starts at 1 so its first accesses are
            # distinguishable from the all-zero initial clock.
            vc = VectorClock({tid: 1})
            self._thread_vc[tid] = vc
        return vc

    def feed(self, event: Event) -> None:
        """Process one event."""
        self.events_processed += 1
        if isinstance(event, SyncEvent):
            self._on_sync(event)
        else:
            self._on_memory(event)

    def feed_all(self, events: Iterable[Event]) -> "HappensBeforeDetector":
        for event in events:
            self.feed(event)
        return self

    # ------------------------------------------------------------------
    def _on_sync(self, event: SyncEvent) -> None:
        if not self.alloc_as_sync and event.kind in (
            SyncKind.ALLOC_PAGE, SyncKind.FREE_PAGE
        ):
            return
        thread_vc = self._vc_of(event.tid)
        var_vc = self._var_vc.get(event.var)
        if event.is_acquire and var_vc is not None:
            thread_vc.join(var_vc)
        if event.is_release:
            if var_vc is None:
                var_vc = VectorClock()
                self._var_vc[event.var] = var_vc
            var_vc.join(thread_vc)
            # Advance the releasing thread past the published clock so its
            # subsequent events are not ordered before the matching acquire.
            thread_vc.tick(event.tid)

    def _on_memory(self, event: MemoryEvent) -> None:
        state = self._addresses.get(event.addr)
        if state is None:
            state = _AddressState()
            self._addresses[event.addr] = state
        vc = self._vc_of(event.tid)
        tid = event.tid

        # Race against the last write (for both reads and writes).
        if (
            state.write_tid >= 0
            and state.write_tid != tid
            and state.write_clock > vc.get(state.write_tid)
        ):
            self.report.record(RaceInstance(
                addr=event.addr,
                first_tid=state.write_tid,
                second_tid=tid,
                first_pc=state.write_pc,
                second_pc=event.pc,
                first_is_write=True,
                second_is_write=event.is_write,
            ))

        if event.is_write:
            # A write also races against unordered reads since the last write.
            for read_tid, (read_clock, read_pc) in state.reads.items():
                if read_tid != tid and read_clock > vc.get(read_tid):
                    self.report.record(RaceInstance(
                        addr=event.addr,
                        first_tid=read_tid,
                        second_tid=tid,
                        first_pc=read_pc,
                        second_pc=event.pc,
                        first_is_write=False,
                        second_is_write=True,
                    ))
            state.write_tid = tid
            state.write_clock = vc.get(tid)
            state.write_pc = event.pc
            state.reads.clear()
        else:
            state.reads[tid] = (vc.get(tid), event.pc)

    # ------------------------------------------------------------------
    @property
    def addresses_tracked(self) -> int:
        """Distinct addresses with metadata (the paper's memory-cost driver)."""
        return len(self._addresses)


def detect_races(events: Iterable[Event],
                 alloc_as_sync: bool = True) -> RaceReport:
    """Run the happens-before detector over ``events``; return its report."""
    detector = HappensBeforeDetector(alloc_as_sync=alloc_as_sync)
    detector.feed_all(events)
    return detector.report
