"""A FastTrack-style epoch-optimized happens-before detector.

:class:`~repro.detector.hb.HappensBeforeDetector` keeps, per address, the
last write plus a *map* of reads since — simple and exact, but the read map
costs O(threads) space and its write-check O(threads) time per address.
Flanagan & Freund's FastTrack observed that almost all accesses are
totally ordered, so a single ``(tid, clock)`` *epoch* suffices for the read
state too, escalating to a full read map only for genuinely read-shared
data.

This implementation follows that design:

* read state is a single epoch while reads stay ordered;
* on a read concurrent with the current read epoch, the address escalates
  to a read map (``shared`` mode);
* a write checks the epoch (O(1)) in the common case and the full map only
  for shared addresses, then collapses the state back to epochs.

It reports the same racy addresses as the reference detector on any event
stream (property-tested), while doing O(1) work for the overwhelmingly
common same-epoch and ordered cases — the reason tools can afford
happens-before precision at all, and a drop-in alternative consumer for
LiteRace's logs (``LiteRace(...).analyze_log`` equivalent via
:func:`fasttrack_races`).

Unlike :mod:`repro.detector.hb`, it has no flat twin: production runs
:class:`~repro.detector.flat.FlatDetector`, the flat form of the
happens-before detector.  This one stays as public API and as a second
reference: ``tests/test_detector_differential.py`` checks that it reports
the happens-before detector's racy addresses on every workload and on
randomized streams.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..eventlog.events import Event, MemoryEvent, SyncEvent, SyncKind
from .races import RaceInstance, RaceReport
from .vectorclock import VectorClock

__all__ = ["FastTrackDetector", "fasttrack_races"]


class _State:
    """FastTrack metadata for one address."""

    __slots__ = ("write_tid", "write_clock", "write_pc",
                 "read_tid", "read_clock", "read_pc", "read_map")

    def __init__(self):
        self.write_tid = -1
        self.write_clock = 0
        self.write_pc = -1
        # Epoch read state (read_tid == -1 means "no reads since write").
        self.read_tid = -1
        self.read_clock = 0
        self.read_pc = -1
        # Escalated read state: tid -> (clock, pc); None while in epoch mode.
        self.read_map: Optional[Dict[int, Tuple[int, int]]] = None


class FastTrackDetector:
    """Streaming epoch-optimized happens-before detector."""

    def __init__(self, alloc_as_sync: bool = True):
        self.alloc_as_sync = alloc_as_sync
        self.report = RaceReport()
        self._thread_vc: Dict[int, VectorClock] = {}
        self._var_vc: Dict[Tuple[str, int], VectorClock] = {}
        self._addresses: Dict[int, _State] = {}
        #: How often the fast same-epoch/ordered paths sufficed (the
        #: optimization's whole point; exposed for the benchmark).
        self.fast_path_hits = 0
        self.escalations = 0

    def _vc_of(self, tid: int) -> VectorClock:
        vc = self._thread_vc.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._thread_vc[tid] = vc
        return vc

    def feed(self, event: Event) -> None:
        if isinstance(event, SyncEvent):
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
                thread_vc.tick(event.tid)
            return
        if event.is_write:
            self._on_write(event)
        else:
            self._on_read(event)

    def feed_all(self, events: Iterable[Event]) -> "FastTrackDetector":
        for event in events:
            self.feed(event)
        return self

    # ------------------------------------------------------------------
    def _record(self, event, first_tid, first_pc, first_is_write):
        self.report.record(RaceInstance(
            addr=event.addr,
            first_tid=first_tid,
            second_tid=event.tid,
            first_pc=first_pc,
            second_pc=event.pc,
            first_is_write=first_is_write,
            second_is_write=event.is_write,
        ))

    def _check_write(self, state: _State, event: MemoryEvent,
                     vc: VectorClock) -> None:
        """Race check against the last-write epoch (reads and writes)."""
        if (
            state.write_tid >= 0
            and state.write_tid != event.tid
            and state.write_clock > vc.get(state.write_tid)
        ):
            self._record(event, state.write_tid, state.write_pc, True)

    def _on_read(self, event: MemoryEvent) -> None:
        state = self._addresses.get(event.addr)
        if state is None:
            state = _State()
            self._addresses[event.addr] = state
        vc = self._vc_of(event.tid)
        tid = event.tid
        own = vc.get(tid)

        # Same-epoch read: nothing can have changed.
        if state.read_map is None and state.read_tid == tid \
                and state.read_clock == own:
            self.fast_path_hits += 1
            return

        self._check_write(state, event, vc)

        if state.read_map is not None:
            state.read_map[tid] = (own, event.pc)
            return
        if state.read_tid < 0 or state.read_tid == tid \
                or state.read_clock <= vc.get(state.read_tid):
            # Ordered after the previous read epoch: stay in epoch mode.
            state.read_tid = tid
            state.read_clock = own
            state.read_pc = event.pc
            self.fast_path_hits += 1
            return
        # Concurrent reads: escalate to a read map.
        self.escalations += 1
        state.read_map = {
            state.read_tid: (state.read_clock, state.read_pc),
            tid: (own, event.pc),
        }

    def _on_write(self, event: MemoryEvent) -> None:
        state = self._addresses.get(event.addr)
        if state is None:
            state = _State()
            self._addresses[event.addr] = state
        vc = self._vc_of(event.tid)
        tid = event.tid
        own = vc.get(tid)

        # Same-epoch write: nothing can have changed.
        if (
            state.write_tid == tid and state.write_clock == own
            and state.read_map is None and state.read_tid < 0
        ):
            self.fast_path_hits += 1
            state.write_pc = event.pc
            return

        self._check_write(state, event, vc)

        if state.read_map is not None:
            for read_tid, (read_clock, read_pc) in state.read_map.items():
                if read_tid != tid and read_clock > vc.get(read_tid):
                    self._record(event, read_tid, read_pc, False)
            state.read_map = None
        elif (
            state.read_tid >= 0
            and state.read_tid != tid
            and state.read_clock > vc.get(state.read_tid)
        ):
            self._record(event, state.read_tid, state.read_pc, False)
        else:
            self.fast_path_hits += 1

        state.write_tid = tid
        state.write_clock = own
        state.write_pc = event.pc
        state.read_tid = -1
        state.read_clock = 0
        state.read_pc = -1

    @property
    def addresses_tracked(self) -> int:
        return len(self._addresses)

    @property
    def shared_addresses(self) -> int:
        """Addresses currently escalated to full read maps."""
        return sum(1 for s in self._addresses.values()
                   if s.read_map is not None)


def fasttrack_races(events: Iterable[Event],
                    alloc_as_sync: bool = True) -> RaceReport:
    """Run the FastTrack detector over ``events``; return its report."""
    detector = FastTrackDetector(alloc_as_sync=alloc_as_sync)
    detector.feed_all(events)
    return detector.report
