"""Online race detection (§4.4, §7).

The paper's implementation writes logs to disk and analyzes them offline,
but explicitly anticipates "an online detector that can avoid runtime
slowdown by using an idle core in a many-core processor".  This module
provides that consumer: an :class:`OnlineRaceDetector` plugs directly into
the profiling harness as an event sink, analyzes events as they are
produced, and never retains the log — its memory footprint is the detector
metadata plus one bounded micro-batch.

Analysis runs on the batched flat-clock detector
(:class:`repro.detector.flat.FlatDetector`): events are buffered into
micro-batches of :data:`FLUSH_EVENTS` and fed through ``feed_batch``, which
amortizes per-event dispatch the way the spare analysis core would drain a
ring buffer.  Buffering is invisible to readers — ``report`` and
``addresses_tracked`` flush the pending batch first, so every observation
reflects all events fed so far, byte-identical to unbatched analysis.

It also models the spare-core budget: the detector tracks how many analysis
cycles it consumed, so experiments can check whether one spare core keeps up
with the profiled application (``keeps_up_with``).
"""

from __future__ import annotations

from typing import List

from ..eventlog.events import Event, MemoryEvent
from ..eventlog.segment import columns_from_events
from .flat import FlatDetector
from .races import RaceReport

__all__ = ["OnlineRaceDetector", "FLUSH_EVENTS"]

#: Analysis cycles per event, in the same units as the runtime cost model.
#: Sync events are costlier (vector-clock joins) than memory events
#: (epoch comparisons), mirroring FastTrack-style detectors.
_MEMORY_ANALYSIS_COST = 25
_SYNC_ANALYSIS_COST = 120

#: Default micro-batch size: events buffered before a ``feed_batch`` flush.
#: Small enough that the buffered tail is negligible memory, large enough
#: to amortize the per-batch setup of the pure loop.  The committed value
#: is the winner of the ``repro bench --quick`` flush-size sweep (on the
#: pure loop; throughput is flat within noise from 256 to 4096 events and
#: only 128 lags); override per instance via ``flush_events``.
FLUSH_EVENTS = 4096


class OnlineRaceDetector:
    """A streaming event sink performing happens-before analysis."""

    def __init__(self, alloc_as_sync: bool = True,
                 flush_events: int = FLUSH_EVENTS):
        if flush_events < 1:
            raise ValueError("flush_events must be >= 1")
        self._detector = FlatDetector("hb", alloc_as_sync=alloc_as_sync)
        self._pending: List[Event] = []
        self.flush_events = flush_events
        self.events_consumed = 0
        self.analysis_cycles = 0

    def feed(self, event: Event) -> None:
        """Consume one event as it is produced by the profiler."""
        self.events_consumed += 1
        if isinstance(event, MemoryEvent):
            self.analysis_cycles += _MEMORY_ANALYSIS_COST
        else:
            self.analysis_cycles += _SYNC_ANALYSIS_COST
        pending = self._pending
        pending.append(event)
        if len(pending) >= self.flush_events:
            self.flush()

    def flush(self) -> None:
        """Run analysis over the buffered micro-batch."""
        if self._pending:
            self._detector.feed_batch(columns_from_events(self._pending))
            self._pending.clear()

    @property
    def report(self) -> RaceReport:
        self.flush()
        return self._detector.report

    @property
    def addresses_tracked(self) -> int:
        self.flush()
        return self._detector.addresses_tracked

    def keeps_up_with(self, application_cycles: int,
                      spare_cores: int = 1) -> bool:
        """Would ``spare_cores`` of analysis keep pace with the profiled run?

        True iff the analysis cycles fit within the application's own
        runtime multiplied by the spare core budget — the condition for the
        online detector to add no slowdown (§4.4).
        """
        if spare_cores < 1:
            raise ValueError("spare_cores must be >= 1")
        return self.analysis_cycles <= application_cycles * spare_cores
