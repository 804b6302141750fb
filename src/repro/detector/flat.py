"""The batched flat-clock detector hot path.

The reference detector (:class:`~repro.detector.hb.HappensBeforeDetector`)
processes one :class:`~repro.eventlog.events.Event` object at a time over
dict-backed :class:`~repro.detector.vectorclock.VectorClock`\\ s.  That is
the clearest possible statement of the algorithm — and the throughput
ceiling of the whole fleet: per event it pays an ``isinstance`` dispatch,
half a dozen dataclass attribute reads, several method calls, and a hash
lookup per clock component.

:class:`FlatDetector` is the same algorithm rebuilt for throughput:

* **Flat clocks, dense tids** — threads are numbered densely in order of
  first appearance (:class:`~repro.detector.flatclock.TidSlots`); every
  vector clock is a flat slot-indexed vector, and all clock vectors are
  kept at exactly ``len(slots)`` entries so component reads in the inner
  loop are guard-free integer indexing, never hashing.
* **Packed epochs** — an access epoch ``(slot, clock)`` is one int,
  ``(slot << 48) | clock``, so "same thread as the last write" is an xor
  against the thread's own packed epoch (no shift, no decode).
* **Batched columnar feed** — :meth:`feed_batch` consumes a
  :class:`~repro.eventlog.segment.SegmentColumns` (parallel int lists
  straight from the wire decoder), so the common path allocates no event
  objects at all.  The loop body is fully inlined with hot state in
  locals, synchronization included.
* **Join elision** — per SyncVar the detector remembers the slot of the
  last thread whose clock was joined with it.  While that thread keeps
  touching the var, its clock *dominates* the var's (clocks only grow),
  so the acquire join is a provable no-op and the release join collapses
  to a C-speed slice overwrite.  Under lock affinity — the common case —
  sync events cost almost nothing; under contention the full join runs.

Equivalence is the contract, not an aspiration: the
:class:`~repro.detector.races.RaceReport` (occurrences, kept examples,
racy addresses) and ``events_processed`` are **byte-identical** to the
reference happens-before detector's on any event stream — full read maps,
duplicate occurrences and all, which is what the telemetry shards and the
online detector need to keep fleet reports identical to offline analysis.
``tests/test_detector_differential.py`` enforces it.

On clock storage: clock vectors in the inner loop are Python lists, not
``array('Q')`` — CPython reads a list element as a pointer load while an
``array`` read must box a fresh int, which profiling shows costs more than
the pointer-sized storage saves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..eventlog.encode import _KIND_CODES
from ..eventlog.events import (
    ACQUIRE_KINDS,
    RELEASE_KINDS,
    Event,
    SyncKind,
)
from ..eventlog.segment import SegmentColumns, columns_from_events
from .flatclock import TidSlots
from .races import RaceInstance, RaceReport

__all__ = ["FlatDetector", "EPOCH_SHIFT", "EPOCH_CLOCK_MASK"]

#: Packed epoch layout: ``(slot << EPOCH_SHIFT) | clock``.  A clock counts
#: one tick per release edge, so 48 bits will not saturate in any run this
#: side of the heat death of a fleet; slots ride above.
#:
#: The layout makes "different slot than mine" one integer op:
#: ``(epoch ^ me) > EPOCH_CLOCK_MASK`` (xor cancels equal slot bits, leaving
#: only a clock delta, which fits under the mask).
EPOCH_SHIFT = 48
EPOCH_CLOCK_MASK = (1 << EPOCH_SHIFT) - 1

#: Wire-code truth tables, indexed by event kind code (0..max sync code).
#: Tuples, not sets: ``_IS_ACQUIRE[code]`` is an index, not a hash probe.
_MAX_CODE = max(_KIND_CODES.values())
_IS_ACQUIRE = tuple(
    any(code == _KIND_CODES[k] for k in ACQUIRE_KINDS)
    for code in range(_MAX_CODE + 1)
)
_IS_RELEASE = tuple(
    any(code == _KIND_CODES[k] for k in RELEASE_KINDS)
    for code in range(_MAX_CODE + 1)
)
_IS_PAGE = tuple(
    code in (_KIND_CODES[SyncKind.ALLOC_PAGE], _KIND_CODES[SyncKind.FREE_PAGE])
    for code in range(_MAX_CODE + 1)
)

# Per-address state is a small list, not an object: index loads beat
# attribute descriptors in the inner loop.  Layout ``[wep, wpc, reads]``:
#
#   wep:   packed write epoch; 0 = never written
#   wpc:   the last write's pc
#   reads: slot -> (clock, pc) for reads since the last write
#
# Packed epochs are never 0 for real accesses (a thread's own clock
# component starts at 1), so 0 is a safe "absent".


class FlatDetector:
    """Batched flat-clock race detector; byte-identical to
    :class:`~repro.detector.hb.HappensBeforeDetector`.

    ``algorithm`` names the algorithm it runs; ``'hb'`` is the only one,
    and any other name raises :class:`ValueError`.
    """

    def __init__(self, algorithm: str = "hb", alloc_as_sync: bool = True):
        if algorithm != "hb":
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.alloc_as_sync = alloc_as_sync
        self.report = RaceReport()
        self._slots = TidSlots()
        self._slot_of = self._slots._slot_of
        #: slot -> that thread's clock; every vector has len(slots) entries.
        self._clocks: List[List[int]] = []
        #: slot -> that thread's current packed epoch (slot << SHIFT | own).
        self._epochs: List[int] = []
        #: slot -> (clock, packed epoch, own component): one load + unpack
        #: resolves a thread in the hot loop.  Rebuilt on every release
        #: tick (the only time me/own change).
        self._ctx: List[tuple] = []
        #: var key -> the SyncVar's clock, same dense length.  Keys pack
        #: (domain_code << 32 | ident) into one int; unknown string domains
        #: (in-memory streams only) fall back to tuples — disjoint key sets.
        self._var_clocks: Dict[object, List[int]] = {}
        #: var key -> slot of the last thread joined with the var.  While
        #: that thread keeps touching the var its clock dominates the
        #: var's (clocks only grow between var operations), licensing the
        #: join elisions in the sync path.
        self._var_last: Dict[object, int] = {}
        self._addresses: Dict[int, list] = {}
        self.events_processed = 0

    #: The hot-path kernel: always the pure-Python loop.  Kept because the
    #: benchmark harness records it with every run.
    kernel = "pure"

    # -- thread registry ---------------------------------------------------
    def _new_slot(self, tid: int) -> int:
        """Register a new thread: grow every clock vector by one component.

        Thread creation is rare, so keeping the all-vectors-same-length
        invariant here buys guard-free indexing on every event.
        """
        slot = self._slots.assign(tid)
        for clock in self._clocks:
            clock.append(0)
        for clock in self._var_clocks.values():
            clock.append(0)
        clock = [0] * (slot + 1)
        # A thread's own component starts at 1, matching the references.
        clock[slot] = 1
        self._clocks.append(clock)
        me = (slot << EPOCH_SHIFT) | 1
        self._epochs.append(me)
        self._ctx.append((clock, me, 1))
        return slot

    # -- batched feed ------------------------------------------------------
    def feed_batch(self, cols: SegmentColumns, *, shard_id: int = None,
                   num_shards: int = 0,
                   block_shift: int = 0) -> Tuple[int, int]:
        """Consume one decoded segment's columns.

        With ``shard_id`` set, memory events whose address block
        (``addr >> block_shift``) does not route to that shard are skipped
        — the telemetry shard filter, applied inside the hot loop so shard
        workers never materialize filtered events either.

        Returns ``(memory_events_fed, sync_events_seen)``.
        """
        skipped = self._batch_hb(cols, shard_id, num_shards, block_shift)
        # The loop counts only what it *skips*; totals come from the
        # columns, so the hot path carries no per-event counters.
        mem_fed = cols.memory_count - skipped
        self.events_processed += mem_fed + cols.sync_count
        return mem_fed, cols.sync_count

    # The batch loop inlines the sync rule rather than calling out:
    # acquire joins the SyncVar's clock into the thread's; release joins
    # the thread's into the SyncVar's (creating it as a copy — the same
    # effect as join-into-zeros) and ticks the thread's own component,
    # refreshing its packed epoch.  Mirrors the reference's ``_on_sync``,
    # with the _var_last dominance shortcut: if this thread was the last
    # one joined with the var, vvc <= vc pointwise, so the acquire join
    # is a no-op and the release join is exactly ``vvc[:] = vc``.

    def _batch_hb(self, cols, shard_id, num_shards, block_shift):
        """The reference happens-before algorithm, inlined over columns.

        Returns the number of memory events the shard filter skipped.
        """
        domain_col = cols.sync_domains
        slot_of = self._slot_of
        ctx = self._ctx
        epochs = self._epochs
        tids = self._slots.tids
        var_clocks = self._var_clocks
        var_clocks_get = var_clocks.get
        var_last = self._var_last
        var_last_get = var_last.get
        addresses = self._addresses
        record = self.report.record
        alloc_as_sync = self.alloc_as_sync
        filtered = shard_id is not None
        sync_at = 0
        skipped = 0
        last_tid = None
        slot = -1
        vc = None
        own = 0
        me = 0  # this thread's packed epoch: (slot << SHIFT) | own
        for op, tid, addr, pc in zip(cols.ops, cols.tids, cols.addrs,
                                     cols.pcs):
            if op >= 2:
                domain = domain_col[sync_at]
                sync_at += 1
                if not alloc_as_sync and _IS_PAGE[op]:
                    continue
                if tid != last_tid:
                    try:
                        slot = slot_of[tid]
                    except KeyError:
                        slot = self._new_slot(tid)
                    vc, me, own = ctx[slot]
                    last_tid = tid
                key = ((domain << 32) | addr if type(domain) is int
                       else (domain, addr))
                vvc = var_clocks_get(key)
                mine = var_last_get(key) == slot
                if _IS_ACQUIRE[op] and vvc is not None and not mine:
                    for j, value in enumerate(vvc):
                        if value > vc[j]:
                            vc[j] = value
                    mine = True
                    var_last[key] = slot
                if _IS_RELEASE[op]:
                    if vvc is None:
                        var_clocks[key] = vc.copy()
                        var_last[key] = slot
                    elif mine:
                        vvc[:] = vc
                    else:
                        # Join into a clock this thread does not dominate
                        # (release without a prior acquire, e.g. NOTIFY or
                        # FORK): afterwards the var's clock may exceed
                        # *everyone's*, so no thread holds dominance.
                        for j, value in enumerate(vc):
                            if value > vvc[j]:
                                vvc[j] = value
                        var_last[key] = -2
                    own += 1
                    vc[slot] = own
                    me = (slot << EPOCH_SHIFT) | own
                    epochs[slot] = me
                    ctx[slot] = (vc, me, own)
                continue
            if filtered and (addr >> block_shift) % num_shards != shard_id:
                skipped += 1
                continue
            if tid != last_tid:
                try:
                    slot = slot_of[tid]
                except KeyError:
                    slot = self._new_slot(tid)
                vc, me, own = ctx[slot]
                last_tid = tid
            try:
                state = addresses[addr]
            except KeyError:
                state = addresses[addr] = [0, -1, {}]
            # Race against the last write (for both reads and writes).
            wep = state[0]
            if wep and wep ^ me > EPOCH_CLOCK_MASK:
                wslot = wep >> EPOCH_SHIFT
                if (wep & EPOCH_CLOCK_MASK) > vc[wslot]:
                    record(RaceInstance(
                        addr=addr, first_tid=tids[wslot], second_tid=tid,
                        first_pc=state[1], second_pc=pc,
                        first_is_write=True, second_is_write=bool(op)))
            if op:
                # A write also races against unordered reads since then.
                reads = state[2]
                if reads:
                    for rslot, rcp in reads.items():
                        if rslot != slot and rcp[0] > vc[rslot]:
                            record(RaceInstance(
                                addr=addr, first_tid=tids[rslot],
                                second_tid=tid, first_pc=rcp[1],
                                second_pc=pc, first_is_write=False,
                                second_is_write=True))
                    reads.clear()
                state[0] = me
                state[1] = pc
            else:
                state[2][slot] = (own, pc)
        return skipped

    # -- event objects -----------------------------------------------------
    def feed_all(self, events: Iterable[Event]) -> "FlatDetector":
        """Consume an object event stream via one batched conversion."""
        self.feed_batch(columns_from_events(
            events if isinstance(events, (list, tuple)) else list(events)))
        return self

    # -- introspection -----------------------------------------------------
    @property
    def addresses_tracked(self) -> int:
        return len(self._addresses)
