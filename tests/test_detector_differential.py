"""Differential harness: the flat batched detector vs the references.

The flat-clock hot path (:class:`repro.detector.flat.FlatDetector`) rewrites
the correctness core of the project, so its contract is *byte-identical*
output, not statistical agreement: on any event stream, the batched
detector must produce exactly the reference detector's ``RaceReport``
(occurrence counts, example instances, racy addresses) and diagnostics
(fast-path hits, escalations, events processed) for the same algorithm.

Three layers of evidence:

* every registered workload, profiled with the Full sampler (dense logs,
  real sync structure) — byte-identical reports on all 12;
* hypothesis-randomized streams — interleaved sync/memory traffic over all
  sync kinds including page alloc/free, both ``alloc_as_sync`` modes, and
  the per-event ``feed`` shim;
* directed edge cases — read-shared escalation, collapse back to epochs,
  and re-escalation, where FastTrack's state machine has its corners.

One deliberate non-assertion: FastTrack and HB may report *different PC
pairs* (FastTrack's same-epoch read fast path can skip a write-race check
that HB performs, so neither race-key set contains the other).  The
order-independent invariant both must share is the set of racy addresses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.core.literace import LiteRace
from repro.detector.fasttrack import FastTrackDetector
from repro.detector.flat import FlatDetector
from repro.detector.hb import HappensBeforeDetector
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.segment import (
    SegmentBatcher,
    columns_from_events,
    encode_segment,
)

#: Per-workload cap: differential equivalence on a prefix is still exact
#: (both sides consume the same events), and it bounds tier-1 runtime.
MAX_EVENTS = 60_000

WORKLOADS = list(workloads.names())


def report_key(detector):
    report = detector.report
    return (dict(report.occurrences), dict(report.examples),
            set(report.addresses))


def reference_for(algorithm, alloc_as_sync=True):
    if algorithm == "fasttrack":
        return FastTrackDetector(alloc_as_sync=alloc_as_sync)
    return HappensBeforeDetector(alloc_as_sync=alloc_as_sync)


def assert_flat_matches(events, algorithm, alloc_as_sync=True):
    """The core differential check, returning both detectors."""
    reference = reference_for(algorithm, alloc_as_sync).feed_all(events)
    flat = FlatDetector(algorithm, alloc_as_sync=alloc_as_sync)
    flat.feed_batch(columns_from_events(events))
    assert report_key(flat) == report_key(reference)
    if algorithm == "fasttrack":
        assert flat.fast_path_hits == reference.fast_path_hits
        assert flat.escalations == reference.escalations
    else:
        assert flat.events_processed == reference.events_processed
    return reference, flat


@pytest.fixture(scope="module")
def workload_logs():
    logs = {}
    for name in WORKLOADS:
        program = workloads.build(name, seed=1, scale=0.05)
        _, log = LiteRace(sampler="Full", seed=1).profile(program)
        logs[name] = log.events[:MAX_EVENTS]
    return logs


class TestAllWorkloads:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_byte_identical_reports(self, workload_logs, name):
        events = workload_logs[name]
        ft_ref, ft_flat = assert_flat_matches(events, "fasttrack")
        hb_ref, hb_flat = assert_flat_matches(events, "hb")
        # Across algorithms the racy-address set is the shared invariant.
        assert ft_ref.report.addresses == hb_ref.report.addresses
        assert ft_flat.report.addresses == hb_flat.report.addresses

    def test_workload_set_is_complete(self):
        # The acceptance bar is "all 12 hand-written workloads plus the
        # 4 scenario-compiled ones"; fail loudly if the registry changes
        # shape rather than silently testing fewer.
        assert len(WORKLOADS) == 16


# -- randomized streams ------------------------------------------------------

_SYNC_CHOICES = [
    (SyncKind.LOCK, "mutex"), (SyncKind.UNLOCK, "mutex"),
    (SyncKind.WAIT, "event"), (SyncKind.NOTIFY, "event"),
    (SyncKind.FORK, "thread"), (SyncKind.JOIN, "thread"),
    (SyncKind.THREAD_START, "thread"), (SyncKind.THREAD_EXIT, "thread"),
    (SyncKind.ATOMIC, "atomic"),
    (SyncKind.ALLOC_PAGE, "page"), (SyncKind.FREE_PAGE, "page"),
]


@st.composite
def event_streams(draw, max_events=300):
    """Interleaved sync/memory streams over a small, collision-rich space.

    Few addresses and few PCs force the interesting paths: same-epoch hits,
    read-shared escalation, collapse on ordered writes, and repeated race
    recording on the same PC pair.
    """
    n = draw(st.integers(0, max_events))
    events = []
    ts = 0
    for _ in range(n):
        tid = draw(st.integers(0, 3))
        if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
            kind, domain = draw(st.sampled_from(_SYNC_CHOICES))
            ts += 1
            events.append(SyncEvent(tid, kind, (domain,
                                                draw(st.integers(0, 2))),
                                    ts, draw(st.integers(0, 40))))
        else:
            events.append(MemoryEvent(tid, draw(st.integers(0, 7)),
                                      draw(st.integers(0, 40)),
                                      draw(st.booleans())))
    return events


class TestRandomizedStreams:
    @settings(max_examples=60, deadline=None)
    @given(events=event_streams(), alloc=st.booleans())
    def test_fasttrack_byte_identical(self, events, alloc):
        assert_flat_matches(events, "fasttrack", alloc_as_sync=alloc)

    @settings(max_examples=60, deadline=None)
    @given(events=event_streams(), alloc=st.booleans())
    def test_hb_byte_identical(self, events, alloc):
        assert_flat_matches(events, "hb", alloc_as_sync=alloc)

    @settings(max_examples=30, deadline=None)
    @given(events=event_streams(max_events=120))
    def test_racy_addresses_agree_across_algorithms(self, events):
        ft = FastTrackDetector().feed_all(events)
        hb = HappensBeforeDetector().feed_all(events)
        assert ft.report.addresses == hb.report.addresses

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams(max_events=150))
    def test_feed_shim_matches_reference(self, events):
        for algorithm in ("fasttrack", "hb"):
            reference = reference_for(algorithm).feed_all(events)
            shim = FlatDetector(algorithm)
            for event in events:
                shim.feed(event)
            assert report_key(shim) == report_key(reference)

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams(max_events=150),
           split=st.integers(0, 150))
    def test_batch_boundaries_are_invisible(self, events, split):
        # Feeding one batch or two must be indistinguishable: detector
        # state carries across feed_batch calls exactly.
        whole = FlatDetector("fasttrack")
        whole.feed_batch(columns_from_events(events))
        halved = FlatDetector("fasttrack")
        halved.feed_batch(columns_from_events(events[:split]))
        halved.feed_batch(columns_from_events(events[split:]))
        assert report_key(whole) == report_key(halved)
        assert whole.fast_path_hits == halved.fast_path_hits
        assert whole.escalations == halved.escalations


# -- directed FastTrack state-machine edges ----------------------------------

def mem(tid, addr, pc, write):
    return MemoryEvent(tid, addr, pc, write)


def sync(tid, kind, ident, ts, pc=0):
    return SyncEvent(tid, kind, ("mutex", ident), ts, pc)


class TestEscalationEdges:
    def test_read_shared_escalation_and_counters(self):
        # Two unordered readers escalate the read epoch to a read map.
        events = [mem(0, 0x10, 1, False), mem(1, 0x10, 2, False)]
        ref, flat = assert_flat_matches(events, "fasttrack")
        assert flat.escalations == 1

    def test_write_collapses_read_map(self):
        # Escalate, order everything via a lock handoff, then write: the
        # ordered write collapses the read map back to epoch state, and a
        # later unordered read must escalate again.
        events = [
            mem(0, 0x10, 1, False),
            mem(1, 0x10, 2, False),          # escalate
            sync(1, SyncKind.UNLOCK, 9, 1),
            sync(0, SyncKind.LOCK, 9, 2),
            mem(0, 0x10, 3, True),           # ordered write: collapse
            mem(2, 0x10, 4, False),          # unordered read vs that write
            mem(0, 0x10, 5, False),          # second reader: escalate again
        ]
        ref, flat = assert_flat_matches(events, "fasttrack")
        assert flat.escalations == 2

    def test_same_epoch_fast_paths_counted(self):
        events = [mem(0, 0x10, 1, True)] + [mem(0, 0x10, 2, True)] * 5 \
            + [mem(0, 0x10, 3, False)] * 3
        ref, flat = assert_flat_matches(events, "fasttrack")
        assert flat.fast_path_hits == ref.fast_path_hits > 0

    def test_alloc_free_reset_vs_plain_sync(self):
        # ALLOC_PAGE/FREE_PAGE are both acquire and release; with
        # alloc_as_sync off they are skipped entirely.  Both modes must
        # match their reference byte for byte.
        events = [
            sync(0, SyncKind.ALLOC_PAGE, 1, 1),
            mem(0, 0x40, 1, True),
            sync(0, SyncKind.FREE_PAGE, 1, 2),
            sync(1, SyncKind.ALLOC_PAGE, 1, 3),
            mem(1, 0x40, 2, True),
        ]
        for alloc in (True, False):
            assert_flat_matches(events, "fasttrack", alloc_as_sync=alloc)
            assert_flat_matches(events, "hb", alloc_as_sync=alloc)


# -- the pure loop under chunking, frames and shard filters ------------------

def routed(events, shard):
    """``events`` without the memory events that ``shard`` filters out."""
    if shard is None:
        return list(events)
    shard_id, num_shards, block_shift = shard
    return [e for e in events if isinstance(e, SyncEvent)
            or (e.addr >> block_shift) % num_shards == shard_id]


def run_flat(events, algorithm, *, alloc_as_sync=True, batch_size=None,
             shard=None):
    """Feed ``events`` through a FlatDetector in ``batch_size`` chunks."""
    detector = FlatDetector(algorithm, alloc_as_sync=alloc_as_sync)
    if batch_size is None:
        chunks = [events]
    else:
        chunks = [events[i:i + batch_size]
                  for i in range(0, len(events), batch_size)]
    for chunk in chunks:
        cols = columns_from_events(chunk)
        if shard is None:
            detector.feed_batch(cols)
        else:
            shard_id, num_shards, block_shift = shard
            detector.feed_batch(cols, shard_id=shard_id,
                                num_shards=num_shards,
                                block_shift=block_shift)
    return detector


def assert_same_as_one_feed(detector, events, algorithm, *,
                            alloc_as_sync=True, shard=None):
    """``detector`` vs one unfiltered feed of what ``shard`` keeps:
    byte-identical reports AND counters."""
    whole = FlatDetector(algorithm, alloc_as_sync=alloc_as_sync)
    whole.feed_batch(columns_from_events(routed(events, shard)))
    assert detector.kernel == whole.kernel == "pure"
    assert report_key(detector) == report_key(whole)
    assert detector.events_processed == whole.events_processed
    assert detector.fast_path_hits == whole.fast_path_hits
    assert detector.escalations == whole.escalations
    return whole


def assert_kernels_agree(events, algorithm, *, alloc_as_sync=True,
                         batch_size=None, shard=None):
    """Chunked, shard-filtered feeds vs one feed of the routed events."""
    chunked = run_flat(events, algorithm, alloc_as_sync=alloc_as_sync,
                       batch_size=batch_size, shard=shard)
    assert_same_as_one_feed(chunked, events, algorithm,
                            alloc_as_sync=alloc_as_sync, shard=shard)
    return chunked


class TestKernelEquivalence:
    """The pure loop is the one kernel: how events reach it is invisible.

    Whole or in chunks, frame by frame through :class:`SegmentBatcher`, or
    through the in-loop shard filter, the detector must end exactly where
    one feed of the events it keeps would.
    """

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("algorithm", ["fasttrack", "hb"])
    def test_workloads_byte_identical(self, workload_logs, name, algorithm):
        # The streaming path: 512-event SEGMENT frames (the client's
        # default), each decoded and detected as it is pushed.
        events = workload_logs[name][:20_000]
        detector = FlatDetector(algorithm)
        batcher = SegmentBatcher(detector.feed_batch)
        for start in range(0, len(events), 512):
            batcher.push(encode_segment(events[start:start + 512]))
        batcher.flush()
        assert_same_as_one_feed(detector, events, algorithm)

    @settings(max_examples=30, deadline=None)
    @given(events=event_streams(), alloc=st.booleans(),
           batch=st.sampled_from([1, 7, 50, 300]))
    def test_randomized_streams(self, events, alloc, batch):
        for algorithm in ("fasttrack", "hb"):
            assert_kernels_agree(events, algorithm, alloc_as_sync=alloc,
                                 batch_size=batch)

    @settings(max_examples=20, deadline=None)
    @given(events=event_streams(max_events=200),
           num_shards=st.sampled_from([1, 2, 4]))
    def test_shard_filter_equivalence(self, events, num_shards):
        # Per shard, the filter equals dropping the other shards' memory
        # events up front; across shards, the union of the reports equals
        # the unsharded report's racy-address set.
        whole = assert_kernels_agree(events, "hb")
        union = set()
        for shard_id in range(num_shards):
            sharded = assert_kernels_agree(
                events, "hb", shard=(shard_id, num_shards, 2))
            union |= set(sharded.report.addresses)
        assert union == set(whole.report.addresses)

    def test_epoch_collision_at_segment_edges(self):
        # Release ticks between batches: thread 0's clock advances at a
        # batch boundary, so the epoch a thread holds when the next batch
        # starts differs from the shadow's by exactly one tick.  Any state
        # that does not carry across feed_batch calls shows up here.
        events = []
        for round_no in range(6):
            events.extend(mem(0, 0x10, 1, True) for _ in range(5))
            events.append(sync(0, SyncKind.UNLOCK, 1, 2 * round_no + 1))
            events.extend(mem(0, 0x10, 2, False) for _ in range(5))
            events.append(sync(1, SyncKind.LOCK, 1, 2 * round_no + 2))
        for batch in (5, 6, 11, None):
            assert_kernels_agree(events, "fasttrack", batch_size=batch)
            assert_kernels_agree(events, "hb", batch_size=batch)

    def test_shard_mask_block_boundaries(self):
        # Addresses straddling block edges: with block_shift=6, addresses
        # 63 and 64 are different blocks; an off-by-one in the
        # (addr >> shift) % num_shards filter silently drops or duplicates
        # the boundary access.
        edge_addrs = [0, 1, 63, 64, 65, 127, 128, 191, 192, 255]
        events = []
        for i, addr in enumerate(edge_addrs * 8):
            events.append(mem(i % 3, addr, addr & 0x3F, i % 2 == 0))
        for num_shards in (2, 3, 4):
            per_shard_counts = []
            for shard_id in range(num_shards):
                sharded = assert_kernels_agree(
                    events, "hb", shard=(shard_id, num_shards, 6))
                per_shard_counts.append(sharded.events_processed)
            # Every memory event lands on exactly one shard.
            assert sum(per_shard_counts) == len(events)

    def test_mixed_kernel_and_fallback_sequences(self):
        # Alternating filtered (one shard, so it keeps everything) and
        # unfiltered feeds on one detector: both branches of the loop
        # must leave the same state behind.
        events = [mem(t, a, a + 1, w) for t in (0, 1)
                  for a in (0x10, 0x40, 0x80) for w in (True, False)] * 10
        mixed = FlatDetector("hb")
        for start in range(0, len(events), 17):
            cols = columns_from_events(events[start:start + 17])
            if (start // 17) % 2:
                mixed.feed_batch(cols, shard_id=0, num_shards=1,
                                 block_shift=6)
            else:
                mixed.feed_batch(cols)
        assert_same_as_one_feed(mixed, events, "hb")
