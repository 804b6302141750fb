"""Differential harness: the flat batched detector vs the reference.

The flat-clock hot path (:class:`repro.detector.flat.FlatDetector`) rewrites
the correctness core of the project, so its contract is *byte-identical*
output, not statistical agreement: on any event stream, the batched
detector must produce exactly the reference ``HappensBeforeDetector``'s
``RaceReport`` (occurrence counts, example instances, racy addresses) and
``events_processed``.

Three layers of evidence:

* every registered workload, profiled with the Full sampler (dense logs,
  real sync structure) — byte-identical reports on all 16;
* hypothesis-randomized streams — interleaved sync/memory traffic over all
  sync kinds including page alloc/free, both ``alloc_as_sync`` modes, and
  any split into batches;
* directed edge cases — page alloc/free in both modes, and epochs at
  batch edges.

The reference ``FastTrackDetector`` is held to HB here as well.  One
deliberate non-assertion: FastTrack and HB may report *different PC pairs*
(FastTrack's same-epoch read fast path can skip a write-race check that HB
performs, so neither race-key set contains the other).  The
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


def assert_flat_matches(events, alloc_as_sync=True):
    """The core differential check, returning the reference detector."""
    reference = HappensBeforeDetector(
        alloc_as_sync=alloc_as_sync).feed_all(events)
    flat = FlatDetector("hb", alloc_as_sync=alloc_as_sync)
    flat.feed_batch(columns_from_events(events))
    assert report_key(flat) == report_key(reference)
    assert flat.events_processed == reference.events_processed
    return reference


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
        hb_ref = assert_flat_matches(events)
        # Across algorithms the racy-address set is the shared invariant.
        ft_ref = FastTrackDetector().feed_all(events)
        assert ft_ref.report.addresses == hb_ref.report.addresses

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
    def test_hb_byte_identical(self, events, alloc):
        assert_flat_matches(events, alloc_as_sync=alloc)

    @settings(max_examples=30, deadline=None)
    @given(events=event_streams(max_events=120))
    def test_racy_addresses_agree_across_algorithms(self, events):
        ft = FastTrackDetector().feed_all(events)
        hb = HappensBeforeDetector().feed_all(events)
        assert ft.report.addresses == hb.report.addresses

    @settings(max_examples=25, deadline=None)
    @given(events=event_streams(max_events=150),
           split=st.integers(0, 150))
    def test_batch_boundaries_are_invisible(self, events, split):
        # Feeding one batch or two must be indistinguishable: detector
        # state carries across feed_batch calls exactly.
        whole = FlatDetector("hb")
        whole.feed_batch(columns_from_events(events))
        halved = FlatDetector("hb")
        halved.feed_batch(columns_from_events(events[:split]))
        halved.feed_batch(columns_from_events(events[split:]))
        assert report_key(whole) == report_key(halved)
        assert whole.events_processed == halved.events_processed


# -- directed edges ----------------------------------------------------------

def mem(tid, addr, pc, write):
    return MemoryEvent(tid, addr, pc, write)


def sync(tid, kind, ident, ts, pc=0):
    return SyncEvent(tid, kind, ("mutex", ident), ts, pc)


class TestEscalationEdges:
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
            assert_flat_matches(events, alloc_as_sync=alloc)


# -- the pure loop under chunking and frames --------------------------------

def run_flat(events, *, alloc_as_sync=True, batch_size=None):
    """Feed ``events`` through a FlatDetector in ``batch_size`` chunks."""
    detector = FlatDetector("hb", alloc_as_sync=alloc_as_sync)
    if batch_size is None:
        chunks = [events]
    else:
        chunks = [events[i:i + batch_size]
                  for i in range(0, len(events), batch_size)]
    for chunk in chunks:
        detector.feed_batch(columns_from_events(chunk))
    return detector


def assert_same_as_one_feed(detector, events, *, alloc_as_sync=True):
    """``detector`` vs one feed of ``events``: byte-identical reports AND
    event counts."""
    whole = FlatDetector("hb", alloc_as_sync=alloc_as_sync)
    whole.feed_batch(columns_from_events(list(events)))
    assert detector.kernel == whole.kernel == "pure"
    assert report_key(detector) == report_key(whole)
    assert detector.events_processed == whole.events_processed


def assert_kernels_agree(events, *, alloc_as_sync=True, batch_size=None):
    """Chunked feeds vs one feed of the same events."""
    chunked = run_flat(events, alloc_as_sync=alloc_as_sync,
                       batch_size=batch_size)
    assert_same_as_one_feed(chunked, events, alloc_as_sync=alloc_as_sync)


class TestKernelEquivalence:
    """The pure loop is the one kernel: how events reach it is invisible.

    Whole or in chunks, or frame by frame through :class:`SegmentBatcher`,
    the detector must end exactly where one feed of the events would.
    """

    @pytest.mark.parametrize("name", WORKLOADS)
    # 'hb' is the only algorithm; the parameter keeps the hb-<workload> ids.
    @pytest.mark.parametrize("algorithm", ["hb"])
    def test_workloads_byte_identical(self, workload_logs, name, algorithm):
        # The streaming path: 512-event SEGMENT frames (the client's
        # default), each decoded and detected as it is pushed.
        events = workload_logs[name][:20_000]
        detector = FlatDetector(algorithm)
        batcher = SegmentBatcher(detector.feed_batch)
        for start in range(0, len(events), 512):
            batcher.push(encode_segment(events[start:start + 512]))
        batcher.flush()
        assert_same_as_one_feed(detector, events)

    @settings(max_examples=30, deadline=None)
    @given(events=event_streams(), alloc=st.booleans(),
           batch=st.sampled_from([1, 7, 50, 300]))
    def test_randomized_streams(self, events, alloc, batch):
        assert_kernels_agree(events, alloc_as_sync=alloc, batch_size=batch)

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
            assert_kernels_agree(events, batch_size=batch)
