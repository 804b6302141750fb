"""Analysis-throughput benchmark: reference detectors vs the flat hot path.

Not a paper table — this measures the offline analyzer itself, which
matters for the paper's deployment story (§4.4: logs are processed offline
or on a spare core, so analysis throughput bounds how much profiling a
fleet can afford).  FastTrack's epoch fast paths should keep it at least
competitive with the reference detector while reporting the same racy
addresses, and the batched flat-clock pipeline must beat the per-event
feed loop by a real margin — asserted as a floor so a regression in the
hot path fails loudly instead of quietly eroding the BENCH trajectory.
"""

import time

import pytest

from repro import workloads
from repro.core.literace import LiteRace
from repro.detector.fasttrack import FastTrackDetector
from repro.detector.flat import FlatDetector
from repro.detector.hb import HappensBeforeDetector
from repro.eventlog.segment import (decode_segment, decode_segment_columns,
                                    encode_segment)


@pytest.fixture(scope="module")
def full_log():
    program = workloads.build("dryad", seed=1, scale=0.1)
    _, log = LiteRace(sampler="Full", seed=1).profile(program)
    return log


def test_reference_detector_throughput(benchmark, full_log):
    def analyze():
        detector = HappensBeforeDetector()
        detector.feed_all(full_log.events)
        return detector

    detector = benchmark.pedantic(analyze, rounds=3, iterations=1)
    benchmark.extra_info["events"] = len(full_log)
    benchmark.extra_info["races"] = detector.report.num_static


def test_fasttrack_detector_throughput(benchmark, full_log):
    def analyze():
        detector = FastTrackDetector()
        detector.feed_all(full_log.events)
        return detector

    detector = benchmark.pedantic(analyze, rounds=3, iterations=1)
    memory_events = full_log.memory_count
    benchmark.extra_info["fast_path_fraction"] = round(
        detector.fast_path_hits / memory_events, 4)
    # The epoch optimization must actually be taking its fast paths, and
    # must agree with the reference detector on racy addresses.
    assert detector.fast_path_hits > 0.7 * memory_events
    reference = HappensBeforeDetector()
    reference.feed_all(full_log.events)
    assert detector.report.addresses == reference.report.addresses


def test_flat_batched_detector_throughput(benchmark, full_log):
    def analyze():
        return FlatDetector("fasttrack").feed_all(full_log.events)

    detector = benchmark.pedantic(analyze, rounds=3, iterations=1)
    benchmark.extra_info["events"] = len(full_log)
    # Identical output to the per-event reference, not just "close".
    reference = FastTrackDetector()
    reference.feed_all(full_log.events)
    assert detector.report.occurrences == reference.report.occurrences
    assert detector.report.addresses == reference.report.addresses
    assert detector.fast_path_hits == reference.fast_path_hits


#: The committed trajectory is ~2.7-3.6x (BENCH_detector.json); the floor
#: sits far below it so only a genuine hot-path regression trips, not
#: scheduler noise on a busy CI box.
FLAT_PIPELINE_FLOOR = 1.5


def test_flat_pipeline_speedup_floor(full_log):
    """decode+detect over wire segments: flat must stay >= 1.5x reference."""
    events = full_log.events[:120_000]
    frames = [encode_segment(events[i:i + 512])
              for i in range(0, len(events), 512)]

    def reference():
        detector = FastTrackDetector()
        feed = detector.feed
        for frame in frames:
            for event in decode_segment(frame)[0]:
                feed(event)
        return detector

    def flat():
        detector = FlatDetector("fasttrack")
        for frame in frames:
            cols, _ = decode_segment_columns(frame)
            detector.feed_batch(cols)
        return detector

    best = {reference: float("inf"), flat: float("inf")}
    for _ in range(3):
        for side in (reference, flat):
            start = time.perf_counter()
            side()
            best[side] = min(best[side], time.perf_counter() - start)
    speedup = best[reference] / best[flat]
    assert speedup >= FLAT_PIPELINE_FLOOR, (
        f"flat pipeline only {speedup:.2f}x over per-event feed "
        f"(floor {FLAT_PIPELINE_FLOOR}x) — hot-path regression")
