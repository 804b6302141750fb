"""Detector throughput benchmark: the ``BENCH_detector.json`` trajectory.

The fleet's throughput ceiling is the detector (ROADMAP): every segment a
telemetry worker ingests funnels through decode + happens-before analysis,
so events/sec *is* the capacity number.  This module measures it on fixed
synthetic streams and writes ``BENCH_detector.json`` at the repo root, so
every later PR has a baseline to beat and regressions show up as a broken
trajectory rather than a vague feeling.

What is measured
----------------
Each bench stream is generated from a fixed seed, encoded once into wire
segments (the production shape), and consumed end to end two ways:

* **reference** — ``decode_segment`` into event objects, then the per-event
  ``FastTrackDetector.feed`` loop (the pre-flat hot path);
* **flat** — :class:`~repro.eventlog.segment.SegmentBatcher` decoding each
  encoded frame into columns and feeding it to
  ``FlatDetector('fasttrack').feed_batch`` (the production hot path; the
  ``kernel`` field records which detector kernel ran, now always
  ``pure``).

Both sides do the full job (bytes in, ``RaceReport`` out), so the speedup
is what a shard worker actually gains.  The harness asserts the two sides
produce identical reports before trusting any timing.

The server number runs the shard-worker loop itself — the frame-at-a-time
:meth:`~repro.service.shard.ShardDetector.feed_frame` path for one shard
of four — giving segments/sec for a single worker process.

The ``online`` section sweeps :class:`OnlineRaceDetector`'s micro-batch
size (``flush_events``) on the realistic ``private_mixed`` stream; the
committed default in :mod:`repro.detector.online` is the sweep's winner.

Schema 2: ``BENCH_detector.json`` holds a ``trajectory`` list — one entry
per committed run, oldest first — so each PR *appends* its numbers and
regressions show up as a broken trajectory.  ``write_bench`` migrates a
schema-1 file into the first trajectory entry.

Streams (all 8 threads, fixed per-stream seeds):

* ``private_mixed`` — 80% thread-private bursts (30% writes), 15%
  lock-disciplined shared accesses, 5% unsynchronized shared: the
  realistic profile, and the hardest mix for the flat fast paths.
* ``read_burst`` — read-dominant private bursts with periodic locking:
  the same-epoch read fast path.
* ``write_burst`` — write-dominant private bursts: the same-epoch write
  fast path.
* ``sync_heavy`` — producer/consumer with dense lock traffic: stresses the
  sync path (joins, release ticks) that sampling-heavy logs exhibit.

Timing uses best-of-N wall clock per side, interleaved, which is the
standard defense against noisy shared machines.
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Callable, Dict, List

from .detector.fasttrack import FastTrackDetector
from .detector.flat import FlatDetector
from .detector.online import OnlineRaceDetector
from .eventlog.events import Event, MemoryEvent, SyncEvent, SyncKind
from .eventlog.segment import SegmentBatcher, decode_segment, encode_segment
from .service.shard import ShardDetector

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_EVENTS",
    "DEFAULT_REPEATS",
    "DEFAULT_SEGMENT_EVENTS",
    "ONLINE_SWEEP_SIZES",
    "STREAMS",
    "build_stream",
    "run_bench",
    "validate_bench",
    "validate_entry",
    "write_bench",
]

SCHEMA_VERSION = 2

#: ``flush_events`` candidates for the online micro-batch sweep.
ONLINE_SWEEP_SIZES = (128, 256, 512, 1024, 2048, 4096)

#: Events per stream for the committed numbers; ``repro bench --quick``
#: shrinks this for smoke runs.
DEFAULT_EVENTS = 100_000
DEFAULT_REPEATS = 5
DEFAULT_SEGMENT_EVENTS = 512
_BASE_SEED = 42
_NUM_THREADS = 8
_SERVER_SHARDS = 4


# -- fixed-seed stream generators -------------------------------------------

def _private_addr(rng: random.Random, tid: int) -> int:
    return 0x1000 + tid * 64 + rng.randrange(32)


def _stream_private_mixed(rng: random.Random, n: int) -> List[Event]:
    events: List[Event] = []
    ts = 0
    while len(events) < n:
        tid = rng.randrange(_NUM_THREADS)
        r = rng.random()
        if r < 0.80:
            for _ in range(6):
                events.append(MemoryEvent(tid, _private_addr(rng, tid),
                                          rng.randrange(4000),
                                          rng.random() < 0.3))
        elif r < 0.95:
            lock = rng.randrange(4)
            ts += 1
            events.append(SyncEvent(tid, SyncKind.LOCK, ("mutex", lock),
                                    ts, 1))
            for _ in range(4):
                events.append(MemoryEvent(tid, 0x2000 + lock * 8
                                          + rng.randrange(4),
                                          rng.randrange(4000),
                                          rng.random() < 0.5))
            ts += 1
            events.append(SyncEvent(tid, SyncKind.UNLOCK, ("mutex", lock),
                                    ts, 2))
        else:
            events.append(MemoryEvent(tid, 0x3000 + rng.randrange(4),
                                      5000 + rng.randrange(3),
                                      rng.random() < 0.2))
    return events[:n]


def _burst_stream(rng: random.Random, n: int, write_prob: float) -> List[Event]:
    events: List[Event] = []
    ts = 0
    while len(events) < n:
        tid = rng.randrange(_NUM_THREADS)
        if rng.random() < 0.97:
            for _ in range(8):
                events.append(MemoryEvent(tid, _private_addr(rng, tid),
                                          rng.randrange(4000),
                                          rng.random() < write_prob))
        else:
            lock = rng.randrange(4)
            ts += 1
            kind = SyncKind.LOCK if rng.random() < 0.5 else SyncKind.UNLOCK
            events.append(SyncEvent(tid, kind, ("mutex", lock), ts, 1))
    return events[:n]


def _stream_read_burst(rng: random.Random, n: int) -> List[Event]:
    return _burst_stream(rng, n, write_prob=0.02)


def _stream_write_burst(rng: random.Random, n: int) -> List[Event]:
    return _burst_stream(rng, n, write_prob=0.98)


def _stream_sync_heavy(rng: random.Random, n: int) -> List[Event]:
    events: List[Event] = []
    ts = 0
    while len(events) < n:
        tid = rng.randrange(_NUM_THREADS)
        lock = rng.randrange(8)
        ts += 1
        events.append(SyncEvent(tid, SyncKind.LOCK, ("mutex", lock), ts, 1))
        for _ in range(3):
            events.append(MemoryEvent(tid, 0x4000 + lock * 16
                                      + rng.randrange(8),
                                      rng.randrange(4000),
                                      rng.random() < 0.4))
        ts += 1
        events.append(SyncEvent(tid, SyncKind.UNLOCK, ("mutex", lock), ts, 2))
    return events[:n]


#: name -> (per-stream seed, generator).  Seeds are fixed so the committed
#: numbers are reproducible event-for-event.
STREAMS: Dict[str, tuple] = {
    "private_mixed": (_BASE_SEED + 1, _stream_private_mixed),
    "read_burst": (_BASE_SEED + 2, _stream_read_burst),
    "write_burst": (_BASE_SEED + 3, _stream_write_burst),
    "sync_heavy": (_BASE_SEED + 4, _stream_sync_heavy),
}


def build_stream(name: str, events: int = DEFAULT_EVENTS) -> List[Event]:
    """Generate one named bench stream from its fixed seed."""
    seed, generator = STREAMS[name]
    return generator(random.Random(seed), events)


def _encode_frames(events: List[Event],
                   segment_events: int) -> List[bytes]:
    return [encode_segment(events[i:i + segment_events])
            for i in range(0, len(events), segment_events)]


# -- timing helpers ---------------------------------------------------------

def _best_of(sides: List[Callable[[], object]], repeats: int) -> List[float]:
    """Best wall-clock per side, interleaving A/B runs to spread noise."""
    best = [math.inf] * len(sides)
    for _ in range(repeats):
        for i, side in enumerate(sides):
            start = time.perf_counter()
            side()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _report_key(report):
    return (dict(report.occurrences), dict(report.examples),
            set(report.addresses))


# -- the bench itself -------------------------------------------------------

def _bench_stream(name: str, events: List[Event], frames: List[bytes],
                  repeats: int) -> Dict[str, object]:
    def reference() -> FastTrackDetector:
        detector = FastTrackDetector()
        feed = detector.feed
        for frame in frames:
            decoded, _ = decode_segment(frame)
            for event in decoded:
                feed(event)
        return detector

    def flat() -> FlatDetector:
        detector = FlatDetector("fasttrack")
        push = SegmentBatcher(detector.feed_batch).push
        for frame in frames:
            push(frame)
        return detector

    # Equivalence gate: never publish a speedup for a detector that
    # disagrees with the reference.
    ref_detector = reference()
    flat_detector = flat()
    if _report_key(ref_detector.report) != _report_key(flat_detector.report):
        raise AssertionError(f"flat/reference reports diverge on {name!r}")

    ref_best, flat_best = _best_of([reference, flat], repeats)
    n = len(events)
    ref_rate = n / ref_best
    flat_rate = n / flat_best
    memory = sum(1 for e in events if isinstance(e, MemoryEvent))
    return {
        "events": n,
        "memory_events": memory,
        "sync_events": n - memory,
        "segments": len(frames),
        "static_races": ref_detector.report.num_static,
        "reference_events_per_sec": round(ref_rate),
        "flat_events_per_sec": round(flat_rate),
        "speedup": round(flat_rate / ref_rate, 3),
    }


def _bench_server(frames: List[bytes], total_events: int,
                  repeats: int) -> Dict[str, object]:
    """The shard-worker loop: frame-at-a-time feed for one shard of N."""
    def worker() -> ShardDetector:
        shard = ShardDetector(0, _SERVER_SHARDS)
        feed_frame = shard.feed_frame
        for frame in frames:
            feed_frame(frame)
        return shard

    (best,) = _best_of([worker], repeats)
    return {
        "num_shards": _SERVER_SHARDS,
        "segments": len(frames),
        "segments_per_sec": round(len(frames) / best, 1),
        "events_per_sec": round(total_events / best),
    }


def _bench_online(events: List[Event], repeats: int) -> Dict[str, object]:
    """Sweep the online detector's micro-batch size on one stream."""
    def run_at(size: int) -> Callable[[], OnlineRaceDetector]:
        def side() -> OnlineRaceDetector:
            detector = OnlineRaceDetector(flush_events=size)
            feed = detector.feed
            for event in events:
                feed(event)
            detector.flush()
            return detector
        return side

    bests = _best_of([run_at(size) for size in ONLINE_SWEEP_SIZES], repeats)
    n = len(events)
    rates = {str(size): round(n / best)
             for size, best in zip(ONLINE_SWEEP_SIZES, bests)}
    best_size = max(ONLINE_SWEEP_SIZES,
                    key=lambda size: rates[str(size)])
    return {
        "stream": "private_mixed",
        "events_per_sec": rates,
        "best_flush_events": best_size,
    }


def run_bench(events_per_stream: int = DEFAULT_EVENTS,
              repeats: int = DEFAULT_REPEATS,
              segment_events: int = DEFAULT_SEGMENT_EVENTS,
              progress: Callable[[str], None] = None) -> Dict[str, object]:
    """Run every bench stream and return one trajectory *entry*.

    Pass the entry to :func:`write_bench` to append it to a
    ``BENCH_detector.json`` trajectory.
    """
    streams: Dict[str, Dict[str, object]] = {}
    server_frames: List[bytes] = []
    server_events = 0
    online_events: List[Event] = []
    for name in STREAMS:
        events = build_stream(name, events_per_stream)
        frames = _encode_frames(events, segment_events)
        streams[name] = _bench_stream(name, events, frames, repeats)
        if progress is not None:
            row = streams[name]
            progress(f"{name:16s} ref {row['reference_events_per_sec']:>10,} "
                     f"ev/s  flat {row['flat_events_per_sec']:>10,} ev/s  "
                     f"{row['speedup']:.2f}x")
        server_frames.extend(frames)
        server_events += len(events)
        if name == "private_mixed":
            online_events = events

    speedups = [row["speedup"] for row in streams.values()]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    server = _bench_server(server_frames, server_events, repeats)
    online = _bench_online(online_events, repeats)
    if progress is not None:
        progress(f"{'geomean':16s} {geomean:.2f}x  "
                 f"(kernel: {FlatDetector.kernel})")
        progress(f"{'server worker':16s} {server['segments_per_sec']:,} "
                 f"segments/s ({server['events_per_sec']:,} ev/s, "
                 f"1 shard of {server['num_shards']})")
        rates = online["events_per_sec"]
        sweep = "  ".join(f"{size}:{rates[str(size)]:,}"
                          for size in ONLINE_SWEEP_SIZES)
        progress(f"{'online sweep':16s} {sweep}  "
                 f"(best flush_events: {online['best_flush_events']})")
    return {
        "generated": time.strftime("%Y-%m-%d"),
        "kernel": FlatDetector.kernel,
        "config": {
            "events_per_stream": events_per_stream,
            "segment_events": segment_events,
            "repeats": repeats,
            "threads": _NUM_THREADS,
        },
        "streams": streams,
        "geomean_speedup": round(geomean, 3),
        "server": server,
        "online": online,
    }


# -- schema -----------------------------------------------------------------

_STREAM_FIELDS = ("events", "memory_events", "sync_events", "segments",
                  "static_races", "reference_events_per_sec",
                  "flat_events_per_sec", "speedup")
_SERVER_FIELDS = ("num_shards", "segments", "segments_per_sec",
                  "events_per_sec")


def validate_entry(entry: object, where: str = "entry") -> List[str]:
    """Schema problems in one trajectory entry ([] when valid)."""
    problems: List[str] = []
    if not isinstance(entry, dict):
        return [f"{where} is not an object"]
    if not isinstance(entry.get("generated"), str):
        problems.append(f"{where}: missing generated date")
    # 'numpy' marks committed entries from when a numpy kernel existed.
    if entry.get("kernel") not in ("numpy", "pure"):
        problems.append(f"{where}: kernel must be 'numpy' or 'pure'")
    config = entry.get("config")
    if not isinstance(config, dict):
        problems.append(f"{where}: missing config object")
    streams = entry.get("streams")
    if not isinstance(streams, dict) or not streams:
        problems.append(f"{where}: missing streams object")
    else:
        for name in STREAMS:
            if name not in streams:
                problems.append(f"{where}: missing stream {name!r}")
        for name, row in streams.items():
            for field in _STREAM_FIELDS:
                value = row.get(field) if isinstance(row, dict) else None
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: stream {name!r}: bad field {field!r}")
    if not isinstance(entry.get("geomean_speedup"), (int, float)):
        problems.append(f"{where}: missing geomean_speedup")
    server = entry.get("server")
    if not isinstance(server, dict):
        problems.append(f"{where}: missing server object")
    else:
        for field in _SERVER_FIELDS:
            if not isinstance(server.get(field), (int, float)):
                problems.append(f"{where}: server: bad field {field!r}")
    online = entry.get("online")
    if online is not None:  # absent in entries migrated from schema 1
        if not (isinstance(online, dict)
                and isinstance(online.get("events_per_sec"), dict)
                and isinstance(online.get("best_flush_events"), int)):
            problems.append(f"{where}: bad online object")
    return problems


def validate_bench(doc: object) -> List[str]:
    """Schema problems in a ``BENCH_detector.json`` doc ([] when valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema must be {SCHEMA_VERSION}")
    if doc.get("bench") != "detector":
        problems.append("bench must be 'detector'")
    trajectory = doc.get("trajectory")
    if not isinstance(trajectory, list) or not trajectory:
        problems.append("missing trajectory list")
        return problems
    for i, entry in enumerate(trajectory):
        problems.extend(validate_entry(entry, where=f"trajectory[{i}]"))
    return problems


def _migrate_schema1(doc: Dict[str, object]) -> Dict[str, object]:
    """A schema-1 doc becomes the first trajectory entry (kernel 'pure':
    those numbers predate the vectorized kernel)."""
    entry = {key: doc[key] for key in
             ("generated", "config", "streams", "geomean_speedup", "server")
             if key in doc}
    entry["kernel"] = "pure"
    return entry


def write_bench(entry: Dict[str, object], path: str) -> None:
    """Append ``entry`` to the trajectory at ``path`` (created if absent).

    An existing schema-1 file is migrated: its numbers become the first
    trajectory entry, so history is preserved rather than overwritten.
    """
    problems = validate_entry(entry)
    if problems:
        raise ValueError("refusing to write invalid bench entry: "
                         + "; ".join(problems))
    trajectory: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        existing = None
    if isinstance(existing, dict):
        if existing.get("schema") == 1:
            trajectory.append(_migrate_schema1(existing))
        elif isinstance(existing.get("trajectory"), list):
            trajectory.extend(existing["trajectory"])
    trajectory.append(entry)
    doc = {
        "schema": SCHEMA_VERSION,
        "bench": "detector",
        "trajectory": trajectory,
    }
    problems = validate_bench(doc)
    if problems:
        raise ValueError("refusing to write invalid bench doc: "
                         + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
