"""The ``fleet`` workload: a fresh ``repro serve`` fed scenario templates.

Set-up records one untrimmed Full-logging template per catalog scenario
(``LoadGenerator.prepare`` with no event cap, so every planted race fires)
and starts a daemon with its default two workers on a Unix socket of its
own.  The load then runs from this process with two threads, one
connection each at a time:

1. An open loop at a fixed submission rate, well below capacity.  STATUS
   and REPORT queries are interleaved in the same schedule, so the write
   path (submissions) and the read path (queries, which re-merge every
   completed client under the server lock) are measured together.  Each
   request is timed from its due time.  Short host speed readings take
   slots of their own in the schedule.
2. A short closed loop with both connections, submitting the template set
   pass after pass, to measure capacity.

The daemon is stopped with SHUTDOWN; it must exit 0 and leave no worker
behind.
"""

from __future__ import annotations

import contextlib
import os
import queue
import random
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from common import (OUT_DIR, ROOT, Outcome, host_speed, load_spec, median,
                    percentile, planted_keys, process_tree, tail_percentile,
                    tree_rss_mb)
from spans import self_time

TEMPLATE_SCALE = 0.02
#: Events per wire segment: ``repro loadgen``'s default.
SEGMENT_EVENTS = 256
#: Submissions per second in the open loop, well below the ~100/s
#: capacity: near saturation, queueing turns small changes in host speed
#: into large changes in latency.
SUBMIT_RATE = 50.0
#: One query (alternately STATUS and REPORT) after this many submissions.
SUBMITS_PER_QUERY = 4
#: A short host speed reading (an eighth of the full routine, about 2.5 ms)
#: takes a slot of its own in the open-loop schedule this often, so it
#: runs between requests.  Open-loop latencies are scaled by the median of
#: the readings within ``SPEED_WINDOW_S`` of their due time: other tenants
#: slow the host for stretches of seconds, and the daemon with it.
READING_EVERY = 8
READING_SIZE = 0.125
SPEED_WINDOW_S = 1.0
#: Share of the measured time given to the closed-loop capacity phase.
SATURATION_SHARE = 0.2
SETUP_REPEATS = 5
#: A run whose generator started requests later than this (p99, beyond
#: any wait for a free connection) measured the generator, not the daemon.
LATE_BOUND_MS = 50.0
#: Load threads, one connection each: ``nproc`` on the reference box.
CONNECTIONS = 2
#: ``repro serve``'s default worker count, one address shard per worker.
DAEMON_WORKERS = 2


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule."""


class Daemon:
    """One ``repro serve`` process on a private Unix socket."""

    def __init__(self, tag: str):
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{tag}.sock")
        # Unix socket paths are short; a relative path keeps deep
        # checkouts working (the daemon shares this process's cwd).
        self.address = "unix:" + os.path.relpath(path)
        self.process: Optional[subprocess.Popen] = None
        self.workers: List[int] = []

    def start(self) -> "Daemon":
        from repro.service import TelemetryClient
        from repro.service.protocol import ProtocolError

        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix",
             self.address[len("unix:"):]],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with TelemetryClient(self.address, timeout=5.0) as client:
                    client.status()
                break
            except (OSError, ProtocolError):
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.02)
        self.workers = process_tree(self.process.pid)[1:]
        return self

    def stop(self, outcome: Outcome) -> None:
        """SHUTDOWN, then require exit 0 and no surviving worker."""
        from repro.service import TelemetryClient

        try:
            with TelemetryClient(self.address, timeout=10.0) as client:
                client.shutdown_server()
            code = self.process.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired) as exc:
            outcome.check(False, f"daemon did not shut down: {exc}")
            self.kill()
            return
        outcome.check(code == 0, f"daemon exited with {code}")
        leftover = [pid for pid in self.workers
                    if os.path.exists(f"/proc/{pid}")]
        outcome.check(not leftover, f"worker processes left: {leftover}")

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            for pid in reversed(process_tree(self.process.pid)):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.process.wait(timeout=10.0)


def _prepare_templates(seed: int) -> List[Dict[str, object]]:
    from repro import scenarios
    from repro.scenarios.loadgen import LoadGenerator

    templates = []
    for name in scenarios.scenario_names():
        spec = scenarios.scenario(name)
        generator = LoadGenerator(
            spec, "unix:unused", seed=seed, templates=1,
            template_scale=TEMPLATE_SCALE, max_template_events=0,
            segment_events=SEGMENT_EVENTS).prepare()
        frames, events = generator._templates[0]
        program = scenarios.compile_scenario(spec, seed=seed,
                                             scale=TEMPLATE_SCALE)
        templates.append({"name": name, "frames": frames, "events": events,
                          "keys": planted_keys(program)})
    return templates


def _schedule(seed: int, seconds: float, count: int) -> List[tuple]:
    """(due offset, kind, template index) for the open loop.  Every round
    of ``count`` submissions sends each template once, in a seeded order,
    so the template mix is the same in every run."""
    rng = random.Random(seed)
    submits = max(1, int(SUBMIT_RATE * seconds))
    interval = seconds / (submits + submits // SUBMITS_PER_QUERY
                          + submits // READING_EVERY)
    items, queries, order = [], 0, []
    for index in range(submits):
        if not order:
            order = rng.sample(range(count), count)
        items.append((len(items) * interval, "submit", order.pop()))
        if (index + 1) % SUBMITS_PER_QUERY == 0:
            kind = "status" if queries % 2 == 0 else "report"
            items.append((len(items) * interval, kind, -1))
            queries += 1
        if (index + 1) % READING_EVERY == 0:
            items.append((len(items) * interval, "reading", -1))
    return items


class _Load:
    """Counters shared by the load threads, guarded by one lock."""

    def __init__(self, templates, address: str, tracer):
        self.templates = templates
        self.address = address
        self.tracer = tracer
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.segments = 0
        #: (due offset in seconds, latency in ms) per open-loop request
        self.submit_ms: List[Tuple[float, float]] = []
        self.query_ms: List[Tuple[float, float]] = []
        #: (due offset in seconds, host speed) per open-loop reading taken
        #: while no request was in flight
        self.readings: List[Tuple[float, float]] = []
        self.in_flight = 0
        self.requests_started = 0
        self.late_ms: List[float] = []
        self.queue_depths: List[int] = []
        self.shard_lags: List[int] = []
        #: (seconds, traced?, span mark before, after, thread) per submit
        self.traced: List[tuple] = []
        self.errors: List[str] = []
        #: Host speed readings, taken only while the load threads are idle.
        self.speeds: List[float] = []

    def _failed(self, exc: Exception) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @contextlib.contextmanager
    def _request(self):
        with self.lock:
            self.in_flight += 1
            self.requests_started += 1
        try:
            yield
        finally:
            with self.lock:
                self.in_flight -= 1

    def reading(self, offset: float) -> None:
        """A short host speed reading, kept only if no request overlapped
        it: a busy daemon would slow the reading, not the host."""
        with self.lock:
            before = (self.in_flight, self.requests_started)
        speed = host_speed(READING_SIZE)
        with self.lock:
            if before == (0, self.requests_started) and self.in_flight == 0:
                self.readings.append((offset, speed))

    def submit(self, index: int, label: str) -> bool:
        from repro.service import TelemetryClient

        template = self.templates[index]
        frames = template["frames"]
        try:
            with self._request(), TelemetryClient(self.address) as client:
                client.hello(f"{template['name']}#{label}")
                for frame in frames:
                    client.send_segment(frame)
                client.end_log(len(frames))
        except Exception as exc:  # counted, and the load goes on
            self._failed(exc)
            return False
        with self.lock:
            self.attempted += 1
            self.segments += len(frames)
        return True

    def query(self, kind: str) -> None:
        from repro.service import TelemetryClient

        try:
            with self._request(), TelemetryClient(self.address) as client:
                body = client.status() if kind == "status" else \
                    client.report()
        except Exception as exc:  # counted, and the load goes on
            self._failed(exc)
            return
        with self.lock:
            self.attempted += 1
            if kind == "status":
                self.queue_depths.append(int(body["queue_depth"]))
                self.shard_lags.append(
                    max(body["shard_lag"].values(), default=0))


def _open_loop(load: _Load, items, pid: int, rss: List[float]) -> None:
    cursor = iter(range(len(items)))
    cursor_lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        free_at = time.perf_counter()
        while True:
            with cursor_lock:
                position = next(cursor, None)
            if position is None:
                return
            offset, kind, index = items[position]
            due = origin + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            start = time.perf_counter()
            late = (start - max(due, free_at)) * 1e3
            if kind == "submit":
                trace = load.tracer is not None and position % 2 == 0
                mark = load.tracer.mark() if trace else 0
                if trace:
                    load.tracer.set_active(True)
                try:
                    ok = load.submit(index, str(position))
                finally:
                    if trace:
                        load.tracer.set_active(False)
                free_at = time.perf_counter()
                latency = (free_at - due) * 1e3
                with load.lock:
                    load.late_ms.append(late)
                    if ok:
                        load.submit_ms.append((offset, latency))
                    if load.tracer is not None:
                        load.traced.append(
                            (free_at - start, trace, mark,
                             load.tracer.mark(), threading.get_ident()))
            elif kind == "reading":
                load.reading(offset)
                free_at = time.perf_counter()
            else:
                load.query(kind)
                free_at = time.perf_counter()
                with load.lock:
                    load.late_ms.append(late)
                    load.query_ms.append((offset, (free_at - due) * 1e3))

    threads = [threading.Thread(target=worker, name=f"load-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            rss.append(tree_rss_mb(pid))
            thread.join(0.25)


def _closed_loop(load: _Load, seconds: float, pid: int,
                 rss: List[float]) -> List[Tuple[float, float]]:
    """Pass after pass over the template set; each pass's duration and the
    host speed read just before it, while the daemon is idle."""
    passes: List[Tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
        while time.perf_counter() < deadline or len(passes) < 3:
            speed = host_speed()
            started = time.perf_counter()
            futures = [pool.submit(load.submit, index, f"cap{len(passes)}")
                       for index in range(len(load.templates))]
            for future in futures:
                future.result()
            passes.append((time.perf_counter() - started, speed))
            load.speeds.append(speed)
            rss.append(tree_rss_mb(pid))
    return passes


def _scaled(samples: List[Tuple[float, float]],
            readings: List[Tuple[float, float]],
            fallback: float) -> List[float]:
    """Each sample divided by the median reading near its due time (the
    median of all readings, or ``fallback``, where there is none)."""
    overall = median([s for _, s in readings]) if readings else fallback
    scaled = []
    for offset, value in samples:
        near = [speed for at, speed in readings
                if abs(at - offset) <= SPEED_WINDOW_S]
        scaled.append(value / (median(near) if near else overall))
    return scaled


def _latency_metrics(submits: List[float], queries: List[float]
                     ) -> Dict[str, float]:
    return {
        "submit_p50_ms": median(submits),
        "submit_p90_ms": percentile(
            submits, tail_percentile(len(submits), 90)),
        "query_p50_ms": median(queries),
        "query_p90_ms": percentile(
            queries, tail_percentile(len(queries), 90)),
    }


def run_fleet(seed: int, seconds: float, tracer, tiny: bool) -> Outcome:
    from repro.service import TelemetryClient

    outcome = Outcome()
    setup_times, raw_setup_times, prepare_times = [], [], []
    daemons, load_speeds = [], []
    try:
        for attempt in range(SETUP_REPEATS):
            # Read before the set-up only: right after it, the daemon's
            # workers are still importing and would slow the reading.
            speed = host_speed()
            load_speeds.append(speed)
            started = time.perf_counter()
            templates = _prepare_templates(seed)
            prepared = time.perf_counter()
            daemons.append(Daemon(str(attempt)).start())
            raw_setup_times.append(time.perf_counter() - started)
            setup_times.append(raw_setup_times[-1] / speed)
            prepare_times.append(prepared - started)
            if attempt < SETUP_REPEATS - 1:
                daemons[-1].stop(outcome)
        daemon = daemons[-1]

        pid = daemon.process.pid
        rss: List[float] = [tree_rss_mb(pid)]
        load = _Load(templates, daemon.address, tracer)
        load.speeds.extend(load_speeds)
        with TelemetryClient(daemon.address) as client:
            before = client.status()
        saturation_s = max(1.0, seconds * SATURATION_SHARE)
        open_s = max(1.0, seconds - saturation_s)
        _open_loop(load, _schedule(seed, open_s, len(templates)), pid, rss)
        closed = _closed_loop(load, saturation_s, pid, rss)
        with TelemetryClient(daemon.address) as client:
            after = client.status()
            report = client.report()
        rss.append(tree_rss_mb(pid))
    except BaseException:
        for started_daemon in daemons:
            started_daemon.kill()
        raise
    daemon.stop(outcome)

    outcome.attempted, outcome.failed = load.attempted, load.failed
    outcome.check(not load.errors, f"first failed operation: "
                                   f"{load.errors[0] if load.errors else ''}")
    want = set().union(*(t["keys"] for t in templates))
    found = {tuple(row["pcs"]) for row in report["report"]["races"]}
    outcome.check(found == want, f"fleet report: extra {sorted(found - want)},"
                                 f" missing {sorted(want - found)}")
    ingested = after["segments_ingested"] - before["segments_ingested"]
    outcome.check(ingested == load.segments,
                  f"daemon ingested {ingested} segments, {load.segments} sent")
    outcome.check(after["clients_pending"] == 0,
                  f"{after['clients_pending']} clients still pending")
    late_pct = tail_percentile(len(load.late_ms), 99)
    late_p99 = percentile(load.late_ms, late_pct)
    if late_p99 > LATE_BOUND_MS and not tiny:
        raise InvalidRun(f"generator ran {late_p99:.1f} ms late at "
                         f"p{late_pct:g}; bound {LATE_BOUND_MS} ms")

    template_events = sum(t["events"] for t in templates)
    outcome.host_speed = median(load.speeds)
    metrics = outcome.metrics
    # Closed-loop passes at reference host speed.
    passes = [elapsed / speed for elapsed, speed in closed]
    if tracer is None:
        raw_passes = [elapsed for elapsed, _ in closed]
        outcome.env["raw"] = {
            "setup_s": median(raw_setup_times),
            "pass_s": median(raw_passes),
            "events_per_s": template_events / median(raw_passes),
            "capacity_sub_per_s": (len(passes) * len(templates)
                                   / sum(raw_passes)),
            **_latency_metrics([ms for _, ms in load.submit_ms],
                               [ms for _, ms in load.query_ms]),
        }
        metrics["setup_s"] = median(setup_times)
        metrics["peak_rss_mb"] = max(rss)
        metrics["pass_s"] = median(passes)
        metrics["events_per_s"] = template_events / median(passes)
        metrics.update(_latency_metrics(
            _scaled(load.submit_ms, load.readings, outcome.host_speed),
            _scaled(load.query_ms, load.readings, outcome.host_speed)))
        outcome.env["open_loop_readings"] = len(load.readings)
        metrics["capacity_sub_per_s"] = (len(passes) * len(templates)
                                         / sum(passes))
        return outcome

    def ms(values, pct):
        return percentile(values, pct) * 1e3 if values else 0.0

    acks = tracer.durations("send_segment")
    ends = tracer.durations("end_log")
    traced_units = [row for row in load.traced if row[1]]
    plain_units = [row for row in load.traced if not row[1]]
    layer_sums = [sum(tracer.summary(m0, m1, thread)[1].values())
                  for _, _, m0, m1, thread in traced_units]
    metrics.update({
        "service.hello_ms": ms(tracer.durations("hello"), 50),
        "service.segment_ack_p50_ms": ms(acks, 50),
        "service.segment_ack_p99_ms": ms(acks, tail_percentile(len(acks), 99)),
        "service.end_p50_ms": ms(ends, 50),
        "service.end_p99_ms": ms(ends, tail_percentile(len(ends), 99)),
        "service.queue_depth_max": float(max(load.queue_depths, default=0)),
        "service.shard_lag_max": float(max(load.shard_lags, default=0)),
        "scenarios.prepare_s": median(prepare_times),
        "scenarios.template_events": float(template_events),
        "loadgen.late_p99_ms": late_p99,
        "trace.untraced_pass_s": median([row[0] for row in plain_units]),
        "trace.overhead_s": (median([row[0] for row in traced_units])
                             - median([row[0] for row in plain_units])),
        "trace.layer_sum_s": median(layer_sums),
    })
    for counter in ("segments_ingested", "events_analyzed", "worker_failures",
                    "protocol_errors", "clients_aborted"):
        metrics[f"service.{counter}"] = float(after[counter] - before[counter])
    metrics.update(_replay_workers(tracer, templates))
    for name in load_spec()[1]:
        if name.split(".")[0] in ("runtime", "core"):
            metrics.setdefault(name, 0.0)
    return outcome


def _replay_workers(tracer, templates, repeats: int = 3) -> Dict[str, float]:
    """Run the daemon's worker loop in this process over the templates.

    The daemon's workers are separate processes the wrappers cannot reach,
    so their decode and detect time is measured by feeding the same frames
    through :func:`repro.service.shard.worker_main`, one worker per shard,
    as the default two-worker daemon splits them.
    """
    from repro.detector.flat import FlatDetector
    from repro.eventlog.segment import SEGMENT_MAGIC
    from repro.service.shard import worker_main

    shards = DAEMON_WORKERS
    rows = []
    for _ in range(repeats):
        mark = tracer.mark()
        tracer.set_active(True)
        try:
            for worker_id in range(shards):
                inbox, outbox = queue.Queue(), queue.Queue()
                for client_id, template in enumerate(templates, 1):
                    for seq, frame in enumerate(template["frames"]):
                        inbox.put(("segment", client_id, seq, (worker_id,),
                                   frame))
                    inbox.put(("finalize", client_id, (worker_id,)))
                inbox.put(("stop",))
                worker_main(worker_id, inbox, outbox, shards)
        finally:
            tracer.set_active(False)
        by_name, _ = tracer.summary(mark)
        rows.append((self_time(by_name, "decode_log", "SegmentBatcher.push",
                               "SegmentBatcher.flush"),
                     self_time(by_name, "encoded_size"),
                     self_time(by_name, "merge_thread_logs"),
                     self_time(by_name, "feed_all", "feed_batch")))
    events = sum(t["events"] for t in templates) * shards
    detect_s = median([row[3] for row in rows])
    magic, version = struct.unpack_from("<4sH", templates[0]["frames"][0])
    if magic != SEGMENT_MAGIC:
        raise RuntimeError("template frames are not segment frames")
    return {
        "eventlog.decode_s": median([row[0] for row in rows]),
        "eventlog.encode_s": median([row[1] for row in rows]),
        "eventlog.log_bytes": float(sum(len(f) for t in templates
                                        for f in t["frames"])),
        # The wire format the daemon was fed, from a frame header.
        "eventlog.format_version": float(version),
        "detector.merge_s": median([row[2] for row in rows]),
        "detector.detect_s": detect_s,
        "detector.events_per_s": events / detect_s,
        "detector.kernel": float(FlatDetector("hb").kernel == "numpy"),
    }
