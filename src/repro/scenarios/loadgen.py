"""Trace-driven load generation against a running telemetry server.

``repro loadgen <scenario>`` exercises the telemetry path at volume: it
compiles the scenario at a tiny *template* scale, records a handful of
full-logging runs, and then replays their encoded segment streams as
thousands of independent submissions from concurrent client threads —
the fleet shape (many small instrumented processes reporting to one
analysis service) without paying for thousands of fresh simulations.

Each trace request is one complete submission on its own connection
(hello, segments, END, close).  That is not an optimization shortcut but
a correctness requirement: a log's event stream contains fork edges and
monotone timestamps, so splicing two copies into one log would hand the
server a stream that no real execution could produce.  It is also what
the server parallelizes: each submission is analyzed by one worker, so
concurrent clients keep all workers busy.  Bursts from
:mod:`repro.scenarios.traffic` pick which template a session replays, so
a trace with mixed ops produces a mixed template population.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.literace import LiteRace
from ..detector.merge import merge_thread_logs
from ..eventlog.log import EventLog
from ..eventlog.segment import split_log
from ..service.client import TelemetryClient
from .compile import compile_scenario
from .spec import ScenarioSpec
from .traffic import generate_trace

__all__ = ["LoadGenerator", "LoadgenStats"]


@dataclass
class LoadgenStats:
    """Aggregate outcome of one load-generation run."""

    scenario: str = ""
    requests: int = 0
    completed: int = 0
    failed: int = 0
    segments: int = 0
    bytes_sent: int = 0
    events: int = 0
    #: Races the server attributed across all submissions.
    races: int = 0
    elapsed: float = 0.0
    concurrency: int = 0
    templates: int = 0
    template_events: Tuple[int, ...] = ()

    @property
    def rps(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        return (f"{self.scenario}: {self.completed}/{self.requests} "
                f"submissions ok ({self.failed} failed) via "
                f"{self.concurrency} clients in {self.elapsed:.2f}s "
                f"({self.rps:.0f} req/s); {self.segments} segments, "
                f"{self.events:,} events, {self.bytes_sent:,} bytes, "
                f"{self.races} races reported")


class LoadGenerator:
    """Replay a scenario's traffic trace into a telemetry server."""

    def __init__(self, spec: ScenarioSpec, address: str, *,
                 requests: Optional[int] = None, concurrency: int = 8,
                 seed: int = 0, template_scale: float = 0.02,
                 templates: int = 2, max_template_events: int = 400,
                 segment_events: int = 256, compress: bool = False,
                 timeout: float = 60.0):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if templates < 1:
            raise ValueError("templates must be >= 1")
        self.spec = spec
        self.address = address
        self.requests = requests
        self.concurrency = concurrency
        self.seed = seed
        self.template_scale = template_scale
        self.templates = templates
        self.max_template_events = max_template_events
        self.segment_events = segment_events
        self.compress = compress
        self.timeout = timeout
        #: (frames, event_count) per template, filled by :meth:`prepare`.
        self._templates: List[Tuple[List[bytes], int]] = []

    # -- template recording ------------------------------------------------
    def prepare(self) -> "LoadGenerator":
        """Record the replay templates (idempotent; called by :meth:`run`).

        A template is the merged, segment-encoded event stream of one
        full-logging run at ``template_scale``; trimming keeps a prefix,
        which is still a valid happens-before processing order (the
        server's detectors consume segments in order).
        """
        if self._templates:
            return self
        for index in range(self.templates):
            program = compile_scenario(self.spec, seed=self.seed + index,
                                       scale=self.template_scale)
            result = LiteRace(sampler="Full",
                              seed=self.seed + index).run(program)
            merged = merge_thread_logs(result.log)
            events = merged.events
            if self.max_template_events:
                events = events[:self.max_template_events]
            ordered = EventLog()
            ordered.events = list(events)
            frames = split_log(ordered, segment_events=self.segment_events,
                               compress=self.compress)
            self._templates.append((frames, len(events)))
        return self

    # -- replay ------------------------------------------------------------
    def run(self) -> LoadgenStats:
        """Drive the full trace; returns aggregate stats.

        Worker threads pull requests from a shared cursor, so a slow
        submission never stalls the rest of the fleet, and per-request
        failures are counted rather than fatal (a load generator that
        dies on the first connection reset measures nothing).
        """
        self.prepare()
        trace = generate_trace(self.spec, requests=self.requests,
                               seed=self.seed)
        stats = LoadgenStats(
            scenario=self.spec.name,
            requests=len(trace),
            concurrency=min(self.concurrency, len(trace)),
            templates=len(self._templates),
            template_events=tuple(count for _, count in self._templates),
        )
        lock = threading.Lock()
        cursor = iter(trace)

        def worker() -> None:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                frames, events = self._templates[
                    item.burst % len(self._templates)]
                try:
                    client = TelemetryClient(self.address,
                                             timeout=self.timeout)
                    with client:
                        client.hello(f"{self.spec.name}/{item.op}"
                                     f"#{item.index}")
                        sent = 0
                        for frame in frames:
                            client.send_segment(frame)
                            sent += len(frame)
                        body = client.end_log(len(frames))
                    with lock:
                        stats.completed += 1
                        stats.segments += len(frames)
                        stats.bytes_sent += sent
                        stats.events += events
                        stats.races += int(body.get("races", 0))
                except Exception:
                    with lock:
                        stats.failed += 1

        started = time.monotonic()
        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(stats.concurrency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats.elapsed = time.monotonic() - started
        return stats
