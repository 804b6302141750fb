"""In-memory span tracing around calls into the program's layers.

The benchmark does not edit the program: :meth:`Tracer.wrap` swaps a
module or class attribute for a timing wrapper and :meth:`Tracer.restore`
puts every original back.  A wrapper records a span only on a thread where
tracing is switched on, so traced and untraced work can interleave in one
process and the difference between them is the tracing overhead.

Spans nest per thread: each span remembers the span that was open on its
thread when it started, and a span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: One span: [name, layer, start, end, parent index or -1, thread id].
Span = List


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- switching ---------------------------------------------------------
    def set_active(self, active: bool) -> None:
        """Trace (or stop tracing) calls made on the current thread."""
        self._local.active = active

    # -- installing wrappers ----------------------------------------------
    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        local, spans, lock = self._local, self.spans, self._lock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not getattr(local, "active", False):
                return original(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                index = len(spans)
                spans.append([name, layer, 0.0, 0.0,
                              stack[-1] if stack else -1,
                              threading.get_ident()])
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[2], span[3] = start, end

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans -----------------------------------------------------
    def mark(self) -> int:
        """An index to pass to :meth:`summary` to see only later spans."""
        return len(self.spans)

    def summary(self, since: int = 0, until: int = None, thread: int = None
                ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
        """Per span name ``{count, total, self}`` and per layer self time,
        optionally only for spans recorded on one thread."""
        spans = self.spans[since:until]
        child_time = defaultdict(float)
        for span in spans:
            if span[4] >= since:
                child_time[span[4]] += span[3] - span[2]
        by_name: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0})
        by_layer: Dict[str, float] = defaultdict(float)
        for offset, span in enumerate(spans):
            if thread is not None and span[5] != thread:
                continue
            duration = span[3] - span[2]
            own = duration - child_time.get(since + offset, 0.0)
            entry = by_name[span[0]]
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += own
            by_layer[span[1]] += own
        return by_name, by_layer

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "thread"],
                       "spans": self.spans}, handle)


def self_time(by_name: Dict[str, Dict[str, float]], *names: str) -> float:
    """Summed self time of the named spans in a :meth:`Tracer.summary`."""
    return sum(by_name[n]["self"] for n in names if n in by_name)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.core import literace
    from repro.detector import merge
    from repro.detector.flat import FlatDetector
    from repro.detector.hb import HappensBeforeDetector
    from repro.eventlog import encode, segment
    from repro.runtime.executor import Executor
    from repro.service.client import TelemetryClient

    tracer.wrap(literace.LiteRace, "run", "LiteRace.run", "core")
    tracer.wrap(literace.LiteRace, "profile", "LiteRace.profile", "core")
    tracer.wrap(literace, "run_baseline", "run_baseline", "runtime")
    # The executor interprets the program and calls the profiling harness
    # from inside, so harness callbacks count as runtime self time.
    tracer.wrap(Executor, "run", "Executor.run", "runtime")
    # ``literace`` binds these helpers by name at import; callers that
    # import inside a function read the defining module's attribute.
    tracer.wrap(literace, "merge_thread_logs", "merge_thread_logs",
                "detector")
    tracer.wrap(merge, "merge_thread_logs", "merge_thread_logs", "detector")
    tracer.wrap(literace, "encoded_size", "encoded_size", "eventlog")
    tracer.wrap(encode, "encoded_size", "encoded_size", "eventlog")
    tracer.wrap(encode, "decode_log", "decode_log", "eventlog")
    tracer.wrap(HappensBeforeDetector, "feed_all", "feed_all", "detector")
    tracer.wrap(FlatDetector, "feed_all", "feed_all", "detector")
    tracer.wrap(FlatDetector, "feed_batch", "feed_batch", "detector")
    tracer.wrap(segment.SegmentBatcher, "push", "SegmentBatcher.push",
                "eventlog")
    tracer.wrap(segment.SegmentBatcher, "flush", "SegmentBatcher.flush",
                "eventlog")
    tracer.wrap(TelemetryClient, "hello", "hello", "service")
    tracer.wrap(TelemetryClient, "send_segment", "send_segment", "service")
    tracer.wrap(TelemetryClient, "end_log", "end_log", "service")
