"""The race-telemetry service: fleet-scale streaming detection (§4.4, §6).

The paper's deployment story is fleet-shaped: instrument beta binaries on
many user machines, stream per-thread logs off each machine, and triage the
races centrally.  This package is that serving layer for the reproduction:

* :class:`TelemetryServer` — a daemon (``repro serve``) accepting framed
  log segments from many concurrent clients over Unix or TCP sockets, with
  backpressure (at most ``queue_depth`` segments in flight per worker
  before a client's next segment waits), a pool of detector worker
  *processes*, each client analyzed whole by one of them, crash-tolerant
  journal replay, and a deduplicating aggregator with a ``status``/report
  endpoint.
* :class:`TelemetryClient` — the wire client (``repro submit``), plus
  :class:`TelemetrySink`, a harness event sink that streams a live run into
  the server as it executes.

One worker sees a client's whole event stream in order, so its report is
the offline detector's on the same stream: every sync event keeps the
happens-before relation complete (the paper's no-false-positives
guarantee, §4.2).
"""

from .client import SubmitResult, TelemetryClient, TelemetrySink
from .protocol import ProtocolError, parse_address
from .server import TelemetryServer
from .shard import ShardDetector

__all__ = [
    "TelemetryServer",
    "TelemetryClient",
    "TelemetrySink",
    "SubmitResult",
    "ShardDetector",
    "ProtocolError",
    "parse_address",
]
