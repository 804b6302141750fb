"""The race-telemetry service: fleet-scale streaming detection (§4.4, §6).

The paper's deployment story is fleet-shaped: instrument beta binaries on
many user machines, stream per-thread logs off each machine, and triage the
races centrally.  This package is that serving layer for the reproduction:

* :class:`TelemetryServer` — a daemon (``repro serve``) accepting framed
  log segments from many concurrent clients over Unix or TCP sockets, with
  backpressure (at most ``queue_depth`` segments in flight per worker
  before a client's next segment waits), a pool of detector worker
  *processes* sharded
  by address range, crash-tolerant journal replay, and a deduplicating
  aggregator with a ``status``/report endpoint.
* :class:`TelemetryClient` — the wire client (``repro submit``), plus
  :class:`TelemetrySink`, a harness event sink that streams a live run into
  the server as it executes.

The sharding invariant that keeps detection exact: **every shard receives
every synchronization event** (so each shard's happens-before relation is
complete — the paper's no-false-positives guarantee, §4.2), while memory
events route only to the shard owning their address range.  Races relate
accesses to one address, so the union of per-shard reports equals the
single-detector report exactly: no false positives, no lost races.
"""

from .client import SubmitResult, TelemetryClient, TelemetrySink
from .protocol import ProtocolError, parse_address
from .server import TelemetryServer
from .shard import ShardDetector, shard_of

__all__ = [
    "TelemetryServer",
    "TelemetryClient",
    "TelemetrySink",
    "SubmitResult",
    "ShardDetector",
    "shard_of",
    "ProtocolError",
    "parse_address",
]
