"""Telemetry clients: submit saved logs or stream a live run.

Two producers exist, matching the two halves of the deployment story:

* :class:`TelemetryClient` — ``repro submit``: load a saved ``.ltrc`` log,
  reconstruct its processing order from the logical timestamps (the same
  :func:`~repro.detector.merge.merge_thread_logs` the offline detector
  uses — the worker analyzing the log consumes segments *in order*, so
  the order must be a valid happens-before processing order before it
  goes on the wire), chop it into segments, and stream them with
  per-segment ACKs.  The final END frame blocks until the server has
  finished analyzing the log, so a returned :class:`SubmitResult` means
  the submission is fully folded into the fleet report.

* :class:`TelemetrySink` — a harness event sink (`ProfilingHarness(sink=…)`)
  that streams segments *while the profiled run executes*.  Live events
  arrive in true temporal order, which is already a valid processing order,
  so no client-side merge is needed — the hot path is buffer-append plus
  an occasional framed send, mirroring the cheap-ingest/deferred-analysis
  split of sampling-based tracing.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..detector.merge import merge_thread_logs
from ..eventlog.events import Event
from ..eventlog.log import EventLog
from ..eventlog.segment import encode_segment, split_log
from .protocol import (
    ProtocolError,
    T_ACK,
    T_END,
    T_HELLO,
    T_OK,
    T_REPORT,
    T_SEGMENT,
    T_SHUTDOWN,
    T_STATUS,
    T_VERDICTS,
    connect_to,
    decode_json,
    recv_frame,
    send_frame,
    send_json,
)

__all__ = ["TelemetryClient", "TelemetrySink", "SubmitResult"]


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one fully-acknowledged log submission."""

    client_id: int
    segments: int
    bytes_sent: int
    events: int
    #: Timestamp inconsistencies the client-side order reconstruction hit
    #: (nonzero only for logs written with broken timestamping, §4.2).
    merge_inconsistencies: int
    #: Races the server attributed to this client's log.
    races: int


class TelemetryClient:
    """A connection to the telemetry server."""

    def __init__(self, address: str, timeout: float = 60.0):
        self.address = address
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self.client_id: Optional[int] = None

    # -- connection --------------------------------------------------------
    def connect(self) -> "TelemetryClient":
        if self._sock is None:
            self._sock = connect_to(self.address, timeout=self.timeout)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "TelemetryClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _request(self, frame_type: int, payload: bytes = b"") -> Any:
        self.connect()
        send_frame(self._sock, frame_type, payload)
        reply_type, reply = recv_frame(self._sock)
        body = decode_json(reply) if reply else {}
        if reply_type not in (T_OK, T_ACK):
            raise ProtocolError(body.get("error", "server rejected request"))
        return body

    def _request_json(self, frame_type: int, obj: Any) -> Any:
        import json

        return self._request(
            frame_type, json.dumps(obj, separators=(",", ":")).encode())

    # -- the protocol ------------------------------------------------------
    def hello(self, name: str = "") -> int:
        body = self._request_json(T_HELLO, {"name": name})
        self.client_id = int(body["client_id"])
        return self.client_id

    def send_segment(self, payload: bytes) -> int:
        """Ship one encoded segment; returns its server-side sequence number."""
        return int(self._request(T_SEGMENT, payload)["seq"])

    def end_log(self, segments: int) -> Dict[str, Any]:
        """Declare the log complete; blocks until analysis has finished."""
        return self._request_json(T_END, {"segments": segments})

    def submit_log(self, log: EventLog, *, name: str = "",
                   segment_events: int = 512,
                   compress: bool = False) -> SubmitResult:
        """Submit a whole log: merge, segment, stream, await analysis."""
        merged = merge_thread_logs(log)
        ordered = EventLog()
        ordered.events = merged.events
        frames = split_log(ordered, segment_events=segment_events,
                           compress=compress)
        if self.client_id is None:
            self.hello(name)
        bytes_sent = 0
        for frame in frames:
            self.send_segment(frame)
            bytes_sent += len(frame)
        body = self.end_log(len(frames))
        return SubmitResult(
            client_id=self.client_id,
            segments=len(frames),
            bytes_sent=bytes_sent,
            events=len(merged.events),
            merge_inconsistencies=merged.inconsistencies,
            races=int(body.get("races", 0)),
        )

    def submit_verdicts(self, rows: List[Dict[str, Any]]) -> int:
        """Attach validation verdicts to the fleet report.

        Each row is ``{"pcs": [pc, pc], "verdict": "confirmed" |
        "unconfirmed" | "infeasible"}`` — the wire shape of
        :meth:`repro.validate.ValidationReport.to_json` verdict entries.
        Returns how many rows the server accepted.
        """
        body = self._request_json(T_VERDICTS, {"verdicts": rows})
        return int(body.get("verdicts", 0))

    def status(self) -> Dict[str, Any]:
        return self._request(T_STATUS)

    def report(self) -> Dict[str, Any]:
        return self._request(T_REPORT)

    def shutdown_server(self) -> None:
        self._request(T_SHUTDOWN)


class TelemetrySink:
    """A harness event sink streaming a live run into the server.

    Plugs in wherever an :class:`~repro.detector.online.OnlineRaceDetector`
    would (``LiteRace(...).run(program, sink=sink)``); events are buffered
    and shipped as framed segments every ``segment_events`` events.  Call
    :meth:`close` (or use as a context manager) to flush the tail and wait
    for the server to finish analyzing.
    """

    def __init__(self, client: TelemetryClient, *, name: str = "live",
                 segment_events: int = 512, compress: bool = False):
        if segment_events < 1:
            raise ValueError("segment_events must be >= 1")
        self._client = client
        self._segment_events = segment_events
        self._compress = compress
        self._buffer: List[Event] = []
        self.segments_sent = 0
        self.events_sent = 0
        self.result: Optional[Dict[str, Any]] = None
        self._closed = False
        client.connect()
        if client.client_id is None:
            client.hello(name)

    def feed(self, event: Event) -> None:
        if self._closed:
            raise ValueError("sink is closed")
        self._buffer.append(event)
        if len(self._buffer) >= self._segment_events:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        frame = encode_segment(self._buffer, compress=self._compress)
        self._client.send_segment(frame)
        self.segments_sent += 1
        self.events_sent += len(self._buffer)
        self._buffer.clear()

    def close(self) -> Dict[str, Any]:
        """Flush the tail, END the log, return the server's analysis ack."""
        if self._closed:
            raise ValueError("sink already closed")
        self._flush()
        self.result = self._client.end_log(self.segments_sent)
        self._closed = True
        return self.result

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed and exc_type is None:
            self.close()
