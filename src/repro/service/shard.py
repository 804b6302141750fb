"""The detector worker process.

A fleet of clients produces far more events than one interpreter can
analyze, so the server spreads the work over a pool of worker *processes*.
The unit of work is a client: at HELLO the server gives each client to one
worker, which decodes and detects the client's whole log, and the workers
run different clients in parallel.  A client moves to another worker only
when its owner dies, and the new owner rebuilds it from a journal replay.

:func:`worker_main` is the process entry point.  It keeps one incremental
:class:`ShardDetector` per client, created lazily at the client's first
segment, so a client moved after a crash rebuilds cleanly from the replay.
"""

from __future__ import annotations

from typing import Dict

from ..detector.flat import FlatDetector
from ..detector.races import RaceReport
from ..eventlog.segment import SegmentBatcher
from .protocol import report_to_wire

__all__ = ["ShardDetector", "worker_main"]


class ShardDetector:
    """An incremental happens-before detector over one client's log.

    Feed it the client's segment frames in processing order.
    """

    def __init__(self):
        self._detector = FlatDetector("hb")
        self._reader = SegmentBatcher(self._detector.feed_batch)
        self.segments = 0

    def feed_frame(self, data: bytes, offset: int = 0) -> int:
        """Decode one *encoded* segment frame and detect it (the worker
        hot path).

        When this returns the frame has been analyzed.  A poisoned payload
        raises here, before the detector sees any of the frame, so the
        detector keeps running on the frames that decode cleanly.  Returns
        the frame's event count.
        """
        count, _ = self._reader.push(data, offset)
        self.segments += 1
        return count

    @property
    def report(self) -> RaceReport:
        return self._detector.report


def worker_main(worker_id: int, in_queue, out_queue,
                num_shards: int = 1) -> None:
    """Detector worker loop (runs in a child process).

    Messages in (tuples, first element is the verb)::

        ("segment", client_id, seq, payload)
        ("finalize", client_id)
        ("discard", client_id)
        ("stop",)

    End of input on a pipe (the server closed its write end) stops the
    loop as ``("stop",)`` does.

    Messages out::

        ("ack", worker_id, client_id, seq, event_count)
        ("report", worker_id, client_id, wire_report, segments)
        ("error", worker_id, client_id, seq, message)

    Each segment is decoded and detected before it is answered, so an ack
    means the frame was analyzed, and a malformed segment gets an error
    for its own ``seq``.  It is skipped rather than allowed to kill the
    process — a crash here would trigger a replay of the same poisoned
    segment on another worker, looping forever.

    ``num_shards`` is unused, and a ``segment`` or ``finalize`` message
    may carry a tuple of shard ids before its payload or at its end.  Both
    are the shapes of the address-sharded worker this one replaced, which
    ``perfbench/fleet.py`` still replays: the loop reads the client id,
    seq and payload as ``message[1]``, ``message[2]`` and ``message[-1]``,
    so it analyzes the whole log whatever shard ids it is sent.
    """
    detectors: Dict[int, ShardDetector] = {}

    while True:
        try:
            message = in_queue.get()
        except (EOFError, OSError):
            break  # the server closed its end of the pipe
        verb = message[0]
        if verb == "stop":
            break
        if verb == "segment":
            client_id, seq, payload = message[1], message[2], message[-1]
            detector = detectors.get(client_id)
            if detector is None:
                detector = detectors[client_id] = ShardDetector()
            try:
                count = detector.feed_frame(payload)
            except Exception as exc:
                # Catch everything: the server only validates the outer
                # frame header, so a corrupt payload can surface as
                # struct.error, zlib.error, ValueError, KeyError...
                out_queue.put(("error", worker_id, client_id, seq,
                               f"bad segment: {exc}"))
                continue
            out_queue.put(("ack", worker_id, client_id, seq, count))
        elif verb == "finalize":
            client_id = message[1]
            detector = detectors.pop(client_id, None)
            if detector is None:
                # The client sent no segment (an empty log): its report
                # is empty, and it still completes.
                detector = ShardDetector()
            out_queue.put(("report", worker_id, client_id,
                           report_to_wire(detector.report),
                           detector.segments))
        elif verb == "discard":
            detectors.pop(message[1], None)
