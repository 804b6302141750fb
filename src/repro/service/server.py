"""The race-telemetry daemon: ``repro serve``.

One :class:`TelemetryServer` is the central analyzer of the paper's
deployment story (§4.4): beta machines run instrumented binaries, stream
their event logs here, and races are triaged centrally, deduplicated across
the whole fleet by PC pair.

Data flow::

    clients ──frames──▶ connection threads ──▶ bounded ingest queue
        ──▶ dispatcher ──▶ owning worker's mp queue ──▶ detector workers
        ──▶ result queue ──▶ collector ──▶ aggregator (dedup + persist)

* **Backpressure**: the ingest queue is bounded; a SEGMENT frame is only
  ACKed once its payload clears the queue, so a flooded server slows its
  clients instead of growing without bound.
* **Assignment**: ``num_shards`` logical shards partition each client's
  address space (:func:`repro.service.shard.shard_of`).  At HELLO every
  (client, shard) pair goes to the worker with the fewest pending pairs
  (lowest index on ties) and stays there; the client's segments and its
  finalize go only to the workers that own its shards.  Each owner feeds
  its shards the client's whole sync stream (complete happens-before per
  shard, §4.2) and only their own memory events.  The default is one
  shard, so a log is decoded and detected once, by one worker, and the
  workers run different clients in parallel; more shards split one
  client's addresses across workers, at the price of each shard
  decoding every frame and replaying every sync event.
* **Crash tolerance**: the dispatcher journals every segment before
  routing it.  A supervisor watches the workers; when one dies exactly
  its pending (client, shard) pairs move to the least-loaded survivors
  (or a fresh replacement) and those clients' journals are replayed for
  the moved pairs only.  A torn client connection discards only that
  client's pending state; the server never corrupts.
* **Aggregation**: per-(client, shard) reports are merged in deterministic
  (client id, shard id) order, deduplicated by PC pair, optionally
  filtered through a :class:`~repro.core.suppressions.SuppressionList`,
  and served over the STATUS/REPORT endpoints.  With a ``state_dir`` the
  merged report is persisted after every completed client and reloaded on
  restart.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.suppressions import SuppressionList
from ..detector.races import RaceReport
from ..eventlog.segment import segment_event_count
from ..tir.program import Program
from . import protocol
from .protocol import (
    ConnectionClosed,
    ProtocolError,
    T_ACK,
    T_END,
    T_ERR,
    T_HELLO,
    T_OK,
    T_REPORT,
    T_SEGMENT,
    T_SHUTDOWN,
    T_STATUS,
    T_VERDICTS,
    bind_listener,
    decode_json,
    recv_frame,
    report_from_wire,
    report_to_wire,
    send_json,
)
from .shard import worker_main
from ..validate.verdict import RaceVerdict, strongest_verdict

__all__ = ["TelemetryServer"]

if "fork" in multiprocessing.get_all_start_methods():
    _MP = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-POSIX fallback
    _MP = multiprocessing.get_context()

_SNAPSHOT_FILE = "report.json"


class _Worker:
    """One detector process, its private input queue, and what it owes."""

    __slots__ = ("worker_id", "process", "in_queue", "pending", "in_flight")

    def __init__(self, worker_id: int, process, in_queue):
        #: unique per process, so a dead worker's late acks are told apart
        #: from those of a replacement spawned at the same index
        self.worker_id = worker_id
        self.process = process
        self.in_queue = in_queue
        #: (client_id, shard_id) pairs owned here whose report has not
        #: arrived: the load that assignment balances
        self.pending: Set[Tuple[int, int]] = set()
        #: shard ids of each segment sent here and not yet acked, in send
        #: order; the worker answers every segment with one ack or error,
        #: in the same order
        self.in_flight: Deque[Tuple[int, ...]] = deque()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _ClientState:
    """Everything the server tracks about one submitting client."""

    __slots__ = ("client_id", "name", "journal", "enqueued", "ended",
                 "aborted", "owners", "shard_reports", "report", "completed")

    def __init__(self, client_id: int, name: str):
        self.client_id = client_id
        self.name = name
        #: raw segment payloads in seq order — the replay journal
        self.journal: List[bytes] = []
        self.enqueued = 0
        self.ended = False
        self.aborted = False
        #: worker index owning each shard of this client, by shard id
        self.owners: List[int] = []
        self.shard_reports: Dict[int, RaceReport] = {}
        self.report: Optional[RaceReport] = None
        self.completed = threading.Event()


class TelemetryServer:
    """Streaming race detection over fleet-submitted event logs, each
    (client, shard) pair analyzed by one worker process."""

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        workers: int = 2,
        shards: Optional[int] = None,
        queue_depth: int = 64,
        alloc_as_sync: bool = True,
        state_dir: Optional[str] = None,
        program: Optional[Program] = None,
        suppressions: Optional[SuppressionList] = None,
        finalize_timeout: float = 60.0,
    ):
        if not addresses:
            raise ValueError("at least one listen address is required")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.num_shards = shards if shards is not None else 1
        if self.num_shards < 1:
            raise ValueError("shards must be >= 1")
        self._address_specs = list(addresses)
        self._num_workers = workers
        self._queue_depth = queue_depth
        self._alloc_as_sync = alloc_as_sync
        self._state_dir = state_dir
        self._program = program
        self._suppressions = suppressions
        self._finalize_timeout = finalize_timeout

        self._mu = threading.RLock()
        self._clients: Dict[int, _ClientState] = {}
        self._next_client_id = 1
        self._ingest: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._workers: List[_Worker] = []
        #: live workers by worker id; acks from any other id are ignored
        self._worker_by_id: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._result_queue = _MP.Queue()
        self._threads: List[threading.Thread] = []
        self._listeners: List[socket.socket] = []
        self._connections: set = set()
        self._stopping = False
        self._started = False
        self._start_time = 0.0
        self.shutdown_requested = threading.Event()

        self._baseline_report = RaceReport()
        #: PC pairs of the fleet report: the snapshot baseline's plus every
        #: completed client's, so STATUS never re-merges the fleet
        self._fleet_pairs: Set[Tuple[int, int]] = set()
        #: clients between HELLO and completion or abort
        self._clients_pending = 0
        self._counters: Dict[str, int] = {
            "segments_ingested": 0,
            "bytes_ingested": 0,
            "events_analyzed": 0,
            "clients_total": 0,
            "clients_completed": 0,
            "clients_aborted": 0,
            "connections_torn": 0,
            "protocol_errors": 0,
            "segment_errors": 0,
            "worker_failures": 0,
            "snapshot_errors": 0,
            "verdicts_received": 0,
        }
        #: Validation verdicts keyed by (pc_low, pc_high); merged with
        #: CONFIRMED > INFEASIBLE > UNCONFIRMED precedence so a weaker
        #: verdict from one submitter never downgrades a proof from another.
        self._verdicts: Dict[tuple, str] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._start_time = time.monotonic()
        self._load_snapshot()
        # Workers are forked before any service thread exists so the
        # children never inherit a mid-operation lock.
        for index in range(self._num_workers):
            self._workers.append(self._spawn_worker(index))
        for spec in self._address_specs:
            listener = bind_listener(spec)
            self._listeners.append(listener)
            self._start_thread(self._accept_loop, listener,
                               name=f"accept-{spec}")
        self._start_thread(self._dispatch_loop, name="dispatcher")
        self._start_thread(self._collect_loop, name="collector")
        self._start_thread(self._supervise_loop, name="supervisor")

    @property
    def addresses(self) -> List[str]:
        """Bound addresses with ephemeral TCP ports resolved."""
        specs = []
        for listener in self._listeners:
            if listener.family == socket.AF_UNIX:
                specs.append(f"unix:{listener.getsockname()}")
            else:
                host, port = listener.getsockname()[:2]
                specs.append(f"tcp:{host}:{port}")
        return specs

    def serve_forever(self) -> None:
        """Block until a SHUTDOWN frame (or KeyboardInterrupt), then stop."""
        try:
            self.shutdown_requested.wait()
        except KeyboardInterrupt:
            pass
        self.stop()

    def stop(self) -> None:
        with self._mu:
            if self._stopping:
                return
            self._stopping = True
        self.shutdown_requested.set()
        for listener in self._listeners:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, for unix and tcp listeners alike.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._mu:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.in_queue.put(("stop",))
                except (ValueError, OSError):
                    pass
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
        for thread in self._threads:
            thread.join(timeout=2.0)
        # Unix socket files are not removed by close().
        for spec in self._address_specs:
            family, address = protocol.parse_address(spec)
            if family == "unix":
                try:
                    os.unlink(address)
                except OSError:
                    pass

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- workers -----------------------------------------------------------
    def _spawn_worker(self, index: int) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        in_queue = _MP.Queue()
        process = _MP.Process(
            target=worker_main,
            args=(worker_id, in_queue, self._result_queue, self.num_shards,
                  self._alloc_as_sync),
            daemon=True,
            name=f"repro-detector-{index}",
        )
        process.start()
        worker = _Worker(worker_id, process, in_queue)
        self._worker_by_id[worker_id] = worker
        return worker

    def _live_worker_indices(self) -> List[int]:
        return [i for i, w in enumerate(self._workers) if w.alive]

    def _assign(self, client_id: int, shard_id: int,
                candidates: List[int]) -> int:
        """Give one (client, shard) pair to the candidate worker with the
        fewest pending pairs, lowest index on ties (held _mu)."""
        index = min(candidates, key=lambda i: len(self._workers[i].pending))
        self._workers[index].pending.add((client_id, shard_id))
        return index

    @staticmethod
    def _routes(state: _ClientState) -> Dict[int, Tuple[int, ...]]:
        """Worker index → the client's shards it owns, in shard order."""
        routes: Dict[int, Tuple[int, ...]] = {}
        for shard_id, index in enumerate(state.owners):
            routes[index] = routes.get(index, ()) + (shard_id,)
        return routes

    def _send_segment(self, index: int, client_id: int, seq: int,
                      shard_ids: Tuple[int, ...], payload: bytes) -> None:
        worker = self._workers[index]
        worker.in_queue.put(("segment", client_id, seq, shard_ids, payload))
        worker.in_flight.append(shard_ids)

    # -- service threads ---------------------------------------------------
    def _start_thread(self, target, *args, name: str) -> None:
        thread = threading.Thread(target=target, args=args,
                                  name=f"telemetry-{name}", daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stopping:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with self._mu:
                if self._stopping:
                    conn.close()
                    return
                self._connections.add(conn)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="telemetry-conn")
            thread.start()

    def _dispatch_loop(self) -> None:
        while True:
            try:
                item = self._ingest.get(timeout=0.1)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            with self._mu:
                verb = item[0]
                if verb == "segment":
                    _, client_id, seq, payload = item
                    self._route_segment(client_id, seq, payload)
                elif verb == "end":
                    self._route_end(item[1])
                elif verb == "discard":
                    self._route_discard(item[1])

    def _route_segment(self, client_id: int, seq: int,
                       payload: bytes) -> None:
        state = self._clients.get(client_id)
        if state is None or state.aborted:
            return
        assert seq == len(state.journal), "segments out of order"
        state.journal.append(payload)
        # An owner that died unnoticed still gets the segment: the
        # supervisor replays the journal to whoever takes its pairs over.
        for index, shard_ids in self._routes(state).items():
            self._send_segment(index, client_id, seq, shard_ids, payload)

    def _route_end(self, client_id: int) -> None:
        state = self._clients.get(client_id)
        if state is None or state.aborted:
            return
        state.ended = True
        for index, shard_ids in self._routes(state).items():
            self._workers[index].in_queue.put(
                ("finalize", client_id, shard_ids))

    def _route_discard(self, client_id: int) -> None:
        state = self._clients.get(client_id)
        if state is None:
            return
        state.journal.clear()
        for index in self._routes(state):
            self._workers[index].in_queue.put(("discard", client_id))

    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - teardown race
                return
            with self._mu:
                verb = message[0]
                if verb == "ack":
                    if self._segment_answered(message[1]):
                        self._counters["events_analyzed"] += message[5]
                elif verb == "report":
                    _, _, client_id, shard_id, wire, _ = message
                    self._on_shard_report(client_id, shard_id, wire)
                elif verb == "error":
                    self._counters["segment_errors"] += 1
                    self._segment_answered(message[1])

    def _segment_answered(self, worker_id: int) -> bool:
        """Retire the oldest segment in flight to ``worker_id``; False for
        a dead worker, whose backlog was written off when it died (held
        _mu)."""
        worker = self._worker_by_id.get(worker_id)
        if worker is None or not worker.in_flight:
            return False
        worker.in_flight.popleft()
        return True

    def _on_shard_report(self, client_id: int, shard_id: int,
                         wire: Dict[str, Any]) -> None:
        state = self._clients.get(client_id)
        if state is None or state.aborted or state.completed.is_set():
            return
        if shard_id in state.shard_reports:
            return  # duplicate from a pre-crash worker's last gasp
        state.shard_reports[shard_id] = report_from_wire(wire)
        # The pair is done whichever worker reported it: a dead owner's
        # report can land after its pair moved to a survivor.
        self._workers[state.owners[shard_id]].pending.discard(
            (client_id, shard_id))
        if state.ended and len(state.shard_reports) == self.num_shards:
            merged = RaceReport()
            for sid in sorted(state.shard_reports):
                merged.merge(state.shard_reports[sid])
            state.report = merged
            # The journal exists only so a crash can replay this client's
            # segments; nothing replays a completed client, so release the
            # payloads (and the now-merged shard reports) instead of
            # holding every submitted byte for the daemon's lifetime.
            state.journal.clear()
            state.shard_reports.clear()
            self._fleet_pairs.update(merged.occurrences)
            self._clients_pending -= 1
            self._counters["clients_completed"] += 1
            state.completed.set()
            try:
                self._write_snapshot()
            except Exception:
                # A failed snapshot (disk full, bad state_dir) must not
                # kill the collector thread — the in-memory report is
                # intact and the next completion retries the write.
                self._counters["snapshot_errors"] += 1

    def _supervise_loop(self) -> None:
        while not self._stopping:
            time.sleep(0.15)
            with self._mu:
                if self._stopping:
                    return
                for index, worker in enumerate(self._workers):
                    if worker.process is not None and not worker.alive:
                        self._on_worker_death(index)

    def _on_worker_death(self, index: int) -> None:
        """Move a dead worker's pending pairs to the least-loaded survivors
        and replay those clients' journals to them (held _mu)."""
        self._counters["worker_failures"] += 1
        dead = self._workers[index]
        dead.process.join(timeout=1.0)
        dead.process = None
        # Its un-acked segments will never be acked: write them off.
        del self._worker_by_id[dead.worker_id]
        dead.in_flight.clear()
        # Nothing reads its queue any more, and the journal replays what it
        # held; a feeder thread blocked on the full pipe must not hold up
        # this process's exit.
        dead.in_queue.cancel_join_thread()
        # Pending pairs are exactly those whose report has not arrived and
        # whose client is neither completed nor aborted.
        lost = sorted(dead.pending)
        dead.pending.clear()
        survivors = self._live_worker_indices()
        if not survivors:
            # Last worker standing died: spawn a replacement with a fresh
            # queue (the old queue's in-flight items are covered by replay).
            self._workers[index] = self._spawn_worker(index)
            survivors = [index]
        moved: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        for client_id, shard_id in lost:
            owner = self._assign(client_id, shard_id, survivors)
            self._clients[client_id].owners[shard_id] = owner
            by_owner = moved.setdefault(client_id, {})
            by_owner[owner] = by_owner.get(owner, ()) + (shard_id,)
        for client_id, by_owner in moved.items():
            state = self._clients[client_id]
            for owner, shard_ids in by_owner.items():
                for seq, payload in enumerate(state.journal):
                    self._send_segment(owner, client_id, seq, shard_ids,
                                       payload)
                if state.ended:
                    self._workers[owner].in_queue.put(
                        ("finalize", client_id, shard_ids))

    # -- connections -------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        client_id: Optional[int] = None
        torn = False
        try:
            while True:
                try:
                    frame_type, payload = recv_frame(conn)
                except ConnectionClosed as exc:
                    torn = exc.mid_frame
                    break
                except ProtocolError:
                    torn = True
                    with self._mu:
                        self._counters["protocol_errors"] += 1
                    break
                except (OSError, ValueError):
                    break
                try:
                    client_id, done = self._handle_frame(
                        conn, frame_type, payload, client_id)
                except (OSError, ValueError):
                    break
                if done:
                    break
        finally:
            with self._mu:
                self._connections.discard(conn)
                state = self._clients.get(client_id) if client_id else None
                mid_stream = (state is not None and not state.ended
                              and not state.aborted)
                if torn and not self._stopping:
                    self._counters["connections_torn"] += 1
                if mid_stream and not self._stopping:
                    # The log will never complete; drop its partial state so
                    # it cannot skew the fleet report.
                    self._abort(state)
            if state is not None and state.aborted:
                self._ingest.put(("discard", client_id))
            try:
                conn.close()
            except OSError:
                pass

    def _handle_frame(self, conn: socket.socket, frame_type: int,
                      payload: bytes, client_id: Optional[int]):
        """Dispatch one frame; returns (client_id, connection_done)."""
        if frame_type == T_HELLO:
            body = self._decode_body(conn, payload)
            if body is None:
                return client_id, False
            with self._mu:
                new_id = self._next_client_id
                self._next_client_id += 1
                state = _ClientState(
                    new_id, str(body.get("name", f"client-{new_id}")))
                self._clients[new_id] = state
                # With no worker alive, one not yet known dead takes the
                # pairs; the supervisor moves them on when it notices.
                candidates = self._live_worker_indices() or [
                    i for i, w in enumerate(self._workers)
                    if w.process is not None]
                state.owners = [self._assign(new_id, shard_id, candidates)
                                for shard_id in range(self.num_shards)]
                self._clients_pending += 1
                self._counters["clients_total"] += 1
            send_json(conn, T_OK, {"client_id": new_id})
            return new_id, False

        if frame_type == T_SEGMENT:
            if client_id is None:
                self._protocol_error(conn, "SEGMENT before HELLO")
                return client_id, False
            try:
                segment_event_count(payload)
            except ValueError as exc:
                self._protocol_error(conn, f"bad segment: {exc}")
                return client_id, False
            with self._mu:
                state = self._clients[client_id]
                if state.ended:
                    self._protocol_error(conn, "SEGMENT after END")
                    return client_id, False
                seq = state.enqueued
                state.enqueued += 1
            # Blocking put — this is the backpressure point; no lock held.
            self._ingest.put(("segment", client_id, seq, payload))
            with self._mu:
                self._counters["segments_ingested"] += 1
                self._counters["bytes_ingested"] += len(payload)
            send_json(conn, T_ACK, {"seq": seq})
            return client_id, False

        if frame_type == T_END:
            if client_id is None:
                self._protocol_error(conn, "END before HELLO")
                return client_id, False
            body = self._decode_body(conn, payload)
            if body is None:
                return client_id, False
            with self._mu:
                state = self._clients[client_id]
                try:
                    expected = int(body.get("segments", state.enqueued))
                except (TypeError, ValueError):
                    self._protocol_error(
                        conn, "END segments must be an integer")
                    return client_id, False
                if expected != state.enqueued or state.ended:
                    self._protocol_error(
                        conn, f"END claims {expected} segments, "
                              f"server saw {state.enqueued}")
                    return client_id, False
            self._ingest.put(("end", client_id))
            if not state.completed.wait(timeout=self._finalize_timeout):
                with self._mu:
                    # Re-check under the lock: completion may have landed
                    # just after the timeout fired.
                    timed_out = not state.completed.is_set()
                    if timed_out and not state.aborted:
                        # Reclaim the stuck state — otherwise it sits in
                        # clients_pending forever, its journal is replayed
                        # on every worker death, and END can never be
                        # retried (a second END fails validation).
                        self._abort(state)
                if timed_out:
                    self._ingest.put(("discard", client_id))
                    send_json(conn, T_ERR, {"error": "finalize timed out"})
                    return client_id, False
            with self._mu:
                races = state.report.num_static if state.report else 0
            send_json(conn, T_OK, {"segments": expected, "races": races})
            return client_id, False

        if frame_type == T_STATUS:
            send_json(conn, T_OK, self.status())
            return client_id, False

        if frame_type == T_REPORT:
            send_json(conn, T_OK, self.fleet_report())
            return client_id, False

        if frame_type == T_VERDICTS:
            body = self._decode_body(conn, payload)
            if body is None:
                return client_id, False
            rows = body.get("verdicts")
            if not isinstance(rows, list):
                self._protocol_error(conn, "VERDICTS needs a verdicts list")
                return client_id, False
            accepted = 0
            try:
                parsed = []
                for row in rows:
                    pcs = row["pcs"]
                    low, high = sorted((int(pcs[0]), int(pcs[1])))
                    value = RaceVerdict(str(row["verdict"])).value
                    parsed.append(((low, high), value))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self._protocol_error(conn, f"bad verdict row: {exc}")
                return client_id, False
            with self._mu:
                for key, value in parsed:
                    known = self._verdicts.get(key)
                    self._verdicts[key] = (
                        value if known is None
                        else strongest_verdict(known, value))
                    accepted += 1
                self._counters["verdicts_received"] += accepted
                try:
                    self._write_snapshot()
                except Exception:
                    self._counters["snapshot_errors"] += 1
            send_json(conn, T_OK, {"verdicts": accepted})
            return client_id, False

        if frame_type == T_SHUTDOWN:
            send_json(conn, T_OK, {})
            self.shutdown_requested.set()
            return client_id, True

        self._protocol_error(conn, f"unknown frame type {frame_type}")
        return client_id, False

    def _abort(self, state: _ClientState) -> None:
        """Give up on a client that will never complete (held _mu)."""
        state.aborted = True
        self._clients_pending -= 1
        self._counters["clients_aborted"] += 1
        for shard_id, index in enumerate(state.owners):
            self._workers[index].pending.discard((state.client_id, shard_id))

    def _decode_body(self, conn: socket.socket,
                     payload: bytes) -> Optional[Dict[str, Any]]:
        """Decode a frame's JSON object body, or ERR the peer and return
        None — bad JSON must never escape the frame handler (it would kill
        the connection thread without a reply)."""
        try:
            body = decode_json(payload) if payload else {}
        except ProtocolError as exc:
            self._protocol_error(conn, str(exc))
            return None
        if not isinstance(body, dict):
            self._protocol_error(conn, "frame body must be a JSON object")
            return None
        return body

    def _protocol_error(self, conn: socket.socket, message: str) -> None:
        with self._mu:
            self._counters["protocol_errors"] += 1
        send_json(conn, T_ERR, {"error": message})

    # -- aggregation & introspection ---------------------------------------
    def _merged_report(self) -> RaceReport:
        """Fleet-wide deduped report, deterministic merge order (held _mu)."""
        merged = RaceReport()
        merged.merge(self._baseline_report)
        for client_id in sorted(self._clients):
            state = self._clients[client_id]
            if state.report is not None:
                merged.merge(state.report)
        return merged

    def status(self) -> Dict[str, Any]:
        """The counters the status endpoint serves."""
        with self._mu:
            uptime = max(time.monotonic() - self._start_time, 1e-9)
            counters = dict(self._counters)
            lag = [0] * self.num_shards
            for worker in self._workers:
                for shard_ids in worker.in_flight:
                    for shard_id in shard_ids:
                        lag[shard_id] += 1
            return {
                **counters,
                "uptime_s": round(uptime, 3),
                "bytes_per_s": round(counters["bytes_ingested"] / uptime, 1),
                "queue_depth": self._ingest.qsize(),
                "queue_capacity": self._queue_depth,
                "num_shards": self.num_shards,
                "workers_alive": len(self._live_worker_indices()),
                "shard_lag": {str(s): n for s, n in enumerate(lag)},
                "clients_pending": self._clients_pending,
                "races_found": len(self._fleet_pairs),
                "verdicts_known": len(self._verdicts),
            }

    def fleet_report(self) -> Dict[str, Any]:
        """The deduped fleet-wide race report the report endpoint serves."""
        with self._mu:
            merged = self._merged_report()
            suppressed = 0
            if self._suppressions is not None and self._program is not None:
                merged, dropped = (
                    self._suppressions.split(merged, self._program))
                suppressed = dropped.num_static
            wire = report_to_wire(merged)
            for row in wire["races"]:
                if self._program is not None:
                    row["symbols"] = [self._program.symbolize(pc)
                                      for pc in row["pcs"]]
                key = (min(row["pcs"]), max(row["pcs"]))
                verdict = self._verdicts.get(key)
                if verdict is not None:
                    row["verdict"] = verdict
            return {
                "report": wire,
                "num_static": merged.num_static,
                "num_dynamic": merged.num_dynamic,
                "suppressed": suppressed,
                "clients_completed": self._counters["clients_completed"],
                "clients_pending": self._clients_pending,
            }

    # -- persistence -------------------------------------------------------
    def _snapshot_path(self) -> Optional[str]:
        if self._state_dir is None:
            return None
        return os.path.join(self._state_dir, _SNAPSHOT_FILE)

    def _load_snapshot(self) -> None:
        path = self._snapshot_path()
        if path is None:
            return
        os.makedirs(self._state_dir, exist_ok=True)
        if not os.path.exists(path):
            return
        import json

        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        self._baseline_report = report_from_wire(snapshot["report"])
        self._fleet_pairs.update(self._baseline_report.occurrences)
        for key, value in snapshot.get("verdicts", {}).items():
            low, high = key.split(",", 1)
            self._verdicts[(int(low), int(high))] = RaceVerdict(value).value

    def _write_snapshot(self) -> None:
        path = self._snapshot_path()
        if path is None:
            return
        import json

        snapshot = {
            "report": report_to_wire(self._merged_report()),
            "verdicts": {f"{low},{high}": value
                         for (low, high), value in self._verdicts.items()},
        }
        tmp_path = f"{path}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
