"""The race-telemetry daemon: ``repro serve``.

One :class:`TelemetryServer` is the central analyzer of the paper's
deployment story (§4.4): beta machines run instrumented binaries, stream
their event logs here, and races are triaged centrally, deduplicated across
the whole fleet by PC pair.

Data flow::

    clients ──frames──▶ connection threads (journal) ──▶ the owning
        worker's input pipe ──▶ detector workers ──▶ each worker's
        result pipe ──▶ its reader thread ──▶ aggregator (dedup + persist)

* **Backpressure**: at most ``queue_depth`` segments are in flight (sent
  and not yet answered) to each worker.  The connection thread that read
  a SEGMENT waits while the client's owner is at that cap, writes the
  segment into the owner's pipe itself, and only then ACKs it, so a
  worker that falls behind slows its clients instead of the daemon
  growing without bound.  A pipe is only ever written outside the server
  lock: a worker blocked on a full result pipe stops reading its input
  until its reader thread, which needs the lock, drains it.
* **Assignment**: at HELLO a client goes to the worker with the fewest
  pending clients (lowest index on ties) and stays there; its segments
  and its finalize go only to that owner.  A log is decoded and detected
  once, by one worker, and the workers run different clients in
  parallel.
* **Crash tolerance**: the connection thread journals every segment
  before writing it.  A supervisor watches the workers; when one dies
  exactly its pending clients move to the least-loaded survivors (or a
  fresh replacement) and those clients' journals are replayed to their
  new owners; a moved client's next frame waits until its replay is
  written.  A write that finds its worker dead is dropped, since the
  replay covers it.  A torn client connection discards only that
  client's pending state; the server never corrupts.  Each worker
  answers through a one-way pipe of its own, read by a thread of its
  own, so a worker killed mid-write tears only its own channel: its
  reader sees EOF or a torn message and exits, and every other worker
  keeps answering.
* **Aggregation**: when a client's report arrives it is folded once into
  a running fleet report, deduplicated by PC pair: counts add, addresses
  union, and each race keeps the snapshot baseline's example, else the
  lowest client id's, so the result does not depend on completion order.
  The client's state is then dropped.  STATUS and REPORT read the running
  report (optionally filtered through a
  :class:`~repro.core.suppressions.SuppressionList`), so a query costs
  O(races), not O(clients served).  With a ``state_dir`` the fleet report
  is persisted after every completed client, before its END is answered,
  and reloaded as the baseline on restart.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.suppressions import SuppressionList
from ..detector.races import RaceKey, RaceReport
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


def _close_socket(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.  close() alone does not wake a
    thread blocked in accept() on a listener, and does not end a
    connection while another process holds a copy of its descriptor, as a
    worker forked after the accept returns and before the connection is
    registered does; shutdown() does both."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Worker:
    """One detector process, its input and result pipes, and what it
    owes."""

    __slots__ = ("worker_id", "process", "in_queue", "send_lock", "results",
                 "pending", "in_flight")

    def __init__(self, worker_id: int, process, in_queue, results=None):
        #: unique per process, so a dead worker's late acks are told apart
        #: from those of a replacement spawned at the same index
        self.worker_id = worker_id
        self.process = process
        #: the write end of the worker's input pipe; see _post
        self.in_queue = in_queue
        #: held for each message written to in_queue, so that concurrent
        #: writers never interleave their bytes on the pipe
        self.send_lock = threading.Lock()
        #: the read end of the worker's result pipe
        self.results = results
        #: ids of the clients owned here whose report has not arrived:
        #: the load that assignment balances
        self.pending: Set[int] = set()
        #: segments sent here and not yet answered, which the cap bounds;
        #: the worker answers every segment with one ack or error
        self.in_flight = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _PipeEnd:
    """One end of a one-way pipe, with the ``put`` and ``get`` of a queue:
    what :func:`~repro.service.shard.worker_main` reads its messages from
    and answers through."""

    __slots__ = ("put", "get", "close")

    def __init__(self, connection):
        self.put = connection.send
        self.get = connection.recv
        self.close = connection.close


def _run_worker(worker_id: int, inbox, results, inherited_writers,
                inherited_sockets) -> None:
    """A detector process: close the input-pipe write ends the fork copied
    in, so that the server closing its own end reads here as EOF (the
    signal to stop), and the server's sockets, so that a worker never
    keeps a listener or a client connection open; then run the worker
    loop.  close(), not shutdown(): shutting a copy down would end the
    server's own socket."""
    for handle in inherited_writers + inherited_sockets:
        try:
            handle.close()
        except OSError:
            pass
    worker_main(worker_id, _PipeEnd(inbox), _PipeEnd(results))


class _ClientState:
    """Everything the server tracks about one submitting client.  It is in
    the server's client table only while the client is pending; its
    connection keeps it after that."""

    __slots__ = ("client_id", "name", "journal", "enqueued", "ended",
                 "aborted", "replaying", "owner", "report", "completed")

    def __init__(self, client_id: int, name: str):
        self.client_id = client_id
        self.name = name
        #: raw segment payloads in seq order — the replay journal
        self.journal: List[bytes] = []
        #: segments accepted from the client; only its connection's
        #: thread reads or writes this
        self.enqueued = 0
        #: END has been routed to the owner
        self.ended = False
        self.aborted = False
        #: the supervisor is writing this client's journal to a new owner;
        #: the client's next frame waits for that
        self.replaying = False
        #: index of the worker analyzing this client
        self.owner = -1
        self.report: Optional[RaceReport] = None
        self.completed = threading.Event()


class TelemetryServer:
    """Streaming race detection over fleet-submitted event logs, each
    client analyzed by one worker process."""

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        workers: int = 2,
        queue_depth: int = 64,
        state_dir: Optional[str] = None,
        program: Optional[Program] = None,
        suppressions: Optional[SuppressionList] = None,
        finalize_timeout: float = 60.0,
    ):
        if not addresses:
            raise ValueError("at least one listen address is required")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._address_specs = list(addresses)
        self._num_workers = workers
        self._queue_depth = queue_depth
        self._state_dir = state_dir
        self._program = program
        self._suppressions = suppressions
        self._finalize_timeout = finalize_timeout

        self._mu = threading.RLock()
        #: notified when a worker's in-flight segments drop, a replay is
        #: written, or the server stops
        self._room = threading.Condition(self._mu)
        #: clients between HELLO and completion or abort, by id
        self._clients: Dict[int, _ClientState] = {}
        self._next_client_id = 1
        self._workers: List[_Worker] = []
        #: live workers by worker id; acks from any other id are ignored
        self._worker_by_id: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._threads: List[threading.Thread] = []
        self._listeners: List[socket.socket] = []
        self._connections: set = set()
        self._stopping = False
        self._started = False
        self._start_time = 0.0
        self.shutdown_requested = threading.Event()

        #: the fleet report: the snapshot baseline with every completed
        #: client folded in once (see _fold)
        self._fleet = RaceReport()
        #: where each fleet race's example came from: 0 for the baseline,
        #: else the client id
        self._example_source: Dict[RaceKey, int] = {}
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
        for worker in self._workers:
            self._start_reader(worker)
        for spec in self._address_specs:
            listener = bind_listener(spec)
            self._listeners.append(listener)
            self._start_thread(self._accept_loop, listener,
                               name=f"accept-{spec}")
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
            # Connection threads waiting for room give up.
            self._room.notify_all()
        self.shutdown_requested.set()
        for listener in self._listeners:
            _close_socket(listener)
        with self._mu:
            connections = list(self._connections)
        for conn in connections:
            _close_socket(conn)
        # EOF on its input stops a worker once it has analyzed what the
        # pipe still holds.  A thread blocked writing to a stopped worker's
        # full pipe keeps that pipe's send lock until the worker is killed
        # below, so that pipe stays open.
        for worker in self._workers:
            self._close_input(worker)
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(
                    timeout=max(deadline - time.monotonic(), 0.0))
        for worker in self._workers:
            if worker.process is not None and worker.process.is_alive():
                # SIGKILL: SIGTERM may not end a SIGSTOPped worker.
                worker.process.kill()
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
        inbox, sender = _MP.Pipe(duplex=False)
        results, writer = _MP.Pipe(duplex=False)
        with self._mu:
            sockets = self._listeners + list(self._connections)
        process = _MP.Process(
            target=_run_worker,
            args=(worker_id, inbox, writer,
                  [sender] + [w.in_queue for w in self._workers], sockets),
            daemon=True,
            name=f"repro-detector-{index}",
        )
        process.start()
        # The worker holds the only read end of its input and the only
        # write end of its results: a write to it once it is dead fails,
        # and its exit reads as EOF.
        inbox.close()
        writer.close()
        worker = _Worker(worker_id, process, _PipeEnd(sender), results)
        self._worker_by_id[worker_id] = worker
        return worker

    def _live_worker_indices(self) -> List[int]:
        return [i for i, w in enumerate(self._workers) if w.alive]

    def _assign(self, state: _ClientState, candidates: List[int]) -> None:
        """Give a client to the candidate worker with the fewest pending
        clients, lowest index on ties (held _mu)."""
        index = min(candidates, key=lambda i: len(self._workers[i].pending))
        self._workers[index].pending.add(state.client_id)
        state.owner = index

    def _post(self, sends: List[Tuple[_Worker, tuple]]) -> None:
        """Write each message into its worker's input pipe, in order.

        Never call this holding _mu: a write blocks while the pipe is full,
        and a worker blocked on its own full result pipe reads no input
        until its reader thread, which needs _mu, drains that.  A write to
        a dead worker fails and is dropped: whoever takes over its clients
        replays each client's journal, this frame included."""
        for worker, message in sends:
            with worker.send_lock:
                try:
                    worker.in_queue.put(message)
                except OSError:
                    pass

    def _close_input(self, worker: _Worker) -> None:
        """Close the server's end of a worker's input pipe, unless a writer
        blocked on it holds it for longer than half a second."""
        if worker.send_lock.acquire(timeout=0.5):
            try:
                worker.in_queue.close()
            finally:
                worker.send_lock.release()

    def _await_replay(self, state: _ClientState) -> None:
        """Wait until no replay of the client is being written (held
        _mu)."""
        while state.replaying and not self._stopping:
            self._room.wait()

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

    def _route_segment(self, state: _ClientState, seq: int,
                       payload: bytes) -> bool:
        """Journal a pending client's segment and write it to the client's
        owner once that has fewer than ``queue_depth`` segments in flight:
        the backpressure point.  False if the server stopped first."""
        with self._mu:
            while True:
                if self._stopping:
                    return False
                worker = self._workers[state.owner]
                if (not state.replaying
                        and worker.in_flight < self._queue_depth):
                    break
                self._room.wait()
            assert seq == len(state.journal), "segments out of order"
            state.journal.append(payload)
            self._counters["segments_ingested"] += 1
            self._counters["bytes_ingested"] += len(payload)
            worker.in_flight += 1
        self._post([(worker, ("segment", state.client_id, seq, payload))])
        return True

    def _route_end(self, client_id: int) -> None:
        """Send a pending client's finalize to its owner, behind its
        segments."""
        with self._mu:
            state = self._clients.get(client_id)
            if state is None:
                return
            self._await_replay(state)
            state.ended = True
            worker = self._workers[state.owner]
        self._post([(worker, ("finalize", client_id))])

    def _route_discard(self, state: _ClientState) -> None:
        """Tell an aborted client's owner to drop it, behind its last
        segments and any replay of them, so the owner sees no segment of
        the client after its discard."""
        with self._mu:
            self._await_replay(state)
            worker = self._workers[state.owner]
        self._post([(worker, ("discard", state.client_id))])

    def _start_reader(self, worker: _Worker) -> None:
        self._start_thread(self._read_results, worker.results,
                           name=f"results-{worker.worker_id}")

    def _read_results(self, results) -> None:
        """Apply one worker's answers until its pipe ends: EOF once the
        worker has exited, or a message torn by its death."""
        try:
            while True:
                try:
                    message = results.recv()
                except (EOFError, OSError):
                    return
                with self._mu:
                    verb = message[0]
                    if verb == "ack":
                        if self._segment_answered(message[1]):
                            self._counters["events_analyzed"] += message[4]
                    elif verb == "report":
                        self._on_report(message[2], message[3])
                    elif verb == "error":
                        self._counters["segment_errors"] += 1
                        self._segment_answered(message[1])
        finally:
            results.close()

    def _segment_answered(self, worker_id: int) -> bool:
        """Retire the oldest segment in flight to ``worker_id``; False for
        a dead worker, whose backlog was written off when it died (held
        _mu)."""
        worker = self._worker_by_id.get(worker_id)
        if worker is None or not worker.in_flight:
            return False
        worker.in_flight -= 1
        self._room.notify_all()
        return True

    def _on_report(self, client_id: int, wire: Dict[str, Any]) -> None:
        """Complete a client with its report (held _mu).  A report comes
        only after the client's finalize, so after its END."""
        state = self._clients.get(client_id)
        if state is None:
            # Completed or aborted: a dead owner's report can land after
            # its client moved to a survivor, and the survivor's after it.
            return
        self._workers[state.owner].pending.discard(client_id)
        state.report = report_from_wire(wire)
        # The journal exists only so a crash can replay this client's
        # segments; nothing replays a completed client, so release the
        # payloads instead of holding every submitted byte for the
        # daemon's lifetime.
        state.journal.clear()
        del self._clients[client_id]
        self._fold(client_id, state.report)
        self._counters["clients_completed"] += 1
        try:
            self._write_snapshot()
        except Exception:
            # A failed snapshot (disk full, bad state_dir) must not kill
            # the reader thread — the in-memory report is intact and the
            # next completion retries the write.
            self._counters["snapshot_errors"] += 1
        # Only now, with the snapshot on disk, may END be answered.
        state.completed.set()

    def _fold(self, client_id: int, report: RaceReport) -> None:
        """Add a completed client's report to the fleet report (held _mu).

        Counts add and addresses union; each race keeps the baseline's
        example, else the lowest client id's.  That is what merging the
        baseline and then every client in id order gives, whatever order
        the clients complete in."""
        fleet = self._fleet
        for key, count in report.occurrences.items():
            fleet.occurrences[key] = fleet.occurrences.get(key, 0) + count
        for key, example in report.examples.items():
            if client_id < self._example_source.get(key, client_id + 1):
                fleet.examples[key] = example
                self._example_source[key] = client_id
        fleet.addresses |= report.addresses

    def _supervise_loop(self) -> None:
        while not self._stopping:
            time.sleep(0.15)
            dead: List[_Worker] = []
            replaying: List[_ClientState] = []
            sends: List[Tuple[_Worker, tuple]] = []
            with self._mu:
                if self._stopping:
                    return
                for index, worker in enumerate(self._workers):
                    if worker.process is not None and not worker.alive:
                        dead.append(worker)
                        self._on_worker_death(index, replaying, sends)
            for worker in dead:
                self._close_input(worker)
            if replaying:
                self._post(sends)
                with self._mu:
                    for state in replaying:
                        state.replaying = False
                    self._room.notify_all()

    def _on_worker_death(self, index: int, replaying: List[_ClientState],
                         sends: List[Tuple[_Worker, tuple]]) -> None:
        """Move a dead worker's pending clients to the least-loaded
        survivors, mark them as replaying, and add the messages that replay
        their journals to ``sends``, for the caller to write once it has
        released _mu (held _mu)."""
        self._counters["worker_failures"] += 1
        dead = self._workers[index]
        dead.process.join(timeout=1.0)
        dead.process = None
        # Its un-acked segments will never be acked: write them off, and
        # wake the connection threads waiting for it to make room.
        del self._worker_by_id[dead.worker_id]
        dead.in_flight = 0
        self._room.notify_all()
        # Pending clients are exactly those whose report has not arrived
        # and that are neither completed nor aborted.
        lost = sorted(dead.pending)
        dead.pending.clear()
        survivors = self._live_worker_indices()
        if not survivors:
            # Last worker standing died: spawn a replacement with a fresh
            # pipe (what the old pipe held is covered by replay).
            self._workers[index] = self._spawn_worker(index)
            self._start_reader(self._workers[index])
            survivors = [index]
        for client_id in lost:
            state = self._clients[client_id]
            self._assign(state, survivors)
            state.replaying = True
            replaying.append(state)
            worker = self._workers[state.owner]
            for seq, payload in enumerate(state.journal):
                sends.append((worker, ("segment", client_id, seq, payload)))
            worker.in_flight += len(state.journal)
            if state.ended:
                sends.append((worker, ("finalize", client_id)))

    # -- connections -------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        # The connection's latest client; it stays here after the client
        # leaves _clients, for the END reply and the checks that follow.
        state: Optional[_ClientState] = None
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
                    state, done = self._handle_frame(
                        conn, frame_type, payload, state)
                except (OSError, ValueError):
                    break
                if done:
                    break
        finally:
            with self._mu:
                self._connections.discard(conn)
                if torn and not self._stopping:
                    self._counters["connections_torn"] += 1
                # A client still pending will never complete; drop its
                # partial state so it cannot skew the fleet report.
                mid_stream = (not self._stopping
                              and self._is_pending(state))
                if mid_stream:
                    self._abort(state)
            if mid_stream:
                self._route_discard(state)
            _close_socket(conn)

    def _handle_frame(self, conn: socket.socket, frame_type: int,
                      payload: bytes, state: Optional[_ClientState]):
        """Dispatch one frame; returns (the connection's client state,
        connection_done)."""
        if frame_type == T_HELLO:
            if self._is_pending(state):
                # A second log on the connection would orphan the first:
                # nothing could END it, and it would stay pending for the
                # daemon's whole life.
                self._protocol_error(
                    conn, f"HELLO while client {state.client_id} is "
                          f"mid-stream")
                return state, False
            body = self._decode_body(conn, payload)
            if body is None:
                return state, False
            state = self._open_client(body.get("name"))
            send_json(conn, T_OK, {"client_id": state.client_id})
            return state, False

        if frame_type == T_SEGMENT:
            if state is None:
                self._protocol_error(conn, "SEGMENT before HELLO")
                return state, False
            try:
                segment_event_count(payload)
            except ValueError as exc:
                self._protocol_error(conn, f"bad segment: {exc}")
                return state, False
            if not self._is_pending(state):
                self._protocol_error(conn, "SEGMENT after END")
                return state, False
            seq = state.enqueued
            state.enqueued += 1
            if not self._route_segment(state, seq, payload):
                return state, True
            send_json(conn, T_ACK, {"seq": seq})
            return state, False

        if frame_type == T_END:
            if state is None:
                self._protocol_error(conn, "END before HELLO")
                return state, False
            body = self._decode_body(conn, payload)
            if body is None:
                return state, False
            try:
                expected = int(body.get("segments", state.enqueued))
            except (TypeError, ValueError):
                self._protocol_error(conn, "END segments must be an integer")
                return state, False
            if not self._is_pending(state):
                self._protocol_error(conn, "END after END")
                return state, False
            if expected != state.enqueued:
                self._protocol_error(
                    conn, f"END claims {expected} segments, "
                          f"server saw {state.enqueued}")
                return state, False
            self._route_end(state.client_id)
            if not state.completed.wait(timeout=self._finalize_timeout):
                with self._mu:
                    # Re-check under the lock: completion may have landed
                    # just after the timeout fired.
                    timed_out = self._is_pending(state)
                    if timed_out:
                        # Reclaim the stuck state — otherwise it sits in
                        # clients_pending forever, its journal is replayed
                        # on every worker death, and END can never be
                        # retried.
                        self._abort(state)
                if timed_out:
                    self._route_discard(state)
                    send_json(conn, T_ERR, {"error": "finalize timed out"})
                    return state, False
            # Completion set state.report before it set the event.
            races = state.report.num_static
            send_json(conn, T_OK, {"segments": expected, "races": races})
            return state, False

        if frame_type == T_STATUS:
            send_json(conn, T_OK, self.status())
            return state, False

        if frame_type == T_REPORT:
            send_json(conn, T_OK, self.fleet_report())
            return state, False

        if frame_type == T_VERDICTS:
            body = self._decode_body(conn, payload)
            if body is None:
                return state, False
            rows = body.get("verdicts")
            if not isinstance(rows, list):
                self._protocol_error(conn, "VERDICTS needs a verdicts list")
                return state, False
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
                return state, False
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
            return state, False

        if frame_type == T_SHUTDOWN:
            send_json(conn, T_OK, {})
            self.shutdown_requested.set()
            return state, True

        self._protocol_error(conn, f"unknown frame type {frame_type}")
        return state, False

    def _open_client(self, name: Optional[str]) -> _ClientState:
        """Register a client at HELLO and give it to the least-loaded
        worker."""
        with self._mu:
            client_id = self._next_client_id
            self._next_client_id += 1
            state = _ClientState(
                client_id, f"client-{client_id}" if name is None
                else str(name))
            self._clients[client_id] = state
            # With no worker alive, one not yet known dead takes the
            # client; the supervisor moves it on when it notices.
            candidates = self._live_worker_indices() or [
                i for i, w in enumerate(self._workers)
                if w.process is not None]
            self._assign(state, candidates)
            self._counters["clients_total"] += 1
        return state

    def _is_pending(self, state: Optional[_ClientState]) -> bool:
        """Whether ``state`` is a client between HELLO and completion or
        abort."""
        with self._mu:
            return state is not None and state.client_id in self._clients

    def _abort(self, state: _ClientState) -> None:
        """Give up on a client that will never complete (held _mu).  The
        caller then sends its owner a ``discard`` (_route_discard)."""
        state.aborted = True
        state.journal.clear()
        del self._clients[state.client_id]
        self._counters["clients_aborted"] += 1
        self._workers[state.owner].pending.discard(state.client_id)

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
    def status(self) -> Dict[str, Any]:
        """The counters the status endpoint serves."""
        with self._mu:
            uptime = max(time.monotonic() - self._start_time, 1e-9)
            counters = dict(self._counters)
            lag = [worker.in_flight for worker in self._workers]
            return {
                **counters,
                "uptime_s": round(uptime, 3),
                "bytes_per_s": round(counters["bytes_ingested"] / uptime, 1),
                # segments in flight on all workers, and the cap per worker
                "queue_depth": sum(lag),
                "queue_capacity": self._queue_depth,
                "workers_alive": len(self._live_worker_indices()),
                # segments in flight per worker, by worker index
                "shard_lag": {str(i): n for i, n in enumerate(lag)},
                "clients_pending": len(self._clients),
                "races_found": self._fleet.num_static,
                "verdicts_known": len(self._verdicts),
            }

    def fleet_report(self) -> Dict[str, Any]:
        """The deduped fleet-wide race report the report endpoint serves."""
        with self._mu:
            merged = self._fleet
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
                "clients_pending": len(self._clients),
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
        self._fleet = report_from_wire(snapshot["report"])
        self._example_source = dict.fromkeys(self._fleet.examples, 0)
        for key, value in snapshot.get("verdicts", {}).items():
            low, high = key.split(",", 1)
            self._verdicts[(int(low), int(high))] = RaceVerdict(value).value

    def _write_snapshot(self) -> None:
        path = self._snapshot_path()
        if path is None:
            return
        import json

        snapshot = {
            "report": report_to_wire(self._fleet),
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
