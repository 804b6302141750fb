"""Tests for the race-telemetry service (repro.service).

The acceptance bar is *end-to-end parity*: N concurrent clients submitting
segmented logs must yield a deduped race report equal — same race set, same
occurrence counts, deterministic ordering — to running the offline
`HappensBeforeDetector` on the same logs in one process, and the whole
report (examples and addresses too) is the offline `FlatDetector`'s.  On
top of that: the client-to-worker assignment, bounded-queue backpressure,
worker-crash journal replay, torn-connection isolation, rolling-state
persistence, and the live harness sink.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import queue
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import termios
import textwrap
import threading
import time
from array import array

import pytest

from repro.core.literace import LiteRace
from repro.detector.flat import FlatDetector
from repro.detector.hb import HappensBeforeDetector, detect_races
from repro.detector.merge import merge_thread_logs
from repro.detector.races import RaceInstance, RaceReport
from repro.eventlog.events import MemoryEvent, SyncEvent, SyncKind
from repro.eventlog.log import EventLog
from repro.eventlog.segment import (decode_segment_columns, encode_segment,
                                    split_log)
from repro.service import (
    ProtocolError,
    TelemetryClient,
    TelemetryServer,
    TelemetrySink,
    parse_address,
)
from repro.service.protocol import (
    T_END,
    T_OK,
    T_STATUS,
    recv_frame,
    report_from_wire,
    report_to_wire,
    send_frame,
)
from repro.service.server import _PipeEnd
from repro.service.shard import worker_main
from repro.workloads.synthetic import random_program, two_thread_racer


# -- helpers ---------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def short_socket_path() -> str:
    """A Unix socket path safely inside AF_UNIX's ~108-char limit."""
    return os.path.join(tempfile.mkdtemp(prefix="reprosvc-", dir="/tmp"),
                        "sock")


def offline_reference(*logs: EventLog) -> RaceReport:
    """What one process, one detector per log, would report — the oracle
    the service must match exactly."""
    merged = RaceReport()
    for log in logs:
        detector = HappensBeforeDetector()
        detector.feed_all(merge_thread_logs(log).events)
        merged.merge(detector.report)
    return merged


def offline_wire(*logs: EventLog) -> dict:
    """The REPORT body's ``report`` the server must serve for these logs
    submitted as clients 1, 2, ...: the offline FlatDetector's report of
    each log's stream, merged in client-id order."""
    merged = RaceReport()
    for log in logs:
        detector = FlatDetector("hb").feed_all(merge_thread_logs(log).events)
        merged.merge(detector.report)
    return report_to_wire(merged)


def wire_occurrences(report_body) -> dict:
    return {(row["pcs"][0], row["pcs"][1]): row["count"]
            for row in report_body["report"]["races"]}


@pytest.fixture(scope="module")
def fleet_logs():
    """Two small racy logs standing in for two fleet machines."""
    log_a = LiteRace(sampler="Full", seed=1).profile(two_thread_racer())[1]
    log_b = LiteRace(sampler="Full", seed=2).profile(random_program(3))[1]
    return log_a, log_b


# -- protocol units --------------------------------------------------------

class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("tcp:127.0.0.1:900") == \
            ("tcp", ("127.0.0.1", 900))

    @pytest.mark.parametrize("bad", ["", "unix", "udp:/x", "tcp:hostonly"])
    def test_parse_address_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_frame_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, T_STATUS, b"payload-bytes")
            frame_type, payload = recv_frame(right)
            assert (frame_type, payload) == (T_STATUS, b"payload-bytes")
            send_frame(right, T_OK, b"")
            assert recv_frame(left) == (T_OK, b"")
        finally:
            left.close()
            right.close()

    def test_report_wire_round_trip(self):
        report = RaceReport()
        report.record(RaceInstance(0x40, 1, 2, 9, 3, True, False))
        report.record(RaceInstance(0x40, 1, 2, 9, 3, True, False))
        report.record(RaceInstance(0x80, 0, 3, 7, 7, True, True))
        restored = report_from_wire(report_to_wire(report))
        assert restored.occurrences == report.occurrences
        assert restored.examples == report.examples
        assert restored.addresses == report.addresses


# -- end-to-end parity -----------------------------------------------------

class TestFleetParity:
    def test_concurrent_clients_match_offline_detector(self, fleet_logs):
        """Each log is analyzed whole by one worker, so occurrence counts
        match the offline detector and the whole REPORT body, examples and
        addresses included, is the offline FlatDetector's."""
        log_a, log_b = fleet_logs
        reference = offline_reference(log_a, log_b)
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2,
                             queue_depth=8) as server:
            results = []

            def submit(log, name):
                with TelemetryClient(address) as client:
                    result = client.submit_log(
                        log, name=name, segment_events=64, compress=True)
                    results.append((result.client_id, log, result))

            threads = [threading.Thread(target=submit, args=(log, name))
                       for log, name in ((log_a, "a"), (log_b, "b"))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            with TelemetryClient(address) as client:
                body = client.report()
                status = client.status()

        assert len(results) == 2
        assert all(r.merge_inconsistencies == 0 for _, _, r in results)
        assert wire_occurrences(body) == reference.occurrences
        assert status["clients_completed"] == 2
        assert status["races_found"] == reference.num_static
        assert all(lag == 0 for lag in status["shard_lag"].values())
        in_id_order = [log for _, log, _ in sorted(results,
                                                   key=lambda r: r[0])]
        assert body["report"] == offline_wire(*in_id_order)
        assert body["num_dynamic"] == reference.num_dynamic

    def test_report_ordering_is_deterministic_across_worker_counts(
            self, fleet_logs):
        log_a, log_b = fleet_logs
        rows_by_workers = {}
        for workers in (1, 3):
            address = f"unix:{short_socket_path()}"
            with TelemetryServer([address], workers=workers) as server:
                with TelemetryClient(address) as client:
                    client.submit_log(log_a, segment_events=64)
                with TelemetryClient(address) as client:
                    client.submit_log(log_b, segment_events=64)
                with TelemetryClient(address) as client:
                    rows = [(tuple(r["pcs"]), r["count"])
                            for r in client.report()["report"]["races"]]
                    rows_again = [(tuple(r["pcs"]), r["count"])
                                  for r in client.report()["report"]["races"]]
            assert rows == rows_again
            rows_by_workers[workers] = rows
        assert rows_by_workers[1] == rows_by_workers[3]

    def test_tcp_listener_works_too(self, fleet_logs):
        log_a, _ = fleet_logs
        with TelemetryServer(["tcp:127.0.0.1:0"], workers=1) as server:
            address = server.addresses[0]
            with TelemetryClient(address) as client:
                result = client.submit_log(log_a, segment_events=16)
        assert result.races == offline_reference(log_a).num_static


# -- client-to-worker assignment -------------------------------------------

def pending_clients(server) -> list:
    """Per worker, how many of its clients await their report."""
    with server._mu:
        return [len(worker.pending) for worker in server._workers]


def wait_for(predicate, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestRouting:
    def test_clients_go_to_the_least_loaded_worker(self, fleet_logs):
        log_a, log_b = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2) as server:
            first = TelemetryClient(address).connect()
            second = TelemetryClient(address).connect()
            first_id = first.hello("first")
            second_id = second.hello("second")
            # Two clients open at once land on different workers.
            assert server._clients[first_id].owner == 0
            assert server._clients[second_id].owner == 1
            assert pending_clients(server) == [1, 1]
            second.submit_log(log_b, segment_events=64)
            second.close()
            assert pending_clients(server) == [1, 0]
            # The third goes to the worker that is now less loaded, not
            # to the lowest index.
            with TelemetryClient(address) as third:
                third_id = third.hello("third")
                assert server._clients[third_id].owner == 1
                assert pending_clients(server) == [1, 1]
                result = third.submit_log(log_a, segment_events=8)
            first.submit_log(log_a, segment_events=8)
            first.close()
            assert pending_clients(server) == [0, 0]
        assert result.races == offline_reference(log_a).num_static

    def test_pending_clients_return_to_zero(self, fleet_logs, monkeypatch):
        """After a completed client, a client torn mid-stream, and a
        client whose END timed out, no worker counts a pending client."""
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frame = split_log(ordered, segment_events=64)[0]
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=2, finalize_timeout=0.3)
        with server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=8)
            assert pending_clients(server) == [0, 0]

            torn = TelemetryClient(address).connect()
            torn.hello("torn")
            torn.send_segment(frame)
            assert sum(pending_clients(server)) == 1
            assert server.status()["clients_pending"] == 1
            torn.close()
            wait_for(lambda: server.status()["clients_aborted"] == 1,
                     "the torn client to be aborted")
            assert pending_clients(server) == [0, 0]
            assert server.status()["clients_pending"] == 0

            # Swallow the finalize so END times out.
            monkeypatch.setattr(server, "_route_end", lambda client_id: None)
            with TelemetryClient(address) as stuck:
                stuck.hello("stuck")
                stuck.send_segment(frame)
                with pytest.raises(ProtocolError, match="timed out"):
                    stuck.end_log(1)
            assert pending_clients(server) == [0, 0]
            status = server.status()
        assert status["clients_aborted"] == 2
        assert status["clients_pending"] == 0


    def test_hello_with_no_worker_alive_is_reassigned(self, fleet_logs,
                                                      monkeypatch):
        """A client that says HELLO after the last worker died, before the
        supervisor noticed, is owned by the dead worker until the
        supervisor moves it to the replacement."""
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=1)
        noticed = threading.Event()
        supervise = server._supervise_loop

        def held_supervisor():
            noticed.wait(timeout=10)
            supervise()

        monkeypatch.setattr(server, "_supervise_loop", held_supervisor)
        with server:
            dead = server._workers[0]
            dead.process.kill()
            dead.process.join(timeout=10)
            assert not dead.alive
            client = TelemetryClient(address).connect()
            client_id = client.hello("orphan")
            assert server._clients[client_id].owner == 0
            assert dead.pending == {client_id}
            noticed.set()
            result = client.submit_log(log_a, segment_events=8)
            status = client.status()
            client.close()
            replacement = server._workers[0]
        assert replacement is not dead
        assert status["worker_failures"] == 1
        assert result.races == offline_reference(log_a).num_static

    def test_concurrent_clients_under_stress_with_a_worker_death(
            self, fleet_logs):
        """More workers than cores, a short switch interval, clients
        racing on every connection and a worker killed mid-run: a lost
        update to the pending clients or the in-flight segments would
        leave a client counted, lag behind, or a client unfinished."""
        log_a, log_b = fleet_logs
        logs = [log_a, log_b] * 4
        address = f"unix:{short_socket_path()}"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TelemetryServer([address], workers=3,
                                 queue_depth=4) as server:
                results = {}

                def submit(index):
                    with TelemetryClient(address) as client:
                        results[index] = client.submit_log(
                            logs[index], segment_events=16)

                threads = [threading.Thread(target=submit, args=(i,))
                           for i in range(len(logs))]
                for thread in threads:
                    thread.start()
                wait_for(lambda: server.status()["clients_total"] >= 3,
                         "clients to say HELLO")
                server._workers[1].process.kill()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                # The killed worker may have owned nothing pending, so
                # every client can finish before the supervisor's next
                # poll notices the death.
                wait_for(lambda: server.status()["worker_failures"] == 1,
                         "the supervisor to notice the killed worker")
                wait_for(lambda: all(
                    lag == 0 for lag in server.status()["shard_lag"].values()),
                    "every segment to be acked")
                with TelemetryClient(address) as client:
                    body = client.report()
                    status = client.status()
                pending = pending_clients(server)
                with server._mu:
                    clients = dict(server._clients)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(logs)
        assert clients == {}
        assert status["worker_failures"] == 1
        assert status["clients_completed"] == len(logs)
        assert status["clients_pending"] == 0
        assert pending == [0, 0, 0]
        in_id_order = [logs[i] for i in sorted(
            results, key=lambda i: results[i].client_id)]
        assert body["report"] == offline_wire(*in_id_order)


# -- robustness ------------------------------------------------------------

class TestRobustness:
    def test_backpressure_queue_stays_bounded(self, fleet_logs):
        _, log_b = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1,
                             queue_depth=1) as server:
            with TelemetryClient(address) as client:
                result = client.submit_log(log_b, segment_events=8)
                status = client.status()
        assert result.segments > 10  # enough to have cycled the queue
        assert status["queue_capacity"] == 1
        assert result.races == offline_reference(log_b).num_static

    def test_queue_depth_binds_while_the_only_worker_is_stopped(self):
        """With its only worker stopped, the server ACKs no more of a
        client's segments than ``queue_depth``, and STATUS counts them in
        flight; once the worker continues, the stream finishes and END
        returns the offline race count."""
        log = LiteRace(sampler="Full", seed=2).profile(
            random_program(3, calls_per_thread=120))[1]
        events = merge_thread_logs(log).events[:1200]
        ordered = EventLog()
        ordered.events = events
        frames = split_log(ordered, segment_events=1)
        assert len(frames) == 1200
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1, queue_depth=4) as server:
            pid = server._workers[0].process.pid
            client = TelemetryClient(address).connect()
            client.hello("flood")
            acked = []

            def stream():
                for frame in frames:
                    acked.append(client.send_segment(frame))

            sender = threading.Thread(target=stream, daemon=True)
            os.kill(pid, signal.SIGSTOP)
            try:
                sender.start()
                wait_for(lambda: len(acked) >= 4, "the first ACKs")
                time.sleep(0.5)
                stalled = len(acked)
                status = server.status()
            finally:
                os.kill(pid, signal.SIGCONT)
            sender.join(timeout=60)
            assert not sender.is_alive()
            ack = client.end_log(len(frames))
            client.close()
        assert stalled <= 4
        assert status["queue_depth"] <= 4
        assert status["queue_capacity"] == 4
        assert acked == list(range(len(frames)))
        assert ack["races"] == detect_races(events).num_static

    @pytest.mark.parametrize("depth", [0, -1])
    def test_queue_depth_below_one_is_rejected(self, depth):
        """A cap of 0 would hold every segment back for good."""
        with pytest.raises(ValueError, match="queue_depth"):
            TelemetryServer(["unix:unused"], queue_depth=depth)

    def test_worker_crash_mid_stream_replays_journal(self, fleet_logs):
        """Killing the worker that owns the client mid-stream moves the
        client to the survivor, which replays the journal, and the whole
        REPORT body is still the offline one."""
        _, log_b = fleet_logs
        reference = offline_reference(log_b)
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_b).events
        frames = split_log(ordered, segment_events=32)
        half = len(frames) // 2
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2,
                             queue_depth=8) as server:
            client = TelemetryClient(address).connect()
            client_id = client.hello("crashy")
            state = server._clients[client_id]
            victim = state.owner
            for frame in frames[:half]:
                client.send_segment(frame)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status = client.status()
                if all(lag == 0 for lag in status["shard_lag"].values()):
                    break
                time.sleep(0.05)
            server._workers[victim].process.terminate()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.status()["worker_failures"]:
                    break
                time.sleep(0.05)
            for frame in frames[half:]:
                client.send_segment(frame)
            ack = client.end_log(len(frames))
            body = client.report()
            status = client.status()
            client.close()
        assert status["worker_failures"] == 1
        assert victim != state.owner
        assert ack["races"] == reference.num_static
        assert wire_occurrences(body) == reference.occurrences
        assert body["report"] == offline_wire(log_b)

    def test_worker_killed_mid_write_silences_no_other_worker(
            self, fleet_logs):
        """A worker killed while blocked writing to its full result channel
        takes only that channel with it.  The test shrinks the channel to
        one page, holds the server lock, so the worker's reader cannot
        drain, until the channel stops filling, then SIGKILLs the worker;
        the survivor must still answer both the orphaned client and the
        next one."""
        _, log_b = fleet_logs
        frame = encode_segment([MemoryEvent(0, 0x10, 1, True)])
        address = f"unix:{short_socket_path()}"
        page = os.sysconf("SC_PAGE_SIZE")
        # Each ack takes well over 16 bytes of the channel, and the cap
        # lets every segment be in flight at once.
        segments = page // 16
        with TelemetryServer([address], workers=2, queue_depth=segments,
                             finalize_timeout=20) as server:
            flood = TelemetryClient(address).connect()
            flood.hello("flood")
            victim = server._workers[0]
            results = victim.results.fileno()
            fcntl.fcntl(results, fcntl.F_SETPIPE_SZ, page)
            capacity = fcntl.fcntl(results, fcntl.F_GETPIPE_SZ)
            assert capacity == page
            os.kill(victim.process.pid, signal.SIGSTOP)
            for _ in range(segments):
                flood.send_segment(frame)
            wait_for(lambda: victim.in_flight == segments,
                     "every segment to be routed to the stopped worker")

            levels = []

            def channel_full() -> bool:
                # Full once the fill level holds still above half the
                # capacity for 0.3 s: the worker is blocked mid-write.
                count = array("i", [0])
                fcntl.ioctl(results, termios.FIONREAD, count)
                levels.append(count[0])
                recent = levels[-16:]
                return (len(recent) == 16 and len(set(recent)) == 1
                        and recent[0] > capacity // 2)

            with server._mu:
                os.kill(victim.process.pid, signal.SIGCONT)
                wait_for(channel_full, "the worker's result channel to fill",
                         timeout=30)
                victim.process.kill()
                victim.process.join(timeout=10)
            wait_for(lambda: server.status()["worker_failures"] == 1,
                     "the supervisor to notice the killed worker")
            with TelemetryClient(address) as client:
                result = client.submit_log(log_b, segment_events=16)
            ack = flood.end_log(segments)
            body = flood.report()
            status = flood.status()
            flood.close()
        assert result.races == offline_reference(log_b).num_static
        assert ack["races"] == 0
        assert status["clients_completed"] == 2
        assert status["clients_aborted"] == 0
        assert body["report"] == offline_wire(log_b)

    def test_shard_lag_recovers_after_worker_dies_with_backlog(
            self, fleet_logs):
        """A worker killed while holding un-acked segments must not leave
        them in ``shard_lag``: its backlog is written off at death and
        replayed, and counted, on the worker that takes its clients.  The
        backlog fills the stopped worker's cap and no more, since the
        next segment would wait for room."""
        _, log_b = fleet_logs
        reference = offline_reference(log_b)
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_b).events
        frames = split_log(ordered, segment_events=18)
        assert len(frames) == 20
        backlog = 8
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2,
                             queue_depth=backlog) as server:
            client = TelemetryClient(address).connect()
            client_id = client.hello("stalled")
            owner = server._clients[client_id].owner
            pid = server._workers[owner].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                for frame in frames[:backlog]:
                    client.send_segment(frame)
                wait_for(lambda: client.status()["shard_lag"][str(owner)]
                         == backlog, "the stopped worker's backlog")
            finally:
                os.kill(pid, signal.SIGKILL)
            wait_for(lambda: client.status()["worker_failures"] == 1,
                     "the worker death")
            for frame in frames[backlog:]:
                client.send_segment(frame)
            ack = client.end_log(len(frames))
            deadline = time.monotonic() + 5
            while True:
                status = client.status()
                if (all(lag == 0 for lag in status["shard_lag"].values())
                        or time.monotonic() > deadline):
                    break
                time.sleep(0.05)
            client.close()
        assert status["clients_pending"] == 0
        assert status["shard_lag"] == {"0": 0, "1": 0}
        assert ack["races"] == reference.num_static

    def test_process_exits_after_a_worker_dies_with_a_full_queue(self):
        """A worker killed with more sent to it than a pipe holds, while a
        connection thread is blocked writing into its full input pipe: the
        clients still finish on the replacement, and the server's process
        must still exit once the server stops."""
        script = textwrap.dedent("""
            import os, signal, tempfile, threading, time
            from repro.core.literace import LiteRace
            from repro.detector.merge import merge_thread_logs
            from repro.eventlog.log import EventLog
            from repro.eventlog.segment import split_log
            from repro.service import TelemetryClient, TelemetryServer
            from repro.workloads.synthetic import random_program

            log = LiteRace(sampler="Full", seed=2).profile(
                random_program(3))[1]
            ordered = EventLog()
            ordered.events = merge_thread_logs(log).events
            frames = split_log(ordered, segment_events=256)
            address = "unix:" + os.path.join(
                tempfile.mkdtemp(prefix="reprosvc-", dir="/tmp"), "sock")
            with TelemetryServer([address], workers=1) as server:
                worker = server._workers[0]
                pid = worker.process.pid
                os.kill(pid, signal.SIGSTOP)
                clients = []

                def flood():
                    queued = 0
                    while queued < 4 * 65536:  # well past a pipe's capacity
                        client = TelemetryClient(address).connect()
                        client.hello("backlog")
                        clients.append(client)
                        for frame in frames:
                            client.send_segment(frame)
                            queued += len(frame)

                sender = threading.Thread(target=flood)
                sender.start()
                # The pipe is full once a connection thread holds its send
                # lock for good, blocked mid-write.
                held = 0
                while held < 10:
                    held = held + 1 if worker.send_lock.locked() else 0
                    time.sleep(0.03)
                os.kill(pid, signal.SIGKILL)
                sender.join()
                while server.status()["worker_failures"] == 0:
                    time.sleep(0.05)
                for client in clients:
                    client.end_log(len(frames))
                    client.close()
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_last_worker_death_spawns_replacement(self, fleet_logs):
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            client = TelemetryClient(address).connect()
            client.hello("survivor")
            server._workers[0].process.terminate()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.status()["worker_failures"]:
                    break
                time.sleep(0.05)
            result = client.submit_log(log_a, segment_events=8)
            status = client.status()
            client.close()
        assert status["worker_failures"] == 1
        assert status["workers_alive"] == 1
        assert result.races == offline_reference(log_a).num_static

    def test_connection_ends_after_the_last_worker_is_replaced(self):
        """The replacement for the last worker is forked from the daemon
        while a connection is open; the server must still end the
        connection when it drops the client."""
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(5.0)
            try:
                raw.connect(parse_address(address)[1])
                # A STATUS round trip: the connection is accepted and
                # served before the worker dies.
                send_frame(raw, T_STATUS, b"")
                assert recv_frame(raw)[0] == T_OK
                server._workers[0].process.kill()
                wait_for(lambda: server.status()["worker_failures"] == 1,
                         "the replacement worker")
                # A length over MAX_FRAME_BYTES: the server drops the
                # connection without a reply.
                raw.sendall(struct.pack("<IB", 0xFFFFFFFF, T_STATUS))
                started = time.monotonic()
                try:
                    data = raw.recv(1)
                except socket.timeout:
                    data = None
                waited = time.monotonic() - started
            finally:
                raw.close()
            status = server.status()
        assert data == b"", f"no EOF after {waited:.1f} s"
        assert status["protocol_errors"] == 1
        assert status["workers_alive"] == 1

    def test_replacement_worker_holds_no_daemon_socket(self, fleet_logs):
        """A replacement worker is forked from the running daemon, so it
        starts with a copy of the listener and of every open connection;
        it must close them, or a client's connection outlives the
        daemon's end of it."""
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"

        def socket_inodes(pid) -> set:
            inodes = set()
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                except OSError:
                    continue  # closed while listing
                if target.startswith("socket:["):
                    inodes.add(int(target[len("socket:["):-1]))
            return inodes

        with TelemetryServer([address], workers=1) as server:
            raws = []
            try:
                for _ in range(5):
                    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    raws.append(raw)
                    raw.settimeout(5.0)
                    raw.connect(parse_address(address)[1])
                    # A STATUS round trip: the connection is accepted.
                    send_frame(raw, T_STATUS, b"")
                    assert recv_frame(raw)[0] == T_OK
                server._workers[0].process.kill()
                wait_for(lambda: server.status()["worker_failures"] == 1,
                         "the replacement worker")
                with server._mu:
                    daemon = {os.fstat(s.fileno()).st_ino
                              for s in server._listeners
                              + list(server._connections)}
                # A log analyzed on the replacement: it has passed its
                # start-up, where it closes what it inherited.
                with TelemetryClient(address) as client:
                    result = client.submit_log(log_a, segment_events=64)
                held = socket_inodes(server._workers[0].process.pid)
            finally:
                for raw in raws:
                    raw.close()
        assert result.races == offline_reference(log_a).num_static
        assert len(daemon) == 6  # the listener and the five connections
        assert held & daemon == set()

    def test_torn_connection_never_corrupts_server_state(self, fleet_logs):
        log_a, _ = fleet_logs
        reference = offline_reference(log_a)
        address = f"unix:{short_socket_path()}"
        path = parse_address(address)[1]
        with TelemetryServer([address], workers=1) as server:
            # A connection that dies mid-frame: claims 100 payload bytes,
            # delivers 2, vanishes.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(path)
            raw.sendall(struct.pack("<IB", 100, 2) + b"xx")
            raw.close()
            # A client that HELLOs, streams half a log, and vanishes.
            half_client = TelemetryClient(address).connect()
            half_client.hello("vanishes")
            ordered = EventLog()
            ordered.events = merge_thread_logs(log_a).events
            half_client.send_segment(
                split_log(ordered, segment_events=8)[0])
            half_client.close()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with TelemetryClient(address) as probe:
                    status = probe.status()
                if status["connections_torn"] and status["clients_aborted"]:
                    break
                time.sleep(0.05)
            # The server keeps serving, and the aborted half-log never
            # leaks into the fleet report.
            with TelemetryClient(address) as client:
                result = client.submit_log(log_a, segment_events=16)
                body = client.report()
        assert status["connections_torn"] >= 1
        assert status["clients_aborted"] == 1
        assert result.races == reference.num_static
        assert wire_occurrences(body) == reference.occurrences

    def test_segment_before_hello_is_a_protocol_error(self):
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                with pytest.raises(ProtocolError, match="HELLO"):
                    client.send_segment(b"LTRS")
                status = client.status()
        assert status["protocol_errors"] >= 1

    def test_malformed_segment_rejected_before_ingest(self):
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                client.hello("bad")
                with pytest.raises(ProtocolError, match="bad segment"):
                    client.send_segment(b"not a segment at all")
                status = client.status()
        assert status["segments_ingested"] == 0

    def test_poisoned_payload_does_not_kill_worker(self, fleet_logs):
        """A segment whose *outer* frame is valid but whose payload is
        corrupt (bad zlib, truncated event packing) passes the server's
        pre-check; the worker must skip it, not die — a worker death here
        would replay the same poisoned segment forever."""
        log_a, _ = fleet_logs
        reference = offline_reference(log_a)
        address = f"unix:{short_socket_path()}"
        # flags=1 claims zlib, but the payload does not inflate.
        bad_zlib = struct.pack("<4sHHII", b"LTRS", 2, 1, 1, 8) + b"!garbage"
        # flags=0, claims 2 events, payload too short for even one.
        truncated = struct.pack("<4sHHII", b"LTRS", 2, 0, 2, 3) + b"\x00" * 3
        with TelemetryServer([address], workers=1) as server:
            poisoner = TelemetryClient(address).connect()
            poisoner.hello("poison")
            poisoner.send_segment(bad_zlib)
            poisoner.send_segment(truncated)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status = poisoner.status()
                if status["segment_errors"] >= 2:
                    break
                time.sleep(0.05)
            poisoner.close()
            # The worker survived and still analyzes honest submissions.
            with TelemetryClient(address) as client:
                result = client.submit_log(log_a, segment_events=16)
        assert status["segment_errors"] == 2
        # A rejected segment is answered too: it leaves no lag behind.
        assert status["shard_lag"] == {"0": 0}
        assert status["worker_failures"] == 0
        assert result.races == reference.num_static

    def test_journal_released_once_client_completes(self, fleet_logs):
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                client.hello("journal")
                # A completed client leaves _clients: hold its state now.
                state = server._clients[1]
                client.submit_log(log_a, segment_events=8)
            assert state.completed.is_set()
            assert 1 not in server._clients
            # Raw segment payloads are only needed for crash replay, which
            # skips completed clients — keeping them would grow server
            # memory with every log the daemon ever ingests.
            assert state.journal == []

    def test_snapshot_failure_does_not_kill_collector(self, fleet_logs,
                                                      monkeypatch, tmp_path):
        log_a, _ = fleet_logs
        reference = offline_reference(log_a)
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=1,
                                 state_dir=str(tmp_path / "state"),
                                 finalize_timeout=10.0)
        with server:
            def boom():
                raise OSError("disk full")

            monkeypatch.setattr(server, "_write_snapshot", boom)
            # Both submissions complete: the worker's reader thread
            # survives the failed snapshot writes and keeps processing
            # reports.
            with TelemetryClient(address) as client:
                first = client.submit_log(log_a, segment_events=16)
            with TelemetryClient(address) as client:
                second = client.submit_log(log_a, segment_events=16)
                status = client.status()
        assert first.races == reference.num_static
        assert second.races == reference.num_static
        assert status["snapshot_errors"] == 2
        assert status["clients_completed"] == 2

    def test_finalize_timeout_reclaims_client_state(self, fleet_logs,
                                                    monkeypatch):
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=1, finalize_timeout=0.3)
        with server:
            # Swallow the finalize so completion never arrives and END
            # must time out.
            monkeypatch.setattr(server, "_route_end", lambda client_id: None)
            client = TelemetryClient(address).connect()
            client.hello("stuck")
            # An aborted client leaves _clients: hold its state now.
            state = server._clients[1]
            ordered = EventLog()
            ordered.events = merge_thread_logs(log_a).events
            client.send_segment(split_log(ordered, segment_events=64)[0])
            with pytest.raises(ProtocolError, match="finalize timed out"):
                client.end_log(1)
            # The stuck state is reclaimed instead of leaking: aborted,
            # out of clients_pending, journal released.
            assert 1 not in server._clients
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if state.journal == []:
                    break
                time.sleep(0.05)
            status = client.status()
            client.close()
        assert state.aborted
        assert state.journal == []
        assert status["clients_aborted"] == 1
        assert status["clients_pending"] == 0

    def test_end_with_non_numeric_segments_is_protocol_error(self):
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                client.hello("fuzzer")
                # Must get an ERR reply (not a dropped connection) and be
                # counted like every other malformed-message path.
                with pytest.raises(ProtocolError, match="integer"):
                    client._request_json(T_END, {"segments": "x"})
                status = client.status()
        assert status["protocol_errors"] == 1
        assert status["clients_completed"] == 0


    def test_stop_wakes_the_accept_threads(self):
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address, "tcp:127.0.0.1:0"], workers=1)
        server.start()
        accept_threads = [t for t in server._threads
                          if t.name.startswith("telemetry-accept")]
        assert len(accept_threads) == 2
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert [t.name for t in accept_threads if t.is_alive()] == []

    def test_stop_returns_while_a_write_blocks_on_a_stopped_worker(self):
        """A connection thread blocked writing a segment into a stopped
        worker's full input pipe holds up neither stop() nor the worker's
        end."""
        # Larger than a pipe holds, so its write cannot finish while the
        # worker is stopped.
        frame = encode_segment([MemoryEvent(0, 0x10 + 8 * (i % 64), 1, True)
                                for i in range(1 << 17)])
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=1)
        server.start()
        worker = server._workers[0]
        client = TelemetryClient(address).connect()

        def send():
            try:
                client.send_segment(frame)
            except (ProtocolError, OSError):
                pass  # the server shut the connection down

        os.kill(worker.process.pid, signal.SIGSTOP)
        try:
            client.hello("blocked")
            sender = threading.Thread(target=send, daemon=True)
            sender.start()
            wait_for(lambda: server.status()["segments_ingested"] == 1,
                     "the segment to be routed")
            time.sleep(0.3)
            assert worker.send_lock.locked()
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            sender.join(timeout=10)
        finally:
            server.stop()  # a no-op once stopped
            client.close()
        assert elapsed < 5.0
        assert not worker.process.is_alive()
        assert not sender.is_alive()


class TestClientLifecycle:
    """A client leaves ``_clients`` when it completes or is aborted, so
    ``_clients`` holds exactly the pending clients; its connection keeps
    the state for what still needs it."""

    def test_finished_clients_leave_the_server(self, fleet_logs,
                                               monkeypatch):
        """After 50 completed clients, 3 torn mid-stream and 1 END time-out
        nothing is pending, and every torn client's owner was told to
        discard it."""
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frame = split_log(ordered, segment_events=64)[0]
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=2, finalize_timeout=1.0)
        with server:
            discards = set()
            for index, worker in enumerate(server._workers):
                def spy(message, *args, _index=index, _put=worker.in_queue.put,
                        **kwargs):
                    if message[0] == "discard":
                        discards.add((_index, message[1]))
                    return _put(message, *args, **kwargs)

                monkeypatch.setattr(worker.in_queue, "put", spy)
            for _ in range(50):
                with TelemetryClient(address) as client:
                    client.submit_log(log_a, segment_events=64)
            assert server._clients == {}

            owners = {}
            for _ in range(3):
                torn = TelemetryClient(address).connect()
                client_id = torn.hello("torn")
                owners[client_id] = server._clients[client_id].owner
                torn.send_segment(frame)
                torn.close()
            wait_for(lambda: all((owner, client_id) in discards
                                 for client_id, owner in owners.items()),
                     "a discard at each torn client's owner")

            # Swallow the finalize so END times out.
            monkeypatch.setattr(server, "_route_end", lambda client_id: None)
            with TelemetryClient(address) as stuck:
                stuck.hello("stuck")
                stuck.send_segment(frame)
                with pytest.raises(ProtocolError, match="timed out"):
                    stuck.end_log(1)
                status = stuck.status()
            with server._mu:
                clients = dict(server._clients)
            pending = pending_clients(server)
        assert clients == {}
        assert pending == [0, 0]
        assert status["clients_pending"] == 0
        assert status["clients_completed"] == 50
        assert status["clients_aborted"] == 4

    def test_segment_and_end_after_end_are_refused(self, fleet_logs):
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frame = split_log(ordered, segment_events=64)[0]
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                result = client.submit_log(log_a, segment_events=16)
                with pytest.raises(ProtocolError, match="SEGMENT after END"):
                    client.send_segment(frame)
                with pytest.raises(ProtocolError, match="END after END"):
                    client.end_log(result.segments)
                # The connection is still served.
                status = client.status()
        assert status["protocol_errors"] == 2
        assert status["segments_ingested"] == result.segments
        assert status["clients_completed"] == 1
        assert status["clients_pending"] == 0
        assert result.races == offline_reference(log_a).num_static

    def test_second_hello_mid_stream_is_refused(self, fleet_logs):
        """A HELLO while the connection's client is mid-stream would orphan
        that client, pending for the daemon's whole life; it gets an ERR
        and the open client carries on.  After the client completes, a
        HELLO opens a new one."""
        log_a, log_b = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frames = split_log(ordered, segment_events=4)
        assert len(frames) > 1
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2) as server:
            with TelemetryClient(address) as client:
                first_id = client.hello("first")
                client.send_segment(frames[0])
                with pytest.raises(ProtocolError, match="mid-stream"):
                    client.hello("second")
                for frame in frames[1:]:
                    client.send_segment(frame)
                ack = client.end_log(len(frames))
                second_id = client.hello("second")
                result = client.submit_log(log_b, segment_events=64)
                status = client.status()
                body = client.report()
            with server._mu:
                clients = dict(server._clients)
            pending = pending_clients(server)
        assert (first_id, second_id) == (1, 2)
        assert result.client_id == second_id
        assert ack["races"] == offline_reference(log_a).num_static
        assert status["protocol_errors"] == 1
        assert status["clients_total"] == 2
        assert status["clients_completed"] == 2
        assert status["clients_pending"] == 0
        assert clients == {}
        assert pending == [0, 0]
        assert body["report"] == offline_wire(log_a, log_b)

    def test_hello_after_an_aborted_client_is_allowed(self, fleet_logs,
                                                      monkeypatch):
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frame = split_log(ordered, segment_events=64)[0]
        address = f"unix:{short_socket_path()}"
        server = TelemetryServer([address], workers=1, finalize_timeout=1.0)
        route_end = server._route_end
        with server:
            monkeypatch.setattr(server, "_route_end", lambda client_id: None)
            with TelemetryClient(address) as client:
                client.hello("stuck")
                client.send_segment(frame)
                with pytest.raises(ProtocolError, match="timed out"):
                    client.end_log(1)
                monkeypatch.setattr(server, "_route_end", route_end)
                retry_id = client.hello("retry")
                result = client.submit_log(log_a, segment_events=64)
                status = client.status()
        assert retry_id == result.client_id == 2
        assert result.races == offline_reference(log_a).num_static
        assert status["protocol_errors"] == 0
        assert status["clients_aborted"] == 1
        assert status["clients_completed"] == 1
        assert status["clients_pending"] == 0


class TestWorkerLoop:
    """:func:`worker_main` driven in-process, as the benchmark replays it."""

    def test_poisoned_frame_is_answered_for_its_own_seq(self, fleet_logs):
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        good = split_log(ordered, segment_events=8)[:2]
        bad = bytearray(encode_segment([
            MemoryEvent(0, 0x10, 1, True),
            SyncEvent(0, SyncKind.LOCK, ("mutex", 1), 1, 2)]))
        bad[16 + 13] = 0x7F  # the sync record's kind code
        inbox, outbox = queue.Queue(), queue.Queue()
        for seq, frame in enumerate((good[0], bytes(bad), good[1])):
            inbox.put(("segment", 7, seq, frame))
        inbox.put(("finalize", 7))
        inbox.put(("stop",))
        worker_main(3, inbox, outbox)
        messages = []
        while not outbox.empty():
            messages.append(outbox.get())

        offline = FlatDetector("hb")
        counts = []
        for frame in good:
            cols, _ = decode_segment_columns(frame)
            offline.feed_batch(cols)
            counts.append(cols.count)
        assert messages == [
            ("ack", 3, 7, 0, counts[0]),
            ("error", 3, 7, 1, "bad segment: bad sync kind code 127"),
            ("ack", 3, 7, 2, counts[1]),
            ("report", 3, 7, report_to_wire(offline.report), 2),
        ]

    def test_end_of_input_stops_the_worker(self, fleet_logs):
        """On a pipe, the server closing its end stops the worker once it
        has answered what the pipe still held."""
        log_a, _ = fleet_logs
        ordered = EventLog()
        ordered.events = merge_thread_logs(log_a).events
        frame = split_log(ordered, segment_events=64)[0]
        inbox, sender = multiprocessing.Pipe(duplex=False)
        sender.send(("segment", 7, 0, frame))
        sender.close()
        outbox = queue.Queue()
        worker_main(3, _PipeEnd(inbox), outbox)
        inbox.close()
        assert outbox.get_nowait()[:4] == ("ack", 3, 7, 0)
        assert outbox.empty()


# -- persistence and the live sink -----------------------------------------

class TestStateAndSink:
    def test_rolling_state_survives_restart(self, fleet_logs, tmp_path):
        log_a, _ = fleet_logs
        reference = offline_reference(log_a)
        state_dir = str(tmp_path / "state")
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1,
                             state_dir=state_dir) as server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=16)
        assert os.path.exists(os.path.join(state_dir, "report.json"))
        with TelemetryServer([address], workers=1,
                             state_dir=state_dir) as server:
            with TelemetryClient(address) as client:
                body = client.report()
                status = client.status()
        assert wire_occurrences(body) == reference.occurrences
        # STATUS counts the restored races without re-merging the fleet.
        assert status["races_found"] == body["num_static"] > 0

    def test_snapshot_holds_a_client_once_its_submit_returns(
            self, fleet_logs, tmp_path):
        """The snapshot is written before END is answered, so a client
        whose submission returned is on disk even if the daemon dies the
        next moment."""
        log_a, log_b = fleet_logs
        path = os.path.join(str(tmp_path / "state"), "report.json")
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2,
                             state_dir=str(tmp_path / "state")) as server:
            on_disk = []
            for log in (log_a, log_b):
                with TelemetryClient(address) as client:
                    client.submit_log(log, segment_events=32)
                with open(path, "r", encoding="utf-8") as handle:
                    on_disk.append(json.load(handle)["report"])
        assert on_disk == [offline_wire(log_a), offline_wire(log_a, log_b)]

    def test_live_sink_matches_offline_analysis_of_same_run(self):
        program = random_program(11)
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=2) as server:
            client = TelemetryClient(address)
            sink = TelemetrySink(client, name="live", segment_events=64)
            tool = LiteRace(sampler="Full", seed=4)
            _, log = tool.profile(program, sink=sink)
            ack = sink.close()
            body = client.report()
            client.close()
        # The sink streamed exactly the run's event stream in temporal
        # order, so the server must agree with a detector fed that exact
        # stream — occurrence counts included.
        reference = detect_races(log.events)
        assert sink.events_sent == len(log.events)
        assert ack["races"] == reference.num_static
        assert wire_occurrences(body) == reference.occurrences

    def test_suppressions_filter_fleet_report(self, fleet_logs):
        from repro.core.suppressions import SuppressionList

        log_a, _ = fleet_logs
        program = two_thread_racer()
        rules = SuppressionList.parse("* <-> *  # silence everything\n")
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1, program=program,
                             suppressions=rules) as server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=16)
                body = client.report()
        assert body["num_static"] == 0
        assert body["suppressed"] == offline_reference(log_a).num_static


class TestVerdicts:
    """Validation verdicts ride the telemetry channel: submitted rows
    annotate the fleet report, survive snapshot/restart, and merge by
    strength (CONFIRMED beats INFEASIBLE beats UNCONFIRMED)."""

    def _race_keys(self, body):
        return [tuple(sorted(row["pcs"]))
                for row in body["report"]["races"]]

    def test_verdict_round_trip_annotates_report(self, fleet_logs):
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=16)
                keys = self._race_keys(client.report())
                assert keys
                rows = [{"pcs": list(keys[0]), "verdict": "confirmed"}]
                assert client.submit_verdicts(rows) == 1
                body = client.report()
                status = client.status()
        annotated = {tuple(sorted(row["pcs"])): row.get("verdict")
                     for row in body["report"]["races"]}
        assert annotated[keys[0]] == "confirmed"
        assert all(verdict is None for key, verdict in annotated.items()
                   if key != keys[0])
        assert status["verdicts_known"] == 1
        assert status["verdicts_received"] == 1

    def test_merge_keeps_strongest_verdict(self, fleet_logs):
        log_a, _ = fleet_logs
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=16)
                key = self._race_keys(client.report())[0]
                client.submit_verdicts(
                    [{"pcs": list(key), "verdict": "confirmed"}])
                # A later, weaker report must not downgrade the verdict.
                client.submit_verdicts(
                    [{"pcs": list(key), "verdict": "unconfirmed"}])
                body = client.report()
        row = {tuple(sorted(r["pcs"])): r.get("verdict")
               for r in body["report"]["races"]}
        assert row[key] == "confirmed"

    def test_verdicts_survive_snapshot_restart(self, fleet_logs, tmp_path):
        log_a, _ = fleet_logs
        state_dir = str(tmp_path / "state")
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1,
                             state_dir=state_dir) as server:
            with TelemetryClient(address) as client:
                client.submit_log(log_a, segment_events=16)
                key = self._race_keys(client.report())[0]
                client.submit_verdicts(
                    [{"pcs": list(key), "verdict": "infeasible"}])
        with TelemetryServer([address], workers=1,
                             state_dir=state_dir) as server:
            with TelemetryClient(address) as client:
                body = client.report()
                status = client.status()
        row = {tuple(sorted(r["pcs"])): r.get("verdict")
               for r in body["report"]["races"]}
        assert row[key] == "infeasible"
        assert status["verdicts_known"] == 1

    def test_malformed_verdict_rows_rejected(self):
        address = f"unix:{short_socket_path()}"
        with TelemetryServer([address], workers=1) as server:
            with TelemetryClient(address) as client:
                with pytest.raises(ProtocolError):
                    client.submit_verdicts(
                        [{"pcs": [1, 2], "verdict": "maybe"}])
