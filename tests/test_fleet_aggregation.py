"""The running fleet report against the sorted re-merge it replaced.

``TelemetryServer`` folds each client into one running fleet report when
the client completes: counts add, addresses union, and each race keeps
the snapshot baseline's example, else the lowest client id's.  The
reference below is the aggregation that fold replaced, copied verbatim:
it re-merged the baseline and then every completed client in client-id
order on each REPORT and each snapshot write.  For hypothesis-drawn
client reports whose keys collide and whose examples differ, random
completion orders, aborted clients and restarts from the snapshot, with
and without a program and suppressions, the REPORT body and the
``report.json`` bytes must be the reference's.

The server is never started: each test drives the same calls HELLO, the
connection thread and the collector make (``_open_client``,
``_route_end``, ``_on_shard_report``, ``_abort``), with one stand-in
worker that never dies.
"""

from __future__ import annotations

import json
import os
import queue
import tempfile
from types import SimpleNamespace
from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.suppressions import SuppressionList
from repro.detector.races import RaceInstance, RaceReport
from repro.service import TelemetryServer
from repro.service.protocol import report_from_wire, report_to_wire
from repro.service.server import _Worker
from repro.workloads.synthetic import two_thread_racer


# -- an unstarted server ----------------------------------------------------

class _Alive:
    """A worker process that never dies."""

    def is_alive(self) -> bool:
        return True


def unstarted_server(state_dir: Optional[str] = None, program=None,
                     suppressions=None) -> TelemetryServer:
    """A server with one stand-in worker and its snapshot loaded, as
    ``start()`` leaves it, but with no process, socket or thread."""
    server = TelemetryServer(["unix:unused"], workers=1, state_dir=state_dir,
                             program=program, suppressions=suppressions)
    server._workers.append(_Worker(0, _Alive(), queue.SimpleQueue()))
    server._load_snapshot()
    return server


def complete(server: TelemetryServer, state, report: RaceReport) -> None:
    """END the client and deliver its one shard report, as the connection
    thread and the collector do."""
    with server._mu:
        server._route_end(state.client_id)
        server._on_shard_report(state.client_id, 0, report_to_wire(report))


def abort(server: TelemetryServer, state) -> None:
    with server._mu:
        server._abort(state)


# -- the reference: the sorted re-merge, verbatim ---------------------------

class SortedRemerge:
    """The aggregation state the fold replaced: the snapshot baseline and
    every client since start-up, completed ones carrying their report."""

    def __init__(self, baseline: RaceReport, program=None, suppressions=None):
        self._baseline_report = baseline
        self._clients: Dict[int, SimpleNamespace] = {}
        self._program = program
        self._suppressions = suppressions
        self._verdicts: Dict[tuple, str] = {}

    def _merged_report(self) -> RaceReport:
        """Fleet-wide deduped report, deterministic merge order (held _mu)."""
        merged = RaceReport()
        merged.merge(self._baseline_report)
        for client_id in sorted(self._clients):
            state = self._clients[client_id]
            if state.report is not None:
                merged.merge(state.report)
        return merged

    def report_body(self, completed: int, pending: int) -> dict:
        """``fleet_report()`` as it was, on the re-merged report."""
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
            "clients_completed": completed,
            "clients_pending": pending,
        }

    def snapshot_bytes(self) -> bytes:
        """What ``_write_snapshot`` wrote."""
        snapshot = {
            "report": report_to_wire(self._merged_report()),
            "verdicts": {f"{low},{high}": value
                         for (low, high), value in self._verdicts.items()},
        }
        return json.dumps(snapshot).encode("utf-8")


# -- strategies --------------------------------------------------------------

#: two_thread_racer's PCs, so every key symbolizes and "writer <-> *"
#: suppresses the keys that touch PC 0: 15 keys, so clients collide.
PCS = st.integers(min_value=0, max_value=4)

instances = st.builds(
    RaceInstance,
    addr=st.integers(min_value=0, max_value=7).map(lambda i: 0x100 + 8 * i),
    first_tid=st.integers(min_value=0, max_value=3),
    second_tid=st.integers(min_value=0, max_value=3),
    first_pc=PCS,
    second_pc=PCS,
    first_is_write=st.booleans(),
    second_is_write=st.booleans(),
)


@st.composite
def client_reports(draw) -> RaceReport:
    """A client's report of 1-8 races, each with its count and example."""
    examples = draw(st.lists(instances, min_size=1, max_size=8,
                             unique_by=lambda instance: instance.key))
    report = RaceReport()
    for example in examples:
        report.occurrences[example.key] = draw(
            st.integers(min_value=1, max_value=5))
        report.examples[example.key] = example
        report.addresses.add(example.addr)
    report.addresses.update(draw(st.sets(
        st.integers(min_value=0x100, max_value=0x140), max_size=3)))
    return report


#: one run of the daemon, restart to restart: each client's report, or
#: None for a client that is aborted instead of completing
lifetimes = st.lists(st.one_of(st.none(), client_reports()),
                     min_size=1, max_size=6)


# -- the differential test --------------------------------------------------

class TestRunningReport:
    @settings(max_examples=150, deadline=None)
    @given(runs=st.lists(lifetimes, min_size=1, max_size=4),
           mode=st.sampled_from(["plain", "program", "suppressed"]),
           data=st.data())
    def test_matches_the_sorted_remerge(self, runs, mode, data):
        program = suppressions = None
        if mode != "plain":
            program = two_thread_racer()
        if mode == "suppressed":
            suppressions = SuppressionList.parse("writer <-> *\n")
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as state_dir:
            path = os.path.join(state_dir, "report.json")
            baseline = RaceReport()
            for clients in runs:
                # A restart: the server reloads the snapshot and numbers
                # its clients from 1 again.
                server = unstarted_server(state_dir, program, suppressions)
                reference = SortedRemerge(baseline, program, suppressions)
                states = [server._open_client(f"c{i}")
                          for i in range(len(clients))]
                assert [s.client_id for s in states] == list(
                    range(1, len(clients) + 1))
                for state in states:
                    reference._clients[state.client_id] = SimpleNamespace(
                        report=None)
                order = data.draw(st.permutations(range(len(clients))),
                                  label="completion order")
                completed = 0
                for done, index in enumerate(order, start=1):
                    state, report = states[index], clients[index]
                    if report is None:
                        abort(server, state)
                    else:
                        complete(server, state, report)
                        reference._clients[state.client_id].report = report
                        completed += 1
                        with open(path, "rb") as handle:
                            assert handle.read() == reference.snapshot_bytes()
                    expected = reference.report_body(
                        completed, len(clients) - done)
                    assert server.fleet_report() == expected
                    assert server.status()["races_found"] == (
                        reference._merged_report().num_static)
                assert server._clients == {}
                # What the re-merging server reloaded at its restart.
                baseline = report_from_wire(
                    report_to_wire(reference._merged_report()))

    def test_lowest_client_id_keeps_the_example(self):
        """Client 2 completes first with its own example of a race; client
        1's example replaces it when client 1 completes, and the baseline's
        example, once there is one, beats both."""
        first = RaceInstance(0x100, 0, 1, 1, 2, True, False)
        second = RaceInstance(0x108, 2, 3, 2, 1, False, True)
        baseline = RaceInstance(0x110, 1, 2, 1, 2, True, True)

        def report_of(example):
            report = RaceReport()
            report.record(example)
            return report

        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as state_dir:
            server = unstarted_server(state_dir)
            one, two = server._open_client("one"), server._open_client("two")
            complete(server, two, report_of(second))
            assert server._fleet.examples[(1, 2)] == second
            complete(server, one, report_of(first))
            assert server._fleet.examples[(1, 2)] == first
            assert server._fleet.occurrences[(1, 2)] == 2

            with open(os.path.join(state_dir, "report.json"), "w") as handle:
                json.dump({"report": report_to_wire(report_of(baseline)),
                           "verdicts": {}}, handle)
            server = unstarted_server(state_dir)
            one = server._open_client("one")
            complete(server, one, report_of(first))
        assert server._fleet.examples[(1, 2)] == baseline
        assert server._fleet.occurrences[(1, 2)] == 2


# -- cost pins ---------------------------------------------------------------

def catalog_report(client_id: int) -> RaceReport:
    """Seven races from a fixed PC pool, examples varying by client."""
    report = RaceReport()
    for pc in range(7):
        report.record(RaceInstance(0x200 + 8 * (client_id % 5), client_id % 3,
                                   3, pc, pc + 10, True, client_id % 2 == 0))
    return report


class TestQueryCost:
    def test_merges_per_query_do_not_grow_with_clients_served(
            self, monkeypatch, tmp_path):
        """REPORT and the snapshot write read the running report: they make
        as many ``RaceReport.merge`` calls after 2,000 completed clients
        as after 10."""
        calls: List[int] = []
        merge = RaceReport.merge

        def counting_merge(self, other):
            calls.append(1)
            return merge(self, other)

        counts = []
        for served in (10, 2000):
            server = unstarted_server(str(tmp_path / f"state-{served}"))
            for _ in range(served):
                state = server._open_client(None)
                complete(server, state, catalog_report(state.client_id))
            monkeypatch.setattr(RaceReport, "merge", counting_merge)
            calls.clear()
            body = server.fleet_report()
            with server._mu:
                server._write_snapshot()
            counts.append(len(calls))
            monkeypatch.setattr(RaceReport, "merge", merge)
            assert body["clients_completed"] == served
            assert body["num_dynamic"] == 7 * served
            assert server._clients == {}
        assert counts[0] == counts[1]
