"""The program names the benchmark harness looks up, checked in tier-1.

``perfbench/`` times the program from outside: ``spans.py`` wraps entry
points by attribute name, ``run.py`` reads ``FlatDetector('hb').kernel``,
and ``fleet.py::_replay_workers`` runs ``worker_main`` in-process with the
message shapes of the address-sharded worker.  A name deleted or renamed
in ``src/``, or a message it no longer parses, would otherwise fail only a
benchmark run, so this installs the wrappers on a fresh tracer, puts every
original back, reads ``kernel``, and replays ``worker_main`` as
``_replay_workers`` does.
"""

import importlib.util
import pathlib
import queue

import pytest

from repro.core.literace import LiteRace
from repro.detector.flat import FlatDetector
from repro.detector.merge import merge_thread_logs
from repro.eventlog.log import EventLog
from repro.eventlog.segment import segment_event_count, split_log
from repro.service.protocol import report_to_wire
from repro.service.shard import worker_main
from repro.workloads.synthetic import random_program, two_thread_racer

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_span_wrappers_find_every_name_and_restore_it():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install_layer_wrappers(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner!r}.{attr}"


def test_kernel_name_is_readable():
    assert FlatDetector("hb").kernel == "pure"


@pytest.mark.parametrize("worker_id", [0, 1])
def test_worker_replay_analyzes_each_whole_log(worker_id):
    """``_replay_workers`` sends each worker, as shard ``(worker_id,)`` of
    2, every frame of every client; each run must ack every frame and
    report each client's whole-log offline report."""
    logs = [LiteRace(sampler="Full", seed=1).profile(two_thread_racer())[1],
            LiteRace(sampler="Full", seed=2).profile(random_program(3))[1]]
    streams = []
    for log in logs:
        stream = EventLog()
        stream.events = merge_thread_logs(log).events
        streams.append(stream)
    clients = [split_log(stream, segment_events=64) for stream in streams]
    inbox, outbox = queue.Queue(), queue.Queue()
    for client_id, frames in enumerate(clients, 1):
        for seq, frame in enumerate(frames):
            inbox.put(("segment", client_id, seq, (worker_id,), frame))
        inbox.put(("finalize", client_id, (worker_id,)))
    inbox.put(("stop",))
    worker_main(worker_id, inbox, outbox, 2)
    messages = []
    while not outbox.empty():
        messages.append(outbox.get())

    expected = []
    for client_id, (frames, stream) in enumerate(zip(clients, streams), 1):
        offline = FlatDetector("hb").feed_all(stream.events).report
        assert offline.num_static >= 1
        expected += [("ack", worker_id, client_id, seq,
                      segment_event_count(frame))
                     for seq, frame in enumerate(frames)]
        expected.append(("report", worker_id, client_id,
                         report_to_wire(offline)))
    assert messages == expected
