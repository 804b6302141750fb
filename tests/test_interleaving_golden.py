"""Golden interleavings: executions are pinned across commits, not just runs.

``tests/test_determinism.py`` compares two runs of the *same* code, so a
refactor of the executor or a scheduler that changes which thread steps
when would still pass it.  The digests below are compared on every run:
each covers one profiled execution end to end — the recorded scheduler
decisions, every logged event with all its fields in the global order,
every :class:`~repro.runtime.executor.RunResult` counter, the log size
and the offline race report.  The events are hashed as rows, not as
encoded bytes, so a new log format moves no digest.  ``GOLDEN`` was
recomputed when it stopped hashing the encoded logs, on the tree before
the logs became column blocks; ``MARKED_GOLDEN`` was computed before the
executor stopped rescanning every thread per step.  A mismatch means an
interleaving (or what was logged or detected on it) changed; if that
change is intended, say so and recompute the table with
``python tests/test_interleaving_golden.py``.

``ProfilingHarness`` never overrides ``Harness.exit_function``, so those
digests cannot see when the executor reports a return.  The §5.3 marked
run can: :class:`~repro.core.harness.MarkedHarness` pops its per-thread
mask stack there, and a return reported one instruction late puts the
wrong sampler mask on the next memory event.  ``MARKED_GOLDEN`` pins
``run_marked`` over every sampler of the paper's figures on the same
executions, event by event with masks, plus every ``RunResult`` field.

Every digested run wraps its policy in a ``RecordingScheduler``, which the
executor asks before every step.  A bare ``RandomInterleaver`` hands the
executor its preemption test and is asked only when a slice starts, so the
``slices`` tests re-run each random case bare and require the same bytes
(``tests/test_slice_parity.py`` does the same on every workload).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array

import pytest

from repro import workloads
from repro.core.literace import LiteRace, run_marked
from repro.core.samplers import SAMPLER_ORDER
from repro.eventlog.events import SyncEvent
from repro.runtime.scheduler import RandomInterleaver, RoundRobinScheduler
from repro.validate.trace import RecordingScheduler

SEED = 1
SCALE = 0.02
WORKLOADS = ("apache-1", "concrt-scheduling", "lkrhash", "kv-store")
SAMPLERS = ("TL-Ad", "Full")
POLICIES = {
    "random": lambda: RandomInterleaver(seed=SEED),
    "round-robin": lambda: RoundRobinScheduler(quantum=7),
}

GOLDEN = {
    "apache-1/TL-Ad/random":
        "2001689f1702fa105b4aebb22ea35ec7880312b602c482da604852e57477f7e7",
    "apache-1/TL-Ad/round-robin":
        "900b8c350f8669bfb2ed20a4d45189ea1d422bf26efeb61f4d4681d0e3d2fb28",
    "apache-1/Full/random":
        "3bc0720d864649647c0405e1d85d103037da79196ca7553c321a4d153a2ba01c",
    "apache-1/Full/round-robin":
        "1ffa77ac35020b4d576427f08bc5455c54fdc47eacf46a26a54531a991b4d12f",
    "concrt-scheduling/TL-Ad/random":
        "022ddef031df2cc3d26e130553912a4e96a1bcf050b83101e50ac1c92a64e114",
    "concrt-scheduling/TL-Ad/round-robin":
        "349190cbdd9b1f85c04a0db030225356ec5f6aa7d727a6df1ca4c97a99d6eb2d",
    "concrt-scheduling/Full/random":
        "528d8439cfe07a62f8a1fd20d0fc7949c14e8b2e3ef5702b8c3ec92676cdcc1f",
    "concrt-scheduling/Full/round-robin":
        "f8e9bf7a6dffe2275fd71cbc19b0f17089da81a75dc860e7a2130bf4091a4e06",
    "lkrhash/TL-Ad/random":
        "4806329d6690a78b207d62725fe33a5cbad326a23d21d57c4afd506ab165edc1",
    "lkrhash/TL-Ad/round-robin":
        "42eeafb222477a70353ea3816309fdc4e7c4c4cdfbf82536462545e033c1d54e",
    "lkrhash/Full/random":
        "76ca99daa15e5aaab15fafc51476bd45eecdd6a28aef331b58278c7c079b3de5",
    "lkrhash/Full/round-robin":
        "c5d7ee9dfc623c230e1f78422d5cf137135cfeea366e07f903bc37567d230ae1",
    "kv-store/TL-Ad/random":
        "ededcf9b76f2d6ea49f2da8b91091d8d6692cb8b5ccde0a91a21d4eca2d5358e",
    "kv-store/TL-Ad/round-robin":
        "2a5e2d386f6e798e847e24b80a2d5f13d90c177b0003292af0121940719190aa",
    "kv-store/Full/random":
        "110aede70b265b068a38982a11ce4eb2942a5c05eaef609432fad661a75bbeed",
    "kv-store/Full/round-robin":
        "09c0f32c8dbfe4d365c4d2217b7acedbefb8eb495e8190dfbc29625b020bf25f",
}

MARKED_GOLDEN = {
    "apache-1/random":
        "73e9a8499f0dc88436d099a2b70e282ae3abe9e05a37f1963ead3ec66a31d55d",
    "apache-1/round-robin":
        "6241bfb91c079c6e42c40c66accbf4af72061f4d0da446d36d749924b8ddaf83",
    "concrt-scheduling/random":
        "8a99c90e5ca8b00b3603bf8095de034f2b4d31c04eade2c1923abec881149e82",
    "concrt-scheduling/round-robin":
        "569e1b89b0963c299296de70c4211406a9670429269aa70a29f164e314632bda",
    "lkrhash/random":
        "da72b42e23add6bdc699bb2e41a2371a4bf4ccc2f93418af348cb68db6b26d02",
    "lkrhash/round-robin":
        "84b2dacf13383375d32d533dbbaea8926dfbbcbb20b66620ad787404d5f58959",
    "kv-store/random":
        "6d5a628e96794bbff55d1539e939ba23ad7c1edc155873e56d420f1361ea1ca4",
    "kv-store/round-robin":
        "5a4a4eaab424c63922fcff9c78c18f25f600e7417343b981afc33b00d47f94d0",
}


def _report_rows(report) -> list:
    return [
        sorted(report.occurrences.items()),
        sorted((key, dataclasses.astuple(example))
               for key, example in report.examples.items()),
        sorted(report.addresses),
    ]


def _counters(run) -> dict:
    counters = dataclasses.asdict(run)
    counters["loop_iterations"] = sorted(counters["loop_iterations"].items())
    return counters


def _event_rows(log) -> list:
    return [("sync", e.tid, e.kind.value, e.var, e.timestamp, e.pc)
            if isinstance(e, SyncEvent) else
            ("memory", e.tid, e.addr, e.pc, e.is_write, e.mask)
            for e in log.events]


def profiled(workload: str, sampler: str, scheduler) -> list:
    """One profiled-and-analyzed execution as bytes: the logged events in
    global order, then the counters, merge count, log size and report."""
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    result = LiteRace(sampler=sampler, seed=SEED).run(program, scheduler)
    return [json.dumps(_event_rows(result.log)).encode("utf-8"),
            json.dumps([_counters(result.run), result.merge_inconsistencies,
                        result.log_bytes, _report_rows(result.report)],
                       sort_keys=True).encode("utf-8")]


def marked(workload: str, scheduler) -> bytes:
    """One §5.3 marked execution as bytes: masked log, counters."""
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    run = run_marked(program, SAMPLER_ORDER, scheduler, seed=SEED)
    return json.dumps([_event_rows(run.log), _counters(run.run)],
                      sort_keys=True).encode("utf-8")


def digest(workload: str, sampler: str, policy: str) -> str:
    """sha256 of one profiled-and-analyzed execution."""
    recorder = RecordingScheduler(POLICIES[policy]())
    parts = profiled(workload, sampler, recorder)
    h = hashlib.sha256()
    h.update(array("I", recorder.decisions).tobytes())
    for part in parts:
        h.update(part)
    return h.hexdigest()


def marked_digest(workload: str, policy: str) -> str:
    """sha256 of one §5.3 marked execution: decisions, masked log, counters."""
    recorder = RecordingScheduler(POLICIES[policy]())
    body = marked(workload, recorder)
    h = hashlib.sha256()
    h.update(array("I", recorder.decisions).tobytes())
    h.update(body)
    return h.hexdigest()


CASES = [f"{w}/{s}/{p}" for w in WORKLOADS for s in SAMPLERS
         for p in POLICIES]
MARKED_CASES = [f"{w}/{p}" for w in WORKLOADS for p in POLICIES]


@pytest.mark.parametrize("case", CASES)
def test_execution_matches_golden_digest(case):
    assert digest(*case.split("/")) == GOLDEN[case]


@pytest.mark.parametrize("case", MARKED_CASES)
def test_marked_execution_matches_golden_digest(case):
    assert marked_digest(*case.split("/")) == MARKED_GOLDEN[case]


RANDOM_CASES = [f"{w}/{s}" for w in WORKLOADS for s in SAMPLERS]


@pytest.mark.parametrize("case", RANDOM_CASES)
def test_slices_run_the_recorded_execution(case):
    workload, sampler = case.split("/")
    recorded = profiled(workload, sampler,
                        RecordingScheduler(POLICIES["random"]()))
    assert profiled(workload, sampler, POLICIES["random"]()) == recorded


@pytest.mark.parametrize("workload", WORKLOADS)
def test_slices_run_the_recorded_marked_execution(workload):
    recorded = marked(workload, RecordingScheduler(POLICIES["random"]()))
    assert marked(workload, POLICIES["random"]()) == recorded


if __name__ == "__main__":  # pragma: no cover - regenerates the tables
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{case}":\n        "{digest(*case.split("/"))}",')
    print("}\n\nMARKED_GOLDEN = {")
    for case in MARKED_CASES:
        print(f'    "{case}":\n        "{marked_digest(*case.split("/"))}",')
    print("}")
