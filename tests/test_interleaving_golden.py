"""Golden interleavings: executions are pinned across commits, not just runs.

``tests/test_determinism.py`` compares two runs of the *same* code, so a
refactor of the executor or a scheduler that changes which thread steps
when would still pass it.  The digests below were computed before the
executor stopped rescanning every thread per step, and are compared on
every run: each covers one profiled execution end to end — the recorded
scheduler decisions, the encoded log in both wire formats, every
:class:`~repro.runtime.executor.RunResult` counter and the offline race
report.  A mismatch means an interleaving (or what was logged or detected
on it) changed; if that change is intended, say so and recompute the
table with ``python tests/test_interleaving_golden.py``.

``ProfilingHarness`` never overrides ``Harness.exit_function``, so those
digests cannot see when the executor reports a return.  The §5.3 marked
run can: :class:`~repro.core.harness.MarkedHarness` pops its per-thread
mask stack there, and a return reported one instruction late puts the
wrong sampler mask on the next memory event.  ``MARKED_GOLDEN`` pins
``run_marked`` over every sampler of the paper's figures on the same
executions, event by event with masks, plus every ``RunResult`` field.
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
from repro.eventlog.encode import encode_log
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
        "634ea58c98b57dd4f6365071135195196ca8f481cb60cd5a43dbf215394dba3f",
    "apache-1/TL-Ad/round-robin":
        "2a6fa0ae07d7e7917d3662c1edf1a14c1b476cd28c201efcacbb824691e066c9",
    "apache-1/Full/random":
        "ae7ef9d1757c32d57bc77080be0b5fd36daad3d1631554caae38fda69c80c136",
    "apache-1/Full/round-robin":
        "3d08a4074665aba655b87b24df8d2aa94d40d9f682afd84380bf303f649650d2",
    "concrt-scheduling/TL-Ad/random":
        "516e78bb8cb001e1e47be311751ac5593376f5c15a25543ecf42dd022c8fd2aa",
    "concrt-scheduling/TL-Ad/round-robin":
        "787ebca80e643739a86f023a231e2424028d10dd84cdf0a168cc60e7a04ee3e8",
    "concrt-scheduling/Full/random":
        "fe5d29d12f8f1c6dadfbaa3c5521546d8127bcd5998f968b088f9421ee01d027",
    "concrt-scheduling/Full/round-robin":
        "36b1347bd761040cb2ad2f0448fceaf18e811758ac48a49e057a66b9f47cf525",
    "lkrhash/TL-Ad/random":
        "07b0d96072c6420054a9f5404a6e07d928457245d13f4087b503d1db3a8c15ae",
    "lkrhash/TL-Ad/round-robin":
        "215ef9542f64ed87f8650dfda0f3fd9496c92e3b66fcc93c51f36e6016d4b855",
    "lkrhash/Full/random":
        "22dca810dc82deddb4268be2365beacb393b1a2e908d8621320e88f6f8b113e7",
    "lkrhash/Full/round-robin":
        "9e743fd8be1941d6f46b6063458f59b76ee6e8fa4c30f23130687621879db1b6",
    "kv-store/TL-Ad/random":
        "6ef1b75062a40f49b9c02cde21c5fe3d006572f612eec117a9d869c99297c378",
    "kv-store/TL-Ad/round-robin":
        "dabb3cfd74359f1e8b99894bad6ef47ac096e7389b1db92400d3b013bd580666",
    "kv-store/Full/random":
        "e8a15765ee8653165418733c66d46a157f3453aa40e521a37bd7968dfc104481",
    "kv-store/Full/round-robin":
        "664d46be8d055092d64a7b15c62912563ec3dcc97c54b76fc452bec8c6887937",
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


def digest(workload: str, sampler: str, policy: str) -> str:
    """sha256 of one profiled-and-analyzed execution."""
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    recorder = RecordingScheduler(POLICIES[policy]())
    result = LiteRace(sampler=sampler, seed=SEED).run(program, recorder)
    counters = _counters(result.run)
    h = hashlib.sha256()
    h.update(array("I", recorder.decisions).tobytes())
    # Both formats by number, so a new encode_log default moves nothing;
    # v2 also keeps the global event order, which v1 does not record.
    h.update(encode_log(result.log, version=1))
    h.update(encode_log(result.log, version=2))
    h.update(json.dumps([counters, result.merge_inconsistencies,
                         result.log_bytes, _report_rows(result.report)],
                        sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def marked_digest(workload: str, policy: str) -> str:
    """sha256 of one §5.3 marked execution: decisions, masked log, counters."""
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    recorder = RecordingScheduler(POLICIES[policy]())
    marked = run_marked(program, SAMPLER_ORDER, recorder, seed=SEED)
    h = hashlib.sha256()
    h.update(array("I", recorder.decisions).tobytes())
    h.update(json.dumps([_event_rows(marked.log), _counters(marked.run)],
                        sort_keys=True).encode("utf-8"))
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


if __name__ == "__main__":  # pragma: no cover - regenerates the tables
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{case}":\n        "{digest(*case.split("/"))}",')
    print("}\n\nMARKED_GOLDEN = {")
    for case in MARKED_CASES:
        print(f'    "{case}":\n        "{marked_digest(*case.split("/"))}",')
    print("}")
