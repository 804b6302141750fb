"""Golden ``repro analyze`` output: the offline triage path pinned across
commits.

``tests/test_interleaving_golden.py`` pins what ``LiteRace.run`` detects;
this file pins what the CLI prints for the same executions once they are
saved to disk with ``save_log`` defaults (the per-thread v1 format), so
the decode → timestamp merge → detect path behind ``repro analyze`` can be
rebuilt without changing a byte of its output.  The digests were computed
before that path went columnar.  One log is profiled with torn
(non-atomic) timestamps over four counters, which wedges the §4.2 replay
66 times, so the ``WARNING … inconsistencies`` line is pinned as well.

A mismatch means the printed report changed; if that change is intended,
say so and recompute the table with ``python tests/test_analyze_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from repro import workloads
from repro.__main__ import main
from repro.core.literace import LiteRace
from repro.eventlog.store import save_log

SEED = 1
SCALE = 0.02
WORKLOADS = ("apache-1", "concrt-scheduling", "lkrhash", "kv-store")
SAMPLERS = ("TL-Ad", "Full")
#: The torn-timestamp case: (workload, sampler, LiteRace keyword arguments).
TORN = ("lkrhash", "Full", {"atomic_timestamps": False, "num_counters": 4})
TORN_CASE = "lkrhash/Full/torn"

GOLDEN = {
    "apache-1/TL-Ad":
        "16367206d71b5d430569e7ff047c7faa770c40b6343c8466c65e0636a24595c0",
    "apache-1/Full":
        "c4c180dbe590ed1bc3442644aeb777054b94c8351bce2343ca58382070cd89bf",
    "concrt-scheduling/TL-Ad":
        "dc3b4b8a65a6c44f0221733e96bcd28a0de01bf5043a3002847093510817f8a9",
    "concrt-scheduling/Full":
        "14c1918b698ee79e49e6420fdec9ffee565aedf8ade4c2b8ffc35bd8f57bcb6a",
    "lkrhash/TL-Ad":
        "2e51b0f485a47a46665e7e8e103b7688f767d7ef71580884dd41a7552e02b640",
    "lkrhash/Full":
        "24c0e3f67141e82831a00a447fdfbe08e89eb49f13b53035f2a257a856f39feb",
    "kv-store/TL-Ad":
        "7903ce24a4fe462eef7487e9809564b27f212bb26573b009ddbbd213e62164a0",
    "kv-store/Full":
        "bc9625032c5bb69a43fda739f3e0b62440d2898eed592ee8944afa6cc01aca3a",
    "lkrhash/Full/torn":
        "5f4976d1e7e924919a28c74e84e534009aa0f0faaf7291fb5d892b717718462d",
}


def analyze_output(workload: str, sampler: str, **options) -> str:
    """``repro analyze`` stdout for one saved log, its path masked."""
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    _, log = LiteRace(sampler=sampler, seed=SEED, **options).profile(program)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ltrc")
        save_log(log, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["analyze", path])
    assert status == 0
    return out.getvalue().replace(path, "<log>")


def case_output(case: str) -> str:
    if case == TORN_CASE:
        workload, sampler, options = TORN
        return analyze_output(workload, sampler, **options)
    workload, sampler = case.split("/")
    return analyze_output(workload, sampler)


def digest(case: str) -> str:
    return hashlib.sha256(case_output(case).encode("utf-8")).hexdigest()


CASES = [f"{w}/{s}" for w in WORKLOADS for s in SAMPLERS] + [TORN_CASE]


@pytest.mark.parametrize("case", CASES)
def test_analyze_output_matches_golden_digest(case):
    assert digest(case) == GOLDEN[case]


def test_torn_log_prints_the_inconsistency_warning():
    lines = case_output(TORN_CASE).splitlines()
    assert "WARNING  : 66 timestamp inconsistencies during order " \
        "reconstruction" in lines


if __name__ == "__main__":  # pragma: no cover - regenerates the table
    for case in CASES:
        print(f'    "{case}":\n        "{digest(case)}",')
