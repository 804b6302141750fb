"""Shared helpers: order statistics, memory readings and the result record."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import struct
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for sockets, logs and span dumps; gitignored.
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_spec() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, by name, in order."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int, wanted: float) -> float:
    """The highest percentile up to ``wanted`` with >= 10 samples beyond it.

    With too few samples for even that, the median is the best we have.
    """
    pct = wanted
    while pct > 50.0 and count * (100.0 - pct) / 100.0 < 10.0:
        pct -= 1.0
    return max(pct, 50.0)


#: Seconds :func:`host_speed` takes on the reference host (a quiet
#: 2-vCPU VM).  End-to-end times are reported at this host speed.
CALIBRATION_REFERENCE_S = 0.020


def host_speed(size: float = 1.0) -> float:
    """How slowly this host runs right now: 1.0 is the reference host.

    Other tenants of a shared host slow every process on it, for stretches
    from seconds to minutes, by up to half.  Timing a fixed pure-Python
    routine that uses no program code measures that slowdown, so a sample
    taken next to it can be scaled back to the reference speed.  The
    collector is off while it runs, so the reading does not depend on how
    many objects the program holds at the time.  ``size`` shrinks the
    routine for readings that must fit in a short gap.
    """
    count = int(30000 * size)
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for i in range(count):
            table[(i * 2654435761) & 0xFFFFF] = (i, str(i))
        ordered = sorted(table.values(), key=lambda item: item[0] ^ 0x5555)
        packed = struct.pack(f"<{len(ordered)}I", *(i for i, _ in ordered))
        pairs = [(i, i + 1) for i in struct.unpack(f"<{len(ordered)}I",
                                                  packed)]
        elapsed = time.perf_counter() - started
        del pairs, packed, ordered, table
    finally:
        if enabled:
            gc.enable()
    return elapsed / (CALIBRATION_REFERENCE_S * size)


def reset_peak_rss() -> bool:
    """Start this process's peak resident set afresh from its current size
    (Linux: writing 5 to ``clear_refs`` resets ``VmHWM``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def self_peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"{task_dir}/{tid}/children") as handle:
                kids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return kids


def process_tree(pid: int) -> List[int]:
    """``pid`` and all of its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def tree_rss_mb(pid: int) -> float:
    """Current resident set of ``pid``'s whole process tree, in MiB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def environment(kernel: Optional[str], outcome: "Outcome"
                ) -> Dict[str, object]:
    """What a reader needs to compare two results."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_kernel": kernel,
        "host_speed": outcome.host_speed,
        **outcome.env,
    }


def planted_keys(program) -> set:
    return {key for site in (program.planted_races or ()) for key in site.keys}


class Outcome:
    """What one workload run produced: metrics, counts and the gate."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Median :func:`host_speed` over the run.
        self.host_speed = 1.0
        #: Extra facts for the env line (raw times, peak reset).
        self.env: Dict[str, object] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def result_line(self, units: Dict[str, str]) -> str:
        """The benchmark's last output line, for the metrics in ``units``."""
        metrics = {name: {"value": self.metrics[name], "unit": unit}
                   for name, unit in units.items()}
        return json.dumps({"correct": self.correct,
                           "attempted": max(self.attempted, 1),
                           "failed": self.failed,
                           "metrics": metrics})
