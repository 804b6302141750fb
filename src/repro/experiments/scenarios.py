"""Scenario contention sweep: detection vs. thread-pool size.

The declarative scenario layer (:mod:`repro.scenarios`) makes contention a
*parameter*: one spec plus a ``derive`` override yields a whole series of
workloads with identical planted races but different thread counts.  This
study sweeps two shipped scenarios —

* ``kv-store``, growing the reader pool (no queues, so thread count is a
  free variable), and
* ``work-steal``, growing the ring (deque instances and workers move
  together, exercising a coupled two-field override)

— and measures, per contention level, what Full logging and the adaptive
thread-local sampler (TL-Ad) see on one marked run: planted-race
detection rate and effective sampling rate (ESR).  Full logging must find
*every* planted key at *every* level — that is the ground-truth invariant
the compiler guarantees — while TL-Ad's rate and ESR show how sampling
behaves as the same service gets busier.

Standalone-only (``python -m repro.experiments.scenarios``), like the
validation study: the sweep re-executes programs rather than reusing
cached study cells, so it stays out of the ``all`` sweep.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

from ..analysis.tables import format_percent, format_table
from ..core.literace import run_marked
from ..detector.flat import FlatDetector
from ..eventlog.events import SyncEvent
from ..scenarios import scenario
from .common import experiment_main, paper_note

__all__ = ["run", "SWEEPS"]

#: (scenario, label, override) per contention level.  Overrides go through
#: ``ScenarioSpec.derive``, so each level is a validated spec of its own.
SWEEPS: Tuple[Tuple[str, Tuple[Tuple[str, Mapping], ...]], ...] = (
    ("kv-store", (
        ("2 readers", {"pools": {"readers": {"threads": 2}}}),
        ("6 readers", {}),
        ("12 readers", {"pools": {"readers": {"threads": 12}}}),
    )),
    ("work-steal", (
        ("2-ring", {"pools": {"workers": {"threads": 2}},
                    "regions": {"deques": {"instances": 2}}}),
        ("4-ring", {}),
        ("8-ring", {"pools": {"workers": {"threads": 8}},
                    "regions": {"deques": {"instances": 8}}}),
    )),
)

_SAMPLERS = ("Full", "TL-Ad")


def _sampler_races(marked, name: str) -> set:
    bit = marked.harness.sampler_bit(name)
    detector = FlatDetector("hb")
    detector.feed_all(
        event for event in marked.log.events
        if isinstance(event, SyncEvent) or (event.mask & (1 << bit)))
    return detector.report.static_races


def run(scale: float = 1.0, seeds: Iterable[int] = (1, 2, 3),
        jobs: int = None, use_cache: bool = None) -> str:
    # Marked runs execute every program once per seed; a capped scale
    # keeps the 2x3-level sweep quick.  ``jobs``/``use_cache`` accepted
    # for CLI uniformity (marked runs are not engine-cached cells).
    scale = min(scale, 0.2)
    seeds = tuple(seeds)

    rows: List[List[str]] = []
    violations: List[str] = []
    for base_name, levels in SWEEPS:
        base = scenario(base_name)
        for label, override in levels:
            spec = base.derive(override) if override else base
            planted: set = set()
            found = {name: 0 for name in _SAMPLERS}
            esr = {name: 0.0 for name in _SAMPLERS}
            events = 0
            for seed in seeds:
                from ..scenarios import compile_scenario

                program = compile_scenario(spec, seed=seed, scale=scale)
                keys = {key for site in program.planted_races
                        for key in site.keys}
                planted |= keys
                marked = run_marked(program, list(_SAMPLERS), seed=seed)
                events += len(marked.log.events)
                for name in _SAMPLERS:
                    races = _sampler_races(marked, name)
                    found[name] += len(races & keys)
                    bit = marked.harness.sampler_bit(name)
                    esr[name] += (marked.log.memory_logged_by(bit)
                                  / max(1, marked.log.memory_count))
                full_found = _sampler_races(marked, "Full") & keys
                if full_found != keys:
                    violations.append(
                        f"{spec.name} [{label}] seed {seed}: Full missed "
                        f"{sorted(keys - full_found)}")
            denom = len(planted) * len(seeds)
            rows.append([
                base_name, label,
                f"{spec.total_threads}",
                f"{events // len(seeds):,}",
                format_percent(found['Full'] / denom),
                format_percent(esr['Full'] / len(seeds)),
                format_percent(found['TL-Ad'] / denom),
                format_percent(esr['TL-Ad'] / len(seeds)),
            ])

    table = format_table(
        ["scenario", "contention", "threads", "events",
         "Full detect", "Full ESR", "TL-Ad detect", "TL-Ad ESR"],
        rows,
        title=f"Scenario contention sweep (scale {scale}, seeds "
              f"{','.join(map(str, seeds))}): one spec, derived levels",
    )
    if violations:
        verdict = ("SCENARIOS: FAIL — Full logging missed planted keys:\n"
                   + "\n".join(f"  {line}" for line in violations))
    else:
        verdict = ("SCENARIOS: PASS — Full logging finds every planted "
                   "key at every contention level; TL-Ad trades detection "
                   "for its logging budget as pools grow")
    return table + "\n" + verdict + paper_note(
        "Production-shaped parameter sweeps are the HardRace deployment "
        "setting (PAPERS.md); the paper's own benchmarks are fixed "
        "benchmark-input pairs (§5.1)."
    )


if __name__ == "__main__":
    experiment_main(run, __doc__.splitlines()[0])
