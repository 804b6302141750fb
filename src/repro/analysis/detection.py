"""The §5.3 detection study: compare samplers on identical interleavings.

Two different executions of a multithreaded program are not guaranteed to
interleave identically, so the paper compares samplers by running a
modified build that logs *everything* while executing every sampler's
dispatch logic side by side, marking each memory operation with the set of
samplers that would have logged it.  Race detection on the complete log
yields the races that actually happened; detection on each sampler's
marked subset yields what that sampler would have found.  The detection
rate is the proportion of the full log's static races the subset recovers.

:func:`run_detection_study` executes that methodology over a set of
benchmarks and seeds (the paper instruments each application and runs it
three times, reporting the average detection rate and the median race
counts).  One (benchmark, seed) execution is a *cell* —
:func:`run_detection_cell` — returning a picklable :class:`RunDetection`,
which is what lets :mod:`repro.experiments.engine` fan the study out
across worker processes and cache each cell on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..core.literace import run_marked
from ..core.samplers import SAMPLER_ORDER
from ..detector.flat import FlatDetector
from ..detector.races import RaceKey
from ..eventlog.events import SyncEvent
from ..runtime.cost import DEFAULT_COST_MODEL, CostModel
from ..runtime.scheduler import RandomInterleaver
from .. import workloads

__all__ = ["SamplerOutcome", "RunDetection", "DetectionStudy",
           "run_detection_cell", "run_detection_study"]


@dataclass
class SamplerOutcome:
    """One sampler's result on one marked run."""

    detected: Set[RaceKey]
    memory_logged: int

    def rate(self, reference: Set[RaceKey]) -> float:
        """Fraction of ``reference`` races present in ``detected``."""
        if not reference:
            return 1.0
        return len(self.detected & reference) / len(reference)


@dataclass
class RunDetection:
    """Full-log ground truth plus per-sampler outcomes for one execution."""

    benchmark: str
    seed: int
    memory_ops: int
    nonstack_memory_ops: int
    full_races: Set[RaceKey]
    rare: Set[RaceKey]
    frequent: Set[RaceKey]
    samplers: Dict[str, SamplerOutcome]

    def esr(self, sampler: str) -> float:
        if self.memory_ops == 0:
            return 0.0
        return self.samplers[sampler].memory_logged / self.memory_ops

    def reference(self, which: str) -> Set[RaceKey]:
        if which == "all":
            return self.full_races
        if which == "rare":
            return self.rare
        if which == "frequent":
            return self.frequent
        raise ValueError(f"unknown race class {which!r}")


@dataclass
class DetectionStudy:
    """All runs of a detection study, with the paper's aggregations."""

    runs: List[RunDetection] = field(default_factory=list)
    sampler_names: Tuple[str, ...] = SAMPLER_ORDER

    def benchmarks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run.benchmark)
        return list(seen)

    def runs_for(self, benchmark: str) -> List[RunDetection]:
        return [run for run in self.runs if run.benchmark == benchmark]

    # -- detection rates (Figures 4 and 5) -------------------------------
    def detection_rate(self, benchmark: str, sampler: str,
                       which: str = "all") -> float:
        """Average over this benchmark's runs (the paper averages 3 runs)."""
        rates = [
            run.samplers[sampler].rate(run.reference(which))
            for run in self.runs_for(benchmark)
            if run.reference(which)
        ]
        return sum(rates) / len(rates) if rates else float("nan")

    def average_detection_rate(self, sampler: str,
                               which: str = "all") -> float:
        """Unweighted average across benchmarks (the figures' Average bar)."""
        rates = [
            self.detection_rate(bench, sampler, which)
            for bench in self.benchmarks()
        ]
        rates = [r for r in rates if r == r]  # drop NaNs
        return sum(rates) / len(rates) if rates else float("nan")

    # -- effective sampling rates (Table 3) ---------------------------------
    def esr(self, benchmark: str, sampler: str) -> float:
        runs = self.runs_for(benchmark)
        return sum(run.esr(sampler) for run in runs) / len(runs)

    def average_esr(self, sampler: str) -> float:
        """Plain average of per-benchmark effective sampling rates."""
        benches = self.benchmarks()
        return sum(self.esr(b, sampler) for b in benches) / len(benches)

    def weighted_esr(self, sampler: str) -> float:
        """Average weighted by each run's dynamic memory-operation count."""
        logged = sum(run.samplers[sampler].memory_logged for run in self.runs)
        total = sum(run.memory_ops for run in self.runs)
        return logged / total if total else 0.0

    # -- race counts (Table 4) -----------------------------------------------
    def race_counts(self, benchmark: str) -> Tuple[int, int, int]:
        """(total, rare, frequent) static races — medians over the runs."""
        runs = self.runs_for(benchmark)
        total = int(median(len(run.full_races) for run in runs))
        rare = int(median(len(run.rare) for run in runs))
        freq = int(median(len(run.frequent) for run in runs))
        return total, rare, freq


def _detect(events) -> Set[RaceKey]:
    detector = FlatDetector("hb")
    detector.feed_all(events)
    return detector.report.static_races


def run_detection_cell(
    benchmark: str,
    seed: int,
    scale: float = 1.0,
    samplers: Sequence[str] = SAMPLER_ORDER,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    switch_prob: float = 0.05,
) -> RunDetection:
    """One §5.3 cell: a single marked execution with all samplers judged.

    The returned :class:`RunDetection` is a plain picklable dataclass (sets
    of PC-pair tuples, per-sampler counters), so cells can cross process
    boundaries and be persisted by the artifact cache.
    """
    program = workloads.build(benchmark, seed=seed, scale=scale)
    marked = run_marked(
        program, list(samplers),
        scheduler=RandomInterleaver(seed, switch_prob=switch_prob),
        cost_model=cost_model, seed=seed,
    )
    full_detector = FlatDetector("hb")
    full_detector.feed_all(marked.log.events)
    full_races = full_detector.report.static_races
    rare, frequent = full_detector.report.classify(
        marked.run.nonstack_memory_ops
    )
    outcomes: Dict[str, SamplerOutcome] = {}
    for sampler in samplers:
        bit = marked.harness.sampler_bit(sampler)
        want = 1 << bit
        detected = _detect(
            event for event in marked.log.events
            if isinstance(event, SyncEvent) or (event.mask & want)
        )
        outcomes[sampler] = SamplerOutcome(
            detected=detected & full_races,
            memory_logged=marked.log.memory_logged_by(bit),
        )
    return RunDetection(
        benchmark=benchmark,
        seed=seed,
        memory_ops=marked.log.memory_count,
        nonstack_memory_ops=marked.run.nonstack_memory_ops,
        full_races=full_races,
        rare=rare,
        frequent=frequent,
        samplers=outcomes,
    )


def run_detection_study(
    benchmarks: Sequence[str] = None,
    samplers: Sequence[str] = SAMPLER_ORDER,
    seeds: Iterable[int] = (1, 2, 3),
    scale: float = 1.0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    switch_prob: float = 0.05,
) -> DetectionStudy:
    """Execute the §5.3 methodology serially and return the collected study.

    This is the single-process reference path; the experiment engine
    (:mod:`repro.experiments.engine`) produces bit-identical studies by
    running the same cells in parallel and merging them in this exact
    (benchmark, seed) order.
    """
    if benchmarks is None:
        benchmarks = workloads.race_eval_names()
    study = DetectionStudy(sampler_names=tuple(samplers))
    for name in benchmarks:
        for seed in seeds:
            study.runs.append(run_detection_cell(
                name, seed, scale=scale, samplers=samplers,
                cost_model=cost_model, switch_prob=switch_prob,
            ))
    return study
