"""The LiteRace tool facade: instrument, run, log, analyze.

This module packages the pipeline of the paper into one object::

    from repro import LiteRace, workloads

    program = workloads.build("apache-1", seed=1)
    tool = LiteRace(sampler="TL-Ad", seed=1)
    result = tool.run(program)

    print(result.report.num_static, "static races")
    print(f"slowdown {result.run.slowdown:.2f}x, "
          f"log {result.log_mb_per_second:.1f} MB/s")

``run`` executes the instrumented program under a seeded scheduler, collects
the event log, reconstructs the processing order from per-thread streams
using the logical timestamps (as the offline detector must), and runs the
happens-before detector.  Helper entry points build the other
configurations of the evaluation: the uninstrumented baseline, full
logging, dispatch-check-only, and the §5.3 *marked* run that evaluates many
samplers on one interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..staticpass import StaticReport

from ..detector.flat import FlatDetector
from ..detector.merge import merge_thread_logs
from ..detector.races import RaceReport
from ..eventlog.encode import encoded_size
from ..eventlog.log import EventLog
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from ..runtime.executor import Executor, RunResult
from ..runtime.scheduler import RandomInterleaver, Scheduler
from ..tir.program import Program
from .harness import MarkedHarness, ProfilingHarness
from .instrument import InstrumentedProgram, instrument
from .samplers import Sampler, make_sampler
from .tracker import TimestampTracker

__all__ = [
    "LiteRace",
    "AnalysisResult",
    "MarkedRun",
    "run_baseline",
    "run_marked",
]


def _as_sampler(sampler: Union[str, Sampler]) -> Sampler:
    return make_sampler(sampler) if isinstance(sampler, str) else sampler


@dataclass
class AnalysisResult:
    """Outcome of one profiled-and-analyzed execution."""

    run: RunResult
    log: EventLog
    report: RaceReport
    #: Sync events the offline merge had to force out of timestamp order
    #: (nonzero only with broken timestamping; see §4.2 / the ablation).
    merge_inconsistencies: int
    #: Wire size of the log in bytes.
    log_bytes: int
    cost_model: CostModel
    #: The static pass's verdicts when ``static_prune`` was on.
    static_report: Optional["StaticReport"] = None

    @property
    def slowdown(self) -> float:
        return self.run.slowdown

    @property
    def effective_sampling_rate(self) -> float:
        return self.run.effective_sampling_rate

    @property
    def log_mb_per_second(self) -> float:
        """Log production rate in MB/s of *baseline* execution time.

        Table 5 reports the data rate a tester must provision for; like the
        paper we normalize by how long the run takes, using virtual seconds
        from the cost model.
        """
        seconds = self.run.clock / self.cost_model.cycles_per_second
        if seconds <= 0:
            return 0.0
        return self.log_bytes / 1e6 / seconds


@dataclass
class MarkedRun:
    """Outcome of a §5.3 full-logging run with per-sampler marks."""

    run: RunResult
    log: EventLog
    harness: MarkedHarness

    def sampler_log(self, short_name: str) -> EventLog:
        """The sub-log the named sampler would have produced."""
        return self.log.filtered(self.harness.sampler_bit(short_name))

    def sampler_memory_count(self, short_name: str) -> int:
        return self.log.memory_logged_by(self.harness.sampler_bit(short_name))


class LiteRace:
    """The tool: a sampler plus the machinery to profile and analyze runs."""

    def __init__(
        self,
        sampler: Union[str, Sampler] = "TL-Ad",
        cost_model: CostModel = DEFAULT_COST_MODEL,
        num_counters: int = 128,
        atomic_timestamps: bool = True,
        alloc_as_sync: bool = True,
        log_sync: bool = True,
        seed: int = 0,
        static_prune: bool = False,
    ):
        self.sampler = _as_sampler(sampler)
        self.cost_model = cost_model
        self.num_counters = num_counters
        self.atomic_timestamps = atomic_timestamps
        self.alloc_as_sync = alloc_as_sync
        self.log_sync = log_sync
        self.seed = seed
        self.static_prune = static_prune

    # -- the static passes -------------------------------------------------
    def static_report(self, program: Program) -> Optional["StaticReport"]:
        """The race-freedom analysis result, when pruning is enabled."""
        if not self.static_prune:
            return None
        from ..staticpass import analyze
        return analyze(program)

    def _prune_set(self, program: Program,
                   report: Optional["StaticReport"]) -> FrozenSet[int]:
        if report is None:
            report = self.static_report(program)
        return report.prune_set() if report is not None else frozenset()

    def instrument(self, program: Program) -> InstrumentedProgram:
        """Apply the Figure-3 rewriting (clones + dispatch sites)."""
        return instrument(program, prune_pcs=self._prune_set(program, None))

    # -- profiling -----------------------------------------------------------
    def _make_tracker(self) -> TimestampTracker:
        return TimestampTracker(
            num_counters=self.num_counters,
            atomic=self.atomic_timestamps,
            seed=self.seed,
        )

    def profile(self, program: Program,
                scheduler: Optional[Scheduler] = None,
                sink=None,
                static_report: Optional["StaticReport"] = None
                ) -> Tuple[RunResult, EventLog]:
        """Execute under instrumentation; return measurements and the log."""
        harness = ProfilingHarness(
            self.sampler,
            cost_model=self.cost_model,
            tracker=self._make_tracker(),
            log_sync=self.log_sync,
            seed=self.seed,
            sink=sink,
        )
        executor = Executor(
            program,
            scheduler=scheduler or RandomInterleaver(self.seed),
            cost_model=self.cost_model,
            harness=harness,
            pruned_pcs=self._prune_set(program, static_report),
        )
        run = executor.run()
        return run, harness.log

    # -- offline analysis ---------------------------------------------------
    def analyze_log(self, log: EventLog) -> Tuple[RaceReport, int]:
        """Offline detection: timestamp-merge per-thread streams, then HB.

        The detector is :class:`~repro.detector.flat.FlatDetector` in its
        ``'hb'`` mode, byte-identical to the reference
        :class:`~repro.detector.hb.HappensBeforeDetector`.  Returns the race
        report and the number of timestamp inconsistencies the merge
        encountered (0 for correctly stamped logs).
        """
        merged = merge_thread_logs(log)
        detector = FlatDetector("hb", alloc_as_sync=self.alloc_as_sync)
        detector.feed_all(merged.events)
        return detector.report, merged.inconsistencies

    # -- end to end -----------------------------------------------------------
    def run(self, program: Program,
            scheduler: Optional[Scheduler] = None,
            sink=None) -> AnalysisResult:
        """Profile ``program`` and analyze its log offline.

        ``sink`` is forwarded to :meth:`profile` — an online detector or a
        :class:`~repro.service.client.TelemetrySink` receives every logged
        event live, in addition to the offline analysis below.
        """
        static_report = self.static_report(program)
        run, log = self.profile(program, scheduler, sink=sink,
                                static_report=static_report)
        report, inconsistencies = self.analyze_log(log)
        return AnalysisResult(
            run=run,
            log=log,
            report=report,
            merge_inconsistencies=inconsistencies,
            log_bytes=encoded_size(log),
            cost_model=self.cost_model,
            static_report=static_report,
        )


def run_baseline(program: Program,
                 scheduler: Optional[Scheduler] = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 seed: int = 0) -> RunResult:
    """Execute ``program`` with no instrumentation at all (Figure 6 config 1)."""
    executor = Executor(
        program,
        scheduler=scheduler or RandomInterleaver(seed),
        cost_model=cost_model,
        harness=None,
    )
    return executor.run()


def run_marked(program: Program,
               samplers: Sequence[Union[str, Sampler]],
               scheduler: Optional[Scheduler] = None,
               cost_model: CostModel = DEFAULT_COST_MODEL,
               seed: int = 0) -> MarkedRun:
    """The §5.3 methodology: full logging + side-by-side sampler marking."""
    harness = MarkedHarness(
        [_as_sampler(s) for s in samplers],
        cost_model=cost_model,
        tracker=TimestampTracker(seed=seed),
        seed=seed,
    )
    executor = Executor(
        program,
        scheduler=scheduler or RandomInterleaver(seed),
        cost_model=cost_model,
        harness=harness,
    )
    run = executor.run()
    return MarkedRun(run=run, log=harness.log, harness=harness)
