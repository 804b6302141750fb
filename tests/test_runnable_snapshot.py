"""The executor's runnable-set contract, checked on every decision.

The executor keeps the runnable tids as an immutable tuple it rebuilds only
when a thread's status changes, instead of rescanning every thread ever
spawned on every step.  :class:`SnapshotChecker` sits between the executor
and a real scheduler and, before delegating each decision, asserts that
the tuple it was handed is exactly what a fresh scan of thread statuses
yields.  Because the tuple is a snapshot, a wake issued while the
scheduler decides (as a directed gate does) must only show at the next
step.
"""

from __future__ import annotations

import pytest

from repro import workloads
from repro.core.harness import ProfilingHarness
from repro.core.samplers import make_sampler
from repro.runtime.chaos import ChaosScheduler
from repro.runtime.executor import AccessGate, Executor
from repro.runtime.scheduler import (RandomInterleaver, RoundRobinScheduler,
                                     Scheduler)
from repro.runtime.thread_state import ThreadStatus
from repro.tir.builder import ProgramBuilder
from repro.validate.director import DirectedScheduler, PairTrap
from repro.validate.trace import RecordingScheduler

SCALE = 0.01
#: Dryad's run length has a floor well above every other workload's.
SCALE_OVERRIDES = {"dryad": 0.002, "dryad-stdlib": 0.002}

POLICIES = {
    "random": lambda: RandomInterleaver(seed=3, switch_prob=0.2),
    "round-robin": lambda: RoundRobinScheduler(quantum=3),
    "chaos": lambda: ChaosScheduler(seed=5, change_points=4,
                                    expected_steps=3000),
}


def scan_runnable(executor: Executor) -> tuple:
    """The reference: every thread ever spawned, filtered by status."""
    return tuple([tid for tid, t in executor._threads.items()
                  if t.status is ThreadStatus.RUNNABLE])


class SnapshotChecker(Scheduler):
    """Check ``runnable`` against a fresh scan, then delegate.

    With ``track_changes`` it also rescans after the decision and counts
    the decisions during which the runnable set changed (a wake or park
    issued from inside the scheduler).
    """

    def __init__(self, inner: Scheduler, track_changes: bool = False):
        self.inner = inner
        self.track_changes = track_changes
        self.executor = None
        self.decisions = 0
        self.changed_during_decision = 0
        self._ordered = None

    def next_thread(self, current, runnable):
        assert type(runnable) is tuple
        assert runnable == scan_runnable(self.executor)
        if runnable is not self._ordered:
            # Equal to the scan means no duplicates, so sorted means
            # strictly ascending; a tuple once checked stays so.
            assert list(runnable) == sorted(runnable), runnable
            self._ordered = runnable
        self.decisions += 1
        tid = self.inner.next_thread(current, runnable)
        if self.track_changes and scan_runnable(self.executor) != runnable:
            self.changed_during_decision += 1
        return tid


def run_checked(program, inner: Scheduler) -> SnapshotChecker:
    checker = SnapshotChecker(inner)
    executor = Executor(program, scheduler=checker)
    checker.executor = executor
    executor.run()
    assert checker.decisions == executor.result.steps
    return checker


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("workload", workloads.names())
def test_runnable_matches_fresh_scan(workload, policy):
    program = workloads.build(workload, seed=2,
                              scale=SCALE_OVERRIDES.get(workload, SCALE))
    checker = run_checked(program, POLICIES[policy]())
    assert checker.decisions > 0


@pytest.mark.parametrize("mode", ["pause", "jitter"])
def test_directed_validation_run(mode):
    # The gated run the race validator makes: a PairTrap parks threads at
    # the candidate PCs and wakes them from inside the scheduler.
    program = workloads.build("kv-store", seed=1, scale=0.02)
    pair = program.planted_races[0].keys[0]
    trap = PairTrap(pair, mode=mode, park_timeout=200)
    recorder = RecordingScheduler(
        DirectedScheduler(RandomInterleaver(seed=1, switch_prob=0.1), trap))
    trap.recorder = recorder
    harness = ProfilingHarness(make_sampler("Full"))
    checker = SnapshotChecker(recorder, track_changes=True)
    executor = Executor(program, scheduler=checker, harness=harness,
                        gate=trap)
    checker.executor = executor
    trap.attach(executor)
    executor.run()
    assert trap.parks > 0
    if mode == "jitter":
        # Jitter parks time out in PairTrap.on_step, mid-decision.
        assert checker.changed_during_decision > 0


class _ParkFirstAccess(AccessGate):
    """Park the first thread to touch memory until someone wakes it."""

    def __init__(self):
        self.parked = None
        self.released = False

    def on_access(self, tid, pc, addr, is_write):
        if self.parked is None:
            self.parked = tid
            return True
        if tid == self.parked:
            self.released = True
        return False


class _WakeWhileDeciding(Scheduler):
    """Wake the parked thread from inside ``next_thread``."""

    def __init__(self, gate: _ParkFirstAccess):
        self.gate = gate
        self.executor = None
        self.woken = None
        #: ``runnable`` as handed to the decision after the wake.
        self.after_wake = None

    def next_thread(self, current, runnable):
        parked = self.gate.parked
        if self.woken is None:
            if parked is not None and parked not in runnable:
                self.executor.wake_thread(parked)
                self.woken = parked
                assert parked not in runnable
        elif self.after_wake is None:
            self.after_wake = runnable
        if current is not None and current in runnable:
            return current
        return runnable[0]


def _two_workers():
    b = ProgramBuilder("wake-while-deciding")
    with b.function("worker") as f:
        with f.loop(20):
            f.write(b.global_addr("x"))
    with b.function("main", slots=2) as f:
        f.fork("worker", tid_slot=0)
        f.fork("worker", tid_slot=1)
        f.join(0)
        f.join(1)
    return b.build(entry="main")


def test_wake_during_decision_shows_at_next_step():
    gate = _ParkFirstAccess()
    scheduler = _WakeWhileDeciding(gate)
    executor = Executor(_two_workers(), scheduler=scheduler, gate=gate)
    scheduler.executor = executor
    executor.run()
    assert scheduler.woken == 1
    assert gate.released
    # The wake landed in the snapshot of the following decision.
    assert scheduler.after_wake == (1, 2)
