"""Slices against per-step decisions: one policy, two ways to ask it.

A bare :class:`RandomInterleaver` hands the executor its preemption test
(:meth:`~repro.runtime.scheduler.Scheduler.preemption`), so the executor
asks it for a thread only when a slice starts and otherwise draws the
keep-or-preempt number itself.  :class:`PerStep` passes every call through
to the same policy but keeps the default preemption of None, so the
executor asks it before every step, as it asks every wrapping scheduler.
Both must run the same execution and leave the policy's RNG in the same
state: the log in stream order, every :class:`RunResult` counter, the
offline report and, for failing runs, the exception and the counters at the
point of failure.

Every registered workload runs at a small scale under a step cap: the
dryad, firefox and apache workloads have a run length floor far above the
others', and the cap stops them with :class:`ExecutionLimitError` part way,
where the log and counters so far must still match.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import workloads
from repro.core.harness import ProfilingHarness
from repro.core.literace import LiteRace
from repro.core.samplers import make_sampler
from repro.eventlog.encode import encode_log
from repro.runtime.executor import (AccessGate, DeadlockError,
                                    ExecutionLimitError, Executor)
from repro.runtime.scheduler import RandomInterleaver, Scheduler
from repro.tir.builder import ProgramBuilder

SEED = 4
SCALE = 0.01
STEP_CAP = 20_000
SWITCH_PROBS = (0.0, 0.05, 0.5, 1.0)


class PerStep(Scheduler):
    """Pass every decision through; be asked before every step."""

    def __init__(self, inner: Scheduler):
        self.inner = inner

    def next_thread(self, current, runnable):
        return self.inner.next_thread(current, runnable)


class CountingInterleaver(RandomInterleaver):
    """A RandomInterleaver that counts the executor's calls; it keeps its
    preemption test, so it still runs in slices."""

    calls = 0

    def next_thread(self, current, runnable):
        self.calls += 1
        return super().next_thread(current, runnable)


class WakingGate(AccessGate):
    """Park accesses at random, and wake parked threads from inside other
    threads' accesses, so the runnable set changes in the middle of a
    slice."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.parked: list = []
        self.trace: list = []
        self.executor = None

    def on_access(self, tid, pc, addr, is_write):
        if self.parked and self.rng.random() < 0.3:
            woken = self.parked.pop(0)
            self.trace.append(("wake", tid, woken))
            self.executor.wake_thread(woken)
        park = self.rng.random() < 0.2
        self.trace.append(("access", tid, pc, park))
        if park:
            self.parked.append(tid)
        return park

    def release_all(self):
        parked, self.parked = self.parked, []
        self.trace.append(("release_all", tuple(parked)))
        for tid in parked:
            self.executor.wake_thread(tid)
        return bool(parked)


def observe(program, sampler: str, switch_prob: float, per_step: bool, *,
            seed: int = SEED, max_steps: int = STEP_CAP,
            gate_seed=None) -> dict:
    """Profile ``program`` once and analyze what was logged, failure or
    not; return everything the run exposed."""
    policy = RandomInterleaver(seed=seed, switch_prob=switch_prob)
    harness = ProfilingHarness(make_sampler(sampler), seed=SEED)
    gate = None if gate_seed is None else WakingGate(gate_seed)
    executor = Executor(program,
                        scheduler=PerStep(policy) if per_step else policy,
                        harness=harness, max_steps=max_steps, gate=gate)
    if gate is not None:
        gate.executor = executor
    failure = None
    try:
        executor.run()
    except (DeadlockError, ExecutionLimitError) as exc:
        failure = (type(exc), str(exc))
    report, inconsistencies = LiteRace(sampler=sampler).analyze_log(
        harness.log)
    return {
        "failure": failure,
        "result": dataclasses.asdict(executor.result),
        "log": encode_log(harness.log, version=2),
        "inconsistencies": inconsistencies,
        "report": (sorted(report.occurrences.items()),
                   sorted(report.examples.items()),
                   sorted(report.addresses)),
        "rng": policy._rng.getstate(),
        "gate": None if gate is None else gate.trace,
    }


def assert_same_run(program, sampler, switch_prob, **options) -> dict:
    sliced = observe(program, sampler, switch_prob, False, **options)
    stepped = observe(program, sampler, switch_prob, True, **options)
    for key in stepped:
        assert sliced[key] == stepped[key], key
    return sliced


@pytest.mark.parametrize("switch_prob", SWITCH_PROBS)
@pytest.mark.parametrize("sampler", ["TL-Ad", "Full"])
@pytest.mark.parametrize("workload", workloads.names())
def test_slices_match_per_step_decisions(workload, sampler, switch_prob):
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    run = assert_same_run(program, sampler, switch_prob)
    assert run["result"]["memory_ops"] > 0


@pytest.mark.parametrize("switch_prob", [0.05, 0.5])
@pytest.mark.parametrize("max_steps", [1, 2, 3, 50, 777, 4321])
def test_step_limit_hits_at_the_same_point(max_steps, switch_prob):
    program = workloads.build("kv-store", seed=SEED, scale=SCALE)
    run = assert_same_run(program, "Full", switch_prob, max_steps=max_steps)
    assert run["failure"] == (ExecutionLimitError,
                              f"exceeded max_steps={max_steps}")


def _lock_inversion():
    b = ProgramBuilder("lock-inversion")
    first, second = b.global_addr("first"), b.global_addr("second")
    x = b.global_addr("x")
    for name, outer, inner in (("forward", first, second),
                               ("backward", second, first)):
        with b.function(name) as f:
            with f.loop(3):
                f.compute(2)
                f.lock(outer)
                f.write(x)
                f.lock(inner)
                f.read(x)
                f.unlock(inner)
                f.unlock(outer)
    with b.function("main", slots=2) as f:
        f.fork("forward", tid_slot=0)
        f.fork("backward", tid_slot=1)
        f.join(0)
        f.join(1)
    return b.build(entry="main")


def test_deadlocks_at_the_same_point():
    program = _lock_inversion()
    outcomes = set()
    for switch_prob in (0.0, 0.05, 0.3):
        for seed in range(12):
            run = assert_same_run(program, "Full", switch_prob, seed=seed)
            outcomes.add(None if run["failure"] is None
                         else run["failure"][0])
    # Both ends of the program are covered: runs that finish and runs
    # that deadlock part way.
    assert outcomes == {None, DeadlockError}


@pytest.mark.parametrize("switch_prob", [0.05, 0.5])
@pytest.mark.parametrize("workload", ["kv-store", "lkrhash", "pipeline"])
def test_gated_runs_match(workload, switch_prob):
    program = workloads.build(workload, seed=SEED, scale=SCALE)
    run = assert_same_run(program, "TL-Ad", switch_prob, gate_seed=11)
    kinds = {record[0] for record in run["gate"]}
    assert {"access", "wake"} <= kinds
    assert any(record[0] == "access" and record[3] for record in run["gate"])


@pytest.mark.parametrize("switch_prob, most", [(0.0, 0.25), (0.05, 0.25),
                                               (0.5, 0.75)])
def test_slices_run_more_than_one_step(switch_prob, most):
    # The comparisons above mean something only if the slice path is taken:
    # the policy is asked about once per preemption, block or exit.
    program = workloads.build("lkrhash", seed=SEED, scale=SCALE)
    policy = CountingInterleaver(seed=SEED, switch_prob=switch_prob)
    result = Executor(program, scheduler=policy).run()
    assert 0 < policy.calls < result.steps * most


def test_preempting_every_step_asks_before_every_step():
    program = workloads.build("lkrhash", seed=SEED, scale=SCALE)
    policy = CountingInterleaver(seed=SEED, switch_prob=1.0)
    result = Executor(program, scheduler=policy).run()
    assert policy.calls == result.steps
