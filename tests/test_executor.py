"""Tests for the TIR interpreter: semantics, blocking, accounting."""

import gc
import weakref

import pytest

from repro.eventlog.events import SyncKind
from repro.layout import HEAP_BASE, tls_base_for
from repro.runtime.cost import CostModel
from repro.runtime.memory import HeapError
from repro.runtime.executor import (
    DeadlockError,
    ExecutionLimitError,
    Executor,
    Harness,
)
from repro.runtime.scheduler import RandomInterleaver, RoundRobinScheduler
from repro.runtime.sync import SyncError
from repro.tir.addr import HeapSlot, Indexed, Param, Tls
from repro.tir.builder import ProgramBuilder


class RecordingHarness(Harness):
    """Logs every hook invocation; always picks the instrumented copy."""

    def __init__(self, instrumented=True):
        self.instrumented = instrumented
        self.entries = []
        self.exits = 0
        self.memory = []
        self.sync = []

    def enter_function(self, tid, func_name):
        self.entries.append((tid, func_name))
        return self.instrumented, 8

    def exit_function(self, tid):
        self.exits += 1

    def memory_event(self, tid, addr, pc, is_write):
        self.memory.append((tid, addr, pc, is_write))
        return 5

    def sync_event(self, tid, kind, var, pc, active_threads):
        self.sync.append((tid, kind, var))
        return 3


def run_program(build, harness=None, seed=0, scheduler=None, **kwargs):
    b = ProgramBuilder("t")
    build(b)
    program = b.build(entry="main")
    executor = Executor(program,
                        scheduler=scheduler or RandomInterleaver(seed),
                        harness=harness, **kwargs)
    return executor, executor.run()


class TestBasics:
    def test_counts_memory_and_compute(self):
        def build(b):
            with b.function("main") as f:
                f.read(b.global_addr("x"))
                f.write(b.global_addr("x"))
                f.compute(10)

        _, result = run_program(build)
        assert result.memory_ops == 2
        assert result.nonstack_memory_ops == 2
        assert result.baseline_cycles >= 12

    def test_tls_not_counted_as_nonstack(self):
        def build(b):
            with b.function("main") as f:
                f.read(Tls(0))
                f.write(b.global_addr("x"))

        _, result = run_program(build)
        assert result.memory_ops == 2
        assert result.nonstack_memory_ops == 1

    def test_loop_repeats_body(self):
        def build(b):
            with b.function("main") as f:
                with f.loop(7):
                    f.read(b.global_addr("x"))

        _, result = run_program(build)
        assert result.memory_ops == 7

    def test_loop_count_from_param(self):
        def build(b):
            with b.function("child", params=1) as f:
                with f.loop(Param(0)):
                    f.read(b.global_addr("x"))
            with b.function("main") as f:
                f.call("child", 5)

        _, result = run_program(build)
        assert result.memory_ops == 5

    def test_indexed_addresses_walk_array(self):
        seen = RecordingHarness()

        def build(b):
            base = b.global_array("arr", 4, 8)
            b._base = base
            with b.function("main") as f:
                with f.loop(4):
                    f.write(Indexed(base, 8, 0))

        _, result = run_program(build, harness=seen)
        addrs = [a for (_, a, _, _) in seen.memory]
        assert addrs == [addrs[0] + 8 * i for i in range(4)]

    def test_io_counts_as_time_not_instructions(self):
        def build(b):
            with b.function("main") as f:
                f.io(1234)

        _, result = run_program(build)
        assert result.io_cycles == 1234
        assert result.clock >= 1234
        assert result.memory_ops == 0

    def test_io_duration_from_param(self):
        def build(b):
            with b.function("child", params=1) as f:
                f.io(Param(0))
            with b.function("main") as f:
                f.call("child", 777)

        _, result = run_program(build)
        assert result.io_cycles == 777

    def test_max_steps_guard(self):
        def build(b):
            with b.function("main") as f:
                with f.loop(10_000):
                    f.compute(1)

        with pytest.raises(ExecutionLimitError):
            run_program(build, max_steps=100)


class TestThreads:
    def test_fork_join_runs_children(self):
        def build(b):
            x = b.global_addr("x")
            with b.function("child") as f:
                f.write(x)
            with b.function("main", slots=3) as f:
                for t in range(3):
                    f.fork("child", tid_slot=t)
                for t in range(3):
                    f.join(t)

        _, result = run_program(build)
        assert result.threads_created == 4
        assert result.memory_ops == 3

    def test_fork_args_reach_child(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("child", params=1) as f:
                f.write(Param(0))
            with b.function("main", slots=1) as f:
                f.fork("child", 0x5555, tid_slot=0)
                f.join(0)

        run_program(build, harness=seen)
        assert (1, 0x5555, seen.memory[0][2], True) in seen.memory

    def test_tls_is_per_thread(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("child") as f:
                f.write(Tls(0))
            with b.function("main", slots=2) as f:
                f.fork("child", tid_slot=0)
                f.fork("child", tid_slot=1)
                f.join(0)
                f.join(1)

        run_program(build, harness=seen)
        tls_addrs = {a for (_, a, _, _) in seen.memory}
        assert tls_addrs == {tls_base_for(1), tls_base_for(2)}

    def test_join_after_child_finished_is_fine(self):
        def build(b):
            with b.function("child") as f:
                f.compute(1)
            with b.function("main", slots=1) as f:
                f.fork("child", tid_slot=0)
                with f.loop(50):
                    f.compute(5)
                f.join(0)

        _, result = run_program(build)
        assert result.threads_created == 2

    def test_deadlock_detected(self):
        def build(b):
            lock = b.global_addr("l")
            with b.function("main") as f:
                f.lock(lock)
                f.lock(b.global_addr("l2"))
                # child never unlocks l; main can't be here — simpler:
            # a thread waiting on an event nobody signals
        def build2(b):
            ev = b.global_addr("ev")
            with b.function("main") as f:
                f.wait(ev)

        with pytest.raises(DeadlockError):
            run_program(build2)

    def test_unlock_of_unheld_mutex_raises(self):
        def build(b):
            with b.function("main") as f:
                f.unlock(b.global_addr("l"))

        with pytest.raises(SyncError):
            run_program(build)


class TestMutexSemantics:
    def test_critical_sections_exclude(self):
        # With exclusion, the interleaving inside the critical section is
        # irrelevant; the run completes without SyncError from handoff.
        def build(b):
            lock = b.global_addr("l")
            x = b.global_addr("x")
            with b.function("child") as f:
                with f.loop(20):
                    with f.critical(lock):
                        f.read(x)
                        f.write(x)
            with b.function("main", slots=3) as f:
                for t in range(3):
                    f.fork("child", tid_slot=t)
                for t in range(3):
                    f.join(t)

        _, result = run_program(build, seed=5)
        assert result.sync_ops >= 120  # 20 iterations * 2 * 3 threads

    def test_cas_lock_also_excludes(self):
        seen = RecordingHarness()

        def build(b):
            lock = b.global_addr("l")
            with b.function("child") as f:
                f.lock(lock, via_cas=True)
                f.compute(3)
                f.unlock(lock, via_cas=True)
            with b.function("main", slots=2) as f:
                f.fork("child", tid_slot=0)
                f.fork("child", tid_slot=1)
                f.join(0)
                f.join(1)

        run_program(build, harness=seen, seed=3)
        kinds = {k for (_, k, _) in seen.sync}
        assert SyncKind.ATOMIC in kinds
        assert SyncKind.LOCK not in kinds  # profiler sees only raw CAS


class TestEventsAndHeap:
    def test_wait_notify_orders(self):
        def build(b):
            ev = b.global_addr("ev")
            with b.function("producer") as f:
                f.compute(5)
                f.notify(ev)
            with b.function("consumer") as f:
                f.wait(ev)
                f.compute(1)
            with b.function("main", slots=2) as f:
                f.fork("consumer", tid_slot=0)
                f.fork("producer", tid_slot=1)
                f.join(0)
                f.join(1)

        _, result = run_program(build, seed=9)
        assert result.threads_created == 3

    def test_alloc_free_emit_page_sync(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("main", slots=1) as f:
                f.alloc(64, 0)
                f.write(HeapSlot(0))
                f.free(0)

        run_program(build, harness=seen)
        kinds = [k for (_, k, _) in seen.sync]
        assert SyncKind.ALLOC_PAGE in kinds
        assert SyncKind.FREE_PAGE in kinds
        heap_writes = [a for (_, a, _, w) in seen.memory if w]
        assert heap_writes == [HEAP_BASE]

    @pytest.mark.parametrize("double", [True, False])
    def test_free_of_dead_block_raises_heap_error(self, double):
        # A double free, or a free of a slot no Alloc ever filled (which
        # still holds 0), must fail as a heap error before any page event.
        seen = RecordingHarness()

        def build(b):
            with b.function("main", slots=1) as f:
                if double:
                    f.alloc(64, 0)
                    f.free(0)
                f.free(0)

        bad = HEAP_BASE if double else 0
        with pytest.raises(HeapError, match=f"{bad:#x} .*not a live block"):
            run_program(build, harness=seen)
        frees = [k for (_, k, _) in seen.sync if k is SyncKind.FREE_PAGE]
        assert len(frees) == (1 if double else 0)

    def test_thread_lifecycle_sync_events(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("child") as f:
                f.compute(1)
            with b.function("main", slots=1) as f:
                f.fork("child", tid_slot=0)
                f.join(0)

        run_program(build, harness=seen)
        kinds = [k for (_, k, _) in seen.sync]
        for expected in (SyncKind.THREAD_START, SyncKind.FORK,
                         SyncKind.JOIN, SyncKind.THREAD_EXIT):
            assert expected in kinds


class TestHarnessIntegration:
    def test_dispatch_called_per_function_entry(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("leaf") as f:
                f.compute(1)
            with b.function("main") as f:
                with f.loop(5):
                    f.call("leaf")

        run_program(build, harness=seen)
        assert seen.entries.count((0, "leaf")) == 5
        assert seen.exits == len(seen.entries)

    def test_uninstrumented_copy_skips_memory_logging(self):
        seen = RecordingHarness(instrumented=False)

        def build(b):
            with b.function("main") as f:
                f.read(b.global_addr("x"))

        _, result = run_program(build, harness=seen)
        assert seen.memory == []
        assert result.sampled_memory_ops == 0
        assert result.memory_ops == 1

    def test_cost_buckets_accumulate(self):
        seen = RecordingHarness()

        def build(b):
            with b.function("main") as f:
                f.read(b.global_addr("x"))
                f.lock(b.global_addr("l"))
                f.unlock(b.global_addr("l"))

        _, result = run_program(build, harness=seen)
        assert result.dispatch_cycles == 8      # one entry (main)
        assert result.memory_log_cycles == 5    # one read
        # lock + unlock + thread_start/exit sync hooks
        assert result.sync_log_cycles == 3 * len(seen.sync)

    def test_slowdown_vs_baseline(self):
        def build(b):
            with b.function("main") as f:
                with f.loop(100):
                    f.read(b.global_addr("x"))

        _, bare = run_program(build)
        _, instrumented = run_program(build, harness=RecordingHarness())
        assert bare.slowdown == 1.0
        assert instrumented.slowdown > 1.0
        assert instrumented.baseline_cycles == bare.baseline_cycles


class TestLifetime:
    def test_finished_executor_is_freed_by_reference_counting(self):
        # The harness (and with it the whole event log) lives as long as
        # its executor; a reference cycle through the executor would keep
        # both until the cycle collector happened to run.
        def build(b):
            with b.function("child", slots=1) as f:
                f.lock(b.global_addr("m"))
                with f.loop(3):
                    f.write(b.global_addr("x"))
                f.unlock(b.global_addr("m"))
            with b.function("main", slots=2) as f:
                f.fork("child", tid_slot=0)
                f.fork("child", tid_slot=1)
                f.join(0)
                f.join(1)

        enabled = gc.isenabled()
        gc.disable()
        try:
            executor, _ = run_program(build, harness=RecordingHarness())
            alive = weakref.ref(executor)
            del executor
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


class TestDeterminism:
    def test_same_seed_identical_run(self, racer_program):
        def execute(seed):
            h = RecordingHarness()
            Executor(racer_program, scheduler=RandomInterleaver(seed),
                     harness=h).run()
            return h.memory, h.sync

        assert execute(11) == execute(11)

    def test_round_robin_also_works(self, racer_program):
        result = Executor(racer_program,
                          scheduler=RoundRobinScheduler(quantum=3)).run()
        assert result.threads_created == 3


class TestStickyEvents:
    def test_manual_reset_event_admits_all_waiters(self):
        def build(b):
            ev = b.global_addr("ev")
            with b.function("waiter") as f:
                f.wait(ev, consume=False)
                f.compute(1)
            with b.function("main", slots=3) as f:
                for t in range(3):
                    f.fork("waiter", tid_slot=t)
                f.compute(10)
                f.notify(ev)
                for t in range(3):
                    f.join(t)

        _, result = run_program(build, seed=3)
        assert result.threads_created == 4

    def test_signal_before_wait_passes_immediately(self):
        def build(b):
            ev = b.global_addr("ev")
            with b.function("main") as f:
                f.notify(ev)
                f.wait(ev, consume=False)
                f.wait(ev, consume=False)  # sticky: still signaled

        _, result = run_program(build)
        assert result.sync_ops >= 3


class TestContendedCasLock:
    def test_mutual_exclusion_under_contention(self):
        def build(b):
            lock = b.global_addr("lock")
            with b.function("child") as f:
                with f.loop(30):
                    f.lock(lock, via_cas=True)
                    f.compute(2)
                    f.unlock(lock, via_cas=True)
            with b.function("main", slots=4) as f:
                for t in range(4):
                    f.fork("child", tid_slot=t)
                for t in range(4):
                    f.join(t)

        _, result = run_program(build, seed=8)
        # 4 threads * 30 iterations * 2 CAS ops, plus lifecycle events
        assert result.sync_ops >= 240


class TestNestedLoopAddressing:
    def test_three_level_nesting(self):
        seen = RecordingHarness()

        def build(b):
            base = b.global_array("grid", 64, 1)
            with b.function("main") as f:
                with f.loop(2):
                    with f.loop(2):
                        with f.loop(2):
                            f.write(Indexed(
                                Indexed(Indexed(base, 4, 2), 2, 1), 1, 0))

        run_program(build, harness=seen)
        offsets = sorted(a - seen.memory[0][1] for (_, a, _, _)
                         in seen.memory)
        assert offsets == [0, 1, 2, 3, 4, 5, 6, 7]
