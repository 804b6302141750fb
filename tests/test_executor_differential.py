"""Differential test: the cursor-stack interpreter against its generator original.

:class:`~repro.runtime.executor.Executor` runs each thread as a stack of
block cursors and does in ``_step`` exactly the work one resume of the
thread's generator tower used to do.  The reference below is that generator
interpreter, copied verbatim but for four edits: its class name, a relative
import made absolute, its generators kept in a tid -> generator dict of its
own, and no ``instructions_retired`` count (``ThreadState`` carries neither
a generator nor that count any more).

Both interpreters run the same program under fresh copies of one scheduler,
a harness that records every hook call with the step it landed in, and,
optionally, a gate that parks accesses and wakes the parked threads from
inside later scheduler decisions.  Everything observable must match:
every decision with the ``current``/``runnable`` it was made from, the hook
and gate traces, every :class:`RunResult` field, the heap and thread states
left behind, and, for failing runs, the exception's type, message and step.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left
from typing import Dict, FrozenSet, Generator, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.eventlog.events import SyncKind
from repro.layout import is_stack_addr
from repro.runtime.chaos import ChaosScheduler
from repro.runtime.cost import DEFAULT_COST_MODEL, CostModel
from repro.runtime.executor import (
    AccessGate,
    DeadlockError,
    ExecutionLimitError,
    Executor,
    Harness,
    RunResult,
)
from repro.runtime.memory import Heap, HeapError
from repro.runtime.scheduler import (
    RandomInterleaver,
    RoundRobinScheduler,
    Scheduler,
)
from repro.runtime.sync import Event, Mutex, SyncError
from repro.runtime.thread_state import Frame, ThreadState, ThreadStatus
from repro.tir import ops
from repro.tir.addr import HeapSlot, Indexed, Param, Tls, resolve_addr
from repro.tir.builder import ProgramBuilder
from repro.tir.program import Function, Program
from repro.workloads.synthetic import (
    cas_lock_program,
    heap_churn_program,
    random_program,
)


# -- the reference: the generator interpreter, verbatim ---------------------

class ReferenceExecutor:
    """Interprets a finalized :class:`Program` under a scheduler."""

    def __init__(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        harness: Optional[Harness] = None,
        max_steps: int = 200_000_000,
        pruned_pcs: Optional[FrozenSet[int]] = None,
        gate: Optional["AccessGate"] = None,
    ):
        self.program = program
        self.scheduler = scheduler if scheduler is not None else RandomInterleaver()
        self.cost = cost_model
        self.harness = harness
        self.max_steps = max_steps
        #: Optional pre-access trap (see :class:`AccessGate`).  ``None`` for
        #: every normal run: the gate check then compiles to nothing, so
        #: ungated executions take exactly the same steps as before the
        #: gate existed — the determinism contract replay relies on.
        self.gate = gate
        #: Read/Write PCs whose logging call the static pass pruned from
        #: the instrumented clone; the executor models the missing call by
        #: skipping the memory hook (no log record, no log-cost cycles).
        self.pruned_pcs = frozenset() if pruned_pcs is None \
            else frozenset(pruned_pcs)

        self.heap = Heap()
        self.result = RunResult(program_name=program.name)
        self._threads: Dict[int, ThreadState] = {}
        #: Tids of the RUNNABLE threads, ascending.  Rebuilt (never mutated)
        #: on every status change, so the tuple a scheduler is handed is a
        #: snapshot: a wake during its decision shows at the next step.
        self._runnable: Tuple[int, ...] = ()
        self._next_tid = 0
        self._mutexes: Dict[int, Mutex] = {}
        self._events: Dict[int, Event] = {}
        self._live_threads = 0
        self._current: Optional[int] = None
        self._generators: Dict[int, Generator[None, None, None]] = {}

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _charge(self, cycles: int) -> None:
        self.result.baseline_cycles += cycles
        self.result.clock += cycles

    def _charge_io(self, cycles: int) -> None:
        self.result.io_cycles += cycles
        self.result.clock += cycles

    def _charge_dispatch(self, cycles: int) -> None:
        self.result.dispatch_cycles += cycles
        self.result.clock += cycles

    def _charge_sync_log(self, cycles: int) -> None:
        self.result.sync_log_cycles += cycles
        self.result.clock += cycles

    def _charge_mem_log(self, cycles: int) -> None:
        self.result.memory_log_cycles += cycles
        self.result.clock += cycles

    # ------------------------------------------------------------------
    # Harness hooks
    # ------------------------------------------------------------------
    def _hook_entry(self, tid: int, func_name: str) -> bool:
        self.result.function_calls += 1
        if self.harness is None:
            return False
        instrumented, cycles = self.harness.enter_function(tid, func_name)
        self._charge_dispatch(cycles)
        if instrumented:
            self.result.instrumented_calls += 1
        return instrumented

    def _hook_memory(self, tid: int, addr: int, pc: int, is_write: bool) -> None:
        self.result.sampled_memory_ops += 1
        cycles = self.harness.memory_event(tid, addr, pc, is_write)
        self._charge_mem_log(cycles)

    def _hook_sync(self, tid: int, kind: SyncKind, var: Tuple[str, int],
                   pc: int) -> None:
        self.result.sync_ops += 1
        if self.harness is None:
            return
        cycles = self.harness.sync_event(tid, kind, var, pc, self._live_threads)
        self._charge_sync_log(cycles)

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def _spawn(self, func_name: str, params: Tuple[int, ...]) -> ThreadState:
        tid = self._next_tid
        self._next_tid += 1
        thread = ThreadState(tid, func_name)
        self._generators[tid] = self._thread_body(thread, func_name, params)
        self._threads[tid] = thread
        # The newest tid is the largest, so appending keeps the order.
        self._runnable += (tid,)
        self._live_threads += 1
        self.result.threads_created += 1
        return thread

    def _drop_runnable(self, tid: int) -> None:
        # Like _wake, idempotent: a tid that is not runnable stays out.
        runnable = self._runnable
        at = bisect_left(runnable, tid)
        if at < len(runnable) and runnable[at] == tid:
            self._runnable = runnable[:at] + runnable[at + 1:]

    def _finish_thread(self, thread: ThreadState) -> None:
        thread.status = ThreadStatus.FINISHED
        self._drop_runnable(thread.tid)
        self._live_threads -= 1
        self._hook_sync(thread.tid, SyncKind.THREAD_EXIT, ("thread", thread.tid), -1)
        for joiner_tid in thread.joiners:
            self._wake(joiner_tid)
        thread.joiners.clear()

    def _block(self, thread: ThreadState) -> None:
        thread.status = ThreadStatus.BLOCKED
        self._drop_runnable(thread.tid)

    def _wake(self, tid: int) -> None:
        self._threads[tid].status = ThreadStatus.RUNNABLE
        runnable = self._runnable
        at = bisect_left(runnable, tid)
        if at == len(runnable) or runnable[at] != tid:
            self._runnable = runnable[:at] + (tid,) + runnable[at:]

    def wake_thread(self, tid: int) -> None:
        """Unpark a thread a gate previously parked (gate use only)."""
        self._wake(tid)

    # ------------------------------------------------------------------
    # Interpreter (generator per thread; one yield per instruction)
    # ------------------------------------------------------------------
    def _thread_body(self, thread: ThreadState, func_name: str,
                     params: Tuple[int, ...]) -> Generator[None, None, None]:
        self._hook_sync(thread.tid, SyncKind.THREAD_START,
                        ("thread", thread.tid), -1)
        yield
        yield from self._exec_function(thread, func_name, params)

    def _exec_function(self, thread: ThreadState, func_name: str,
                       params: Tuple[int, ...]) -> Generator[None, None, None]:
        func = self.program.function(func_name)
        instrumented = self._hook_entry(thread.tid, func_name)
        frame = Frame(thread, func_name, params, func.num_slots)
        self._charge(self.cost.call)
        yield
        yield from self._exec_block(thread, frame, func.body, instrumented)
        if self.harness is not None:
            self.harness.exit_function(thread.tid)

    def _exec_block(self, thread: ThreadState, frame: Frame,
                    block: Sequence[ops.Instr],
                    instrumented: bool) -> Generator[None, None, None]:
        for instr in block:
            handler = _HANDLERS.get(type(instr))
            if handler is None:
                raise TypeError(f"unhandled instruction {instr!r}")
            yield from handler(self, thread, frame, instr, instrumented)

    # -- instruction handlers (each yields >= 1 time) ---------------------
    def _do_read(self, thread, frame, instr: ops.Read, instrumented):
        addr = resolve_addr(instr.addr, frame)
        if self.gate is not None:
            yield from self._gate_wait(thread, instr.pc, addr, False)
        self._account_memory(thread, addr, instr.pc, False, instrumented)
        yield

    def _do_write(self, thread, frame, instr: ops.Write, instrumented):
        addr = resolve_addr(instr.addr, frame)
        if self.gate is not None:
            yield from self._gate_wait(thread, instr.pc, addr, True)
        self._account_memory(thread, addr, instr.pc, True, instrumented)
        yield

    def _gate_wait(self, thread: ThreadState, pc: int, addr: int,
                   is_write: bool) -> Generator[None, None, None]:
        # Each parked yield is a step with no effect and no events; the gate
        # (via wake_thread) decides when the access may finally proceed.
        while self.gate.on_access(thread.tid, pc, addr, is_write):
            self._block(thread)
            yield

    def _account_memory(self, thread: ThreadState, addr: int, pc: int,
                        is_write: bool, instrumented: bool) -> None:
        self.result.memory_ops += 1
        if not is_stack_addr(addr):
            self.result.nonstack_memory_ops += 1
        self._charge(self.cost.memory_op)
        if instrumented and self.harness is not None:
            if pc in self.pruned_pcs:
                self.result.pruned_memory_ops += 1
            else:
                self._hook_memory(thread.tid, addr, pc, is_write)

    def _do_compute(self, thread, frame, instr: ops.Compute, instrumented):
        self._charge(self.cost.compute_unit * instr.n)
        yield

    def _do_io(self, thread, frame, instr: ops.Io, instrumented):
        self._charge_io(resolve_addr(instr.duration, frame))
        yield

    def _do_lock(self, thread, frame, instr: ops.Lock, instrumented):
        addr = resolve_addr(instr.var, frame)
        mutex = self._mutexes.setdefault(addr, Mutex())
        if not mutex.acquire(thread.tid):
            self._block(thread)
            yield  # parked until release() hands us ownership
        if instr.via_cas:
            # A user-level CAS lock: the profiler sees a raw atomic op.
            self._charge(self.cost.atomic_rmw)
            self._hook_sync(thread.tid, SyncKind.ATOMIC, ("atomic", addr),
                            instr.pc)
        else:
            self._charge(self.cost.sync_op)
            # Timestamp after acquiring (§4.2) so the unlock that let us in
            # has a smaller timestamp.
            self._hook_sync(thread.tid, SyncKind.LOCK, ("mutex", addr),
                            instr.pc)
        yield

    def _do_unlock(self, thread, frame, instr: ops.Unlock, instrumented):
        addr = resolve_addr(instr.var, frame)
        mutex = self._mutexes.get(addr)
        if mutex is None:
            raise SyncError(f"unlock of never-locked mutex {addr:#x}")
        if instr.via_cas:
            self._charge(self.cost.atomic_rmw)
            self._hook_sync(thread.tid, SyncKind.ATOMIC, ("atomic", addr),
                            instr.pc)
        else:
            self._charge(self.cost.sync_op)
            # Timestamp before releasing (§4.2).
            self._hook_sync(thread.tid, SyncKind.UNLOCK, ("mutex", addr),
                            instr.pc)
        woken = mutex.release(thread.tid)
        if woken is not None:
            self._wake(woken)
        yield

    def _do_wait(self, thread, frame, instr: ops.Wait, instrumented):
        addr = resolve_addr(instr.var, frame)
        event = self._events.setdefault(addr, Event())
        if not event.wait(thread.tid, instr.consume):
            self._block(thread)
            yield  # parked until notify()
        self._charge(self.cost.sync_op)
        # Timestamp after the wait completes (§4.2).
        self._hook_sync(thread.tid, SyncKind.WAIT, ("event", addr), instr.pc)
        yield

    def _do_notify(self, thread, frame, instr: ops.Notify, instrumented):
        addr = resolve_addr(instr.var, frame)
        event = self._events.setdefault(addr, Event())
        self._charge(self.cost.sync_op)
        # Timestamp before the notify takes effect (§4.2).
        self._hook_sync(thread.tid, SyncKind.NOTIFY, ("event", addr), instr.pc)
        for tid in event.notify():
            self._wake(tid)
        yield

    def _do_fork(self, thread, frame, instr: ops.Fork, instrumented):
        params = tuple(resolve_addr(arg, frame) for arg in instr.args)
        self._charge(self.cost.fork)
        child = self._spawn(instr.func, params)
        # Timestamp the fork before the child can run (§4.2): the fork event
        # is emitted now; the child's THREAD_START acquire pairs with it.
        self._hook_sync(thread.tid, SyncKind.FORK, ("thread", child.tid), instr.pc)
        if instr.tid_slot is not None:
            frame.slots[instr.tid_slot] = child.tid
        yield

    def _do_join(self, thread, frame, instr: ops.Join, instrumented):
        target_tid = frame.slots[instr.tid_slot]
        target = self._threads[target_tid]
        if not target.finished:
            target.joiners.append(thread.tid)
            self._block(thread)
            yield  # parked until the target finishes
        self._charge(self.cost.join)
        # Timestamp after the join completes (§4.2).
        self._hook_sync(thread.tid, SyncKind.JOIN, ("thread", target_tid), instr.pc)
        yield

    def _do_atomic(self, thread, frame, instr: ops.AtomicRMW, instrumented):
        addr = resolve_addr(instr.addr, frame)
        self._charge(self.cost.atomic_rmw)
        self._hook_sync(thread.tid, SyncKind.ATOMIC, ("atomic", addr), instr.pc)
        yield

    def _do_alloc(self, thread, frame, instr: ops.Alloc, instrumented):
        base = self.heap.alloc(instr.size)
        frame.slots[instr.slot] = base
        self._charge(self.cost.alloc)
        for page in self.heap.pages_of_block(base, instr.size):
            self._hook_sync(thread.tid, SyncKind.ALLOC_PAGE, ("page", page),
                            instr.pc)
        yield

    def _do_free(self, thread, frame, instr: ops.Free, instrumented):
        base = frame.slots[instr.slot]
        size = self.heap.block_size(base)
        self._charge(self.cost.free)
        for page in self.heap.pages_of_block(base, size):
            self._hook_sync(thread.tid, SyncKind.FREE_PAGE, ("page", page),
                            instr.pc)
        self.heap.free(base)
        yield

    def _do_call(self, thread, frame, instr: ops.Call, instrumented):
        params = tuple(resolve_addr(arg, frame) for arg in instr.args)
        yield from self._exec_function(thread, instr.func, params)

    def _do_loop(self, thread, frame, instr: ops.Loop, instrumented):
        count = resolve_addr(instr.count, frame)
        if count:
            iterations = self.result.loop_iterations
            iterations[instr.pc] = iterations.get(instr.pc, 0) + count
        frame.push_loop()
        try:
            for _ in range(count):
                self._charge(self.cost.loop_iter)
                yield from self._exec_block(thread, frame, instr.body,
                                            instrumented)
                frame.advance_loop()
        finally:
            frame.pop_loop()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, entry_params: Tuple[int, ...] = ()) -> RunResult:
        """Execute the program to completion; return the run's measurements."""
        self._spawn(self.program.entry, entry_params)
        steps = 0
        while True:
            runnable = self._runnable
            if not runnable:
                if self.gate is not None and self.gate.release_all():
                    continue  # a parked thread was the only way forward
                blocked = [
                    t.tid for t in self._threads.values()
                    if t.status is ThreadStatus.BLOCKED
                ]
                if blocked:
                    raise DeadlockError(
                        f"deadlock: threads {blocked} blocked, none runnable"
                    )
                break  # all threads finished
            tid = self.scheduler.next_thread(self._current, runnable)
            thread = self._threads[tid]
            self._current = tid
            try:
                next(self._generators[tid])
            except StopIteration:
                self._finish_thread(thread)
                self._current = None
            steps += 1
            if steps > self.max_steps:
                raise ExecutionLimitError(
                    f"exceeded max_steps={self.max_steps}"
                )
        self.result.steps = steps
        return self.result


_HANDLERS = {
    ops.Read: ReferenceExecutor._do_read,
    ops.Write: ReferenceExecutor._do_write,
    ops.Compute: ReferenceExecutor._do_compute,
    ops.Io: ReferenceExecutor._do_io,
    ops.Lock: ReferenceExecutor._do_lock,
    ops.Unlock: ReferenceExecutor._do_unlock,
    ops.Wait: ReferenceExecutor._do_wait,
    ops.Notify: ReferenceExecutor._do_notify,
    ops.Fork: ReferenceExecutor._do_fork,
    ops.Join: ReferenceExecutor._do_join,
    ops.AtomicRMW: ReferenceExecutor._do_atomic,
    ops.Alloc: ReferenceExecutor._do_alloc,
    ops.Free: ReferenceExecutor._do_free,
    ops.Call: ReferenceExecutor._do_call,
    ops.Loop: ReferenceExecutor._do_loop,
}


# -- observation ------------------------------------------------------------

class Trace:
    """What one run exposed, in order; ``step`` is the decision count."""

    def __init__(self):
        self.step = 0
        self.records: list = []

    def add(self, *record) -> None:
        self.records.append((self.step,) + record)


class StepCounter(Scheduler):
    """Count and record decisions; let the gate wake threads before each."""

    def __init__(self, inner: Scheduler, trace: Trace, gate=None):
        self.inner = inner
        self.trace = trace
        self.gate = gate

    def next_thread(self, current, runnable):
        self.trace.step += 1
        if self.gate is not None:
            self.gate.on_step()
        tid = self.inner.next_thread(current, runnable)
        self.trace.add("decide", current, tuple(runnable), tid)
        return tid


class RecordingHarness(Harness):
    """Implements all four hooks, logging each with its arguments.

    Dispatch decisions and cycle costs come from a seeded RNG, so the two
    interpreters see identical answers only if they ask identical questions
    in the identical order.
    """

    def __init__(self, trace: Trace, seed: int):
        self.trace = trace
        self.rng = random.Random(seed)

    def enter_function(self, tid, func_name):
        answer = (self.rng.random() < 0.6, self.rng.randrange(9))
        self.trace.add("enter", tid, func_name, answer)
        return answer

    def exit_function(self, tid):
        self.trace.add("exit", tid)

    def memory_event(self, tid, addr, pc, is_write):
        cycles = self.rng.randrange(1, 6)
        self.trace.add("memory", tid, addr, pc, is_write, cycles)
        return cycles

    def sync_event(self, tid, kind, var, pc, active_threads):
        cycles = self.rng.randrange(4)
        self.trace.add("sync", tid, kind, var, pc, active_threads, cycles)
        return cycles


class RandomGate(AccessGate):
    """Park accesses at random; wake parked threads inside later decisions."""

    def __init__(self, trace: Trace, seed: int, park_prob: float = 0.2,
                 wake_prob: float = 0.3):
        self.trace = trace
        self.rng = random.Random(seed)
        self.park_prob = park_prob
        self.wake_prob = wake_prob
        self.parked: list = []
        self.executor = None

    def on_access(self, tid, pc, addr, is_write):
        park = self.rng.random() < self.park_prob
        self.trace.add("gate", tid, pc, addr, is_write, park)
        if park:
            self.parked.append(tid)
        return park

    def on_step(self) -> None:
        if self.parked and self.rng.random() < self.wake_prob:
            tid = self.parked.pop(0)
            self.trace.add("wake", tid)
            self.executor.wake_thread(tid)

    def release_all(self):
        self.trace.add("release_all", tuple(self.parked))
        parked, self.parked = self.parked, []
        for tid in parked:
            self.executor.wake_thread(tid)
        return bool(parked)


FAILURES = (DeadlockError, ExecutionLimitError, SyncError, HeapError,
            TypeError)


def observe(executor_cls, program: Program, scheduler: Scheduler, *,
            harness_seed: Optional[int] = 0, gate_seed: Optional[int] = None,
            pruned_pcs: FrozenSet[int] = frozenset(),
            max_steps: int = 200_000) -> dict:
    """Run ``program`` once on ``executor_cls``; return all it exposed."""
    trace = Trace()
    gate = None if gate_seed is None else RandomGate(trace, gate_seed)
    harness = (None if harness_seed is None
               else RecordingHarness(trace, harness_seed))
    executor = executor_cls(program, scheduler=StepCounter(scheduler, trace,
                                                           gate),
                            harness=harness, max_steps=max_steps,
                            pruned_pcs=pruned_pcs, gate=gate)
    if gate is not None:
        gate.executor = executor
    failure = None
    try:
        executor.run()
    except FAILURES as exc:
        failure = (type(exc), str(exc), trace.step)
    return {
        "failure": failure,
        "result": dataclasses.asdict(executor.result),
        "heap": sorted(executor.heap.live_blocks),
        "threads": [(t.tid, t.status, list(t.joiners))
                    for t in executor._threads.values()],
        "trace": trace.records,
    }


def assert_same_run(program: Program, scheduler: Scheduler, **options) -> dict:
    expected = observe(ReferenceExecutor, program, scheduler.fresh(), **options)
    actual = observe(Executor, program, scheduler.fresh(), **options)
    # Point at the first diverging record rather than dumping both traces.
    for index, (want, got) in enumerate(zip(expected["trace"],
                                            actual["trace"])):
        assert got == want, f"trace diverges at record {index}"
    assert len(actual["trace"]) == len(expected["trace"])
    assert actual == expected
    return actual


# -- randomized programs ----------------------------------------------------

PROGRAMS = st.one_of(
    st.builds(lambda seed, threads, helpers, calls, alloc: random_program(
        seed, threads=threads, helpers=helpers, calls_per_thread=calls,
        alloc_prob=alloc),
        st.integers(0, 2**20), st.integers(1, 4), st.integers(1, 5),
        st.integers(1, 30), st.sampled_from([0.0, 0.2, 0.8])),
    st.builds(lambda threads, iterations: cas_lock_program(
        threads=threads, iterations=iterations),
        st.integers(1, 4), st.integers(0, 30)),
    st.builds(lambda threads, iterations, size: heap_churn_program(
        threads=threads, iterations=iterations, block_size=size),
        st.integers(1, 4), st.integers(0, 12), st.sampled_from([16, 64, 5000])),
)

SCHEDULERS = st.one_of(
    st.builds(RandomInterleaver, st.integers(0, 2**20),
              st.sampled_from([0.05, 0.3, 0.9])),
    st.builds(RoundRobinScheduler, st.integers(1, 7)),
    st.builds(ChaosScheduler, st.integers(0, 2**20), st.integers(0, 5),
              st.sampled_from([20, 300, 3000])),
)


@settings(max_examples=5000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=PROGRAMS, scheduler=SCHEDULERS,
       harness_seed=st.one_of(st.none(), st.integers(0, 2**16)),
       gate_seed=st.one_of(st.none(), st.integers(0, 2**16)),
       prune_every=st.sampled_from([0, 2, 5]))
def test_synthetic_programs_match_reference(program, scheduler, harness_seed,
                                            gate_seed, prune_every):
    pruned = frozenset(range(0, 10_000, prune_every)) if prune_every \
        else frozenset()
    assert_same_run(program, scheduler, harness_seed=harness_seed,
                    gate_seed=gate_seed, pruned_pcs=pruned)


# -- hand-built edge programs -----------------------------------------------

def _build(define) -> Program:
    b = ProgramBuilder("edge")
    define(b)
    return b.build(entry="main")


def zero_trip_loops(b):
    x, y = b.global_addr("x"), b.global_addr("y")
    with b.function("tail_zero_trip", params=1) as f:
        f.write(x)
        with f.loop(Param(0)):
            f.write(y)
    with b.function("worker", params=1) as f:
        f.read(x)
        with f.loop(0):
            f.write(y)
        # A loop whose body is only a zero-trip loop: no step at all.
        with f.loop(3):
            with f.loop(0):
                f.write(y)
        with f.loop(Param(0)):
            with f.loop(Param(0)):
                f.read(Tls(0))
        f.call("tail_zero_trip", Param(0))
        f.read(y)
        f.call("tail_zero_trip", 0)
        f.call("tail_zero_trip", -2)
    with b.function("main", slots=3) as f:
        f.fork("worker", 0, tid_slot=0)
        f.fork("worker", 2, tid_slot=1)
        f.fork("worker", -1, tid_slot=2)
        for slot in range(3):
            f.join(slot)


def indexed_outer_loop(b):
    grid = b.global_array("grid", 64)
    with b.function("walk", params=1) as f:
        with f.loop(3):
            with f.loop(Param(0)):
                f.write(Indexed(grid, 8, depth=1))
                f.read(Indexed(Indexed(grid, 64, depth=1), 8, depth=0))
            f.read(Indexed(grid, 8))
    with b.function("main", slots=2) as f:
        f.fork("walk", 2, tid_slot=0)
        f.fork("walk", 1, tid_slot=1)
        f.write(Tls(0))  # thread 0's first private byte: still stack
        f.call("walk", 3)
        f.join(0)
        f.join(1)


def calls_at_block_ends(b):
    x = b.global_addr("x")
    with b.function("leaf") as f:
        f.write(x)
    with b.function("middle") as f:
        f.read(x)
        f.call("leaf")
    with b.function("looper", params=1) as f:
        with f.loop(Param(0)):
            f.compute(1)
            f.call("middle")
        with f.loop(2):
            f.call("leaf")
    with b.function("outer") as f:
        f.call("looper", 2)
    with b.function("main", slots=2) as f:
        f.fork("outer", tid_slot=0)
        f.fork("looper", 3, tid_slot=1)
        f.call("middle")
        f.join(0)
        f.join(1)


def empty_functions(b):
    with b.function("empty"):
        pass
    with b.function("calls_empty") as f:
        f.call("empty")
        f.call("empty")
        with f.loop(2):
            f.call("empty")
    with b.function("main", slots=3) as f:
        f.fork("empty", tid_slot=0)
        f.call("empty")
        f.fork("calls_empty", tid_slot=1)
        f.fork("empty", tid_slot=2)
        f.join(0)
        f.call("calls_empty")
        f.join(1)
        f.join(2)


def blocking_sync(b):
    lock, cas = b.global_addr("lock"), b.global_addr("cas")
    sem, gate = b.global_addr("sem"), b.global_addr("gate")
    x = b.global_addr("x")
    with b.function("locker", params=1) as f:
        f.lock(lock)
        f.write(x)
        f.io(Param(0))
        f.unlock(lock)
        f.lock(cas, via_cas=True)
        f.read(x)
        f.unlock(cas, via_cas=True)
    with b.function("consumer") as f:
        f.wait(sem)                  # consuming: one signal each
        f.wait(gate, consume=False)  # sticky: all pass once signaled
        f.read(x)
    with b.function("producer") as f:
        f.notify(sem)
        f.compute(3)
        f.notify(gate)
        f.notify(sem)
        f.notify(sem)
    with b.function("main", slots=6) as f:
        f.fork("locker", 5, tid_slot=0)
        f.fork("locker", 0, tid_slot=1)
        f.fork("consumer", tid_slot=2)
        f.fork("consumer", tid_slot=3)
        f.join(0)                    # most likely blocks
        f.fork("producer", tid_slot=4)
        f.join(2)
        f.join(4)
        f.compute(2)
        f.join(1)                    # long finished: immediate
        f.join(3)
        f.wait(gate, consume=False)  # signaled long ago: immediate
        f.wait(sem)                  # the spare signal: immediate
        f.alloc(5000, 5)
        f.write(HeapSlot(5, 4096))
        f.free(5)


EDGE_PROGRAMS = {
    "zero-trip-loops": zero_trip_loops,
    "indexed-depth-1": indexed_outer_loop,
    "calls-at-block-ends": calls_at_block_ends,
    "empty-functions": empty_functions,
    "blocking-sync": blocking_sync,
}

EDGE_SCHEDULERS = {
    "rr1": lambda: RoundRobinScheduler(quantum=1),
    "rr2": lambda: RoundRobinScheduler(quantum=2),
    "rr5": lambda: RoundRobinScheduler(quantum=5),
    "random0": lambda: RandomInterleaver(seed=0, switch_prob=0.5),
    "random7": lambda: RandomInterleaver(seed=7, switch_prob=0.2),
    "chaos": lambda: ChaosScheduler(seed=3, change_points=3,
                                    expected_steps=60),
}


@pytest.mark.parametrize("scheduler", sorted(EDGE_SCHEDULERS))
@pytest.mark.parametrize("program", sorted(EDGE_PROGRAMS))
def test_edge_program_matches_reference(program, scheduler):
    built = _build(EDGE_PROGRAMS[program])
    for harness_seed in (None, 0, 1):
        run = assert_same_run(built, EDGE_SCHEDULERS[scheduler](),
                              harness_seed=harness_seed)
        assert run["failure"] is None
    assert_same_run(built, EDGE_SCHEDULERS[scheduler](), gate_seed=4)


def _acquisitions(records) -> Tuple[set, set]:
    """(blocked, immediate) acquires seen in a trace, as (kind, var).

    A live thread missing from a decision's ``runnable`` is blocked; the
    next sync event it emits is the acquire that blocked it.
    """
    live, finished, waiting = set(), set(), set()
    blocked, immediate = set(), set()
    for record in records:
        if record[1] == "decide":
            live.update(record[3])
            waiting |= live - finished - set(record[3])
        elif record[1] == "sync":
            tid, kind, var = record[2:5]
            if kind is SyncKind.THREAD_EXIT:
                finished.add(tid)
            elif kind in (SyncKind.LOCK, SyncKind.ATOMIC, SyncKind.WAIT,
                          SyncKind.JOIN):
                (blocked if tid in waiting else immediate).add((kind, var))
            waiting.discard(tid)
    return blocked, immediate


def test_edge_programs_reach_their_paths():
    # Across the edge schedulers, every blocking instruction of
    # blocking_sync both blocks and passes straight through.
    b = ProgramBuilder("edge")
    blocking_sync(b)
    addr = b.global_addr
    blocked, immediate = set(), set()
    for make in EDGE_SCHEDULERS.values():
        run = assert_same_run(_build(blocking_sync), make())
        more_blocked, more_immediate = _acquisitions(run["trace"])
        blocked |= more_blocked
        immediate |= more_immediate
    wanted = {(SyncKind.LOCK, ("mutex", addr("lock"))),
              (SyncKind.ATOMIC, ("atomic", addr("cas"))),
              (SyncKind.WAIT, ("event", addr("sem"))),
              (SyncKind.WAIT, ("event", addr("gate"))),
              (SyncKind.JOIN, ("thread", 1))}
    assert wanted <= blocked
    assert wanted <= immediate
    # Empty bodies still enter and return.
    run = assert_same_run(_build(empty_functions),
                          RoundRobinScheduler(quantum=1))
    hooks = [record[1] for record in run["trace"]]
    assert hooks.count("enter") == hooks.count("exit") == 14


def test_gate_parks_and_later_wakes():
    run = assert_same_run(_build(indexed_outer_loop),
                          RandomInterleaver(seed=2, switch_prob=0.3),
                          gate_seed=2)
    records = run["trace"]
    assert any(record[1] == "wake" for record in records)
    assert any(record[1] == "release_all" and record[2] for record in records)
    # A parked access re-asks the gate on the thread's next step.
    last_gate = {}
    reasked = 0
    for record in records:
        if record[1] == "gate":
            tid, pc, park = record[2], record[3], record[-1]
            if last_gate.get(tid, (None, False)) == (pc, True):
                reasked += 1
            last_gate[tid] = (pc, park)
    assert reasked > 0


# -- failing runs -----------------------------------------------------------

def lock_order_deadlock(b):
    a, c = b.global_addr("a"), b.global_addr("c")
    with b.function("ab") as f:
        f.lock(a)
        f.compute(1)
        f.lock(c)
        f.unlock(c)
        f.unlock(a)
    with b.function("ca") as f:
        f.lock(c)
        f.compute(1)
        f.lock(a)
        f.unlock(a)
        f.unlock(c)
    with b.function("main", slots=2) as f:
        f.fork("ab", tid_slot=0)
        f.fork("ca", tid_slot=1)
        f.join(0)
        f.join(1)


def never_notified(b):
    with b.function("waiter") as f:
        f.wait(b.global_addr("ev"))
    with b.function("main", slots=1) as f:
        f.fork("waiter", tid_slot=0)
        f.join(0)


def unlock_never_locked(b):
    with b.function("main") as f:
        f.write(b.global_addr("x"))
        with f.loop(2):
            f.compute(1)
        f.unlock(b.global_addr("m"))


def double_free(b):
    with b.function("main", slots=1) as f:
        f.alloc(64, 0)
        f.free(0)
        f.free(0)


class Halt(ops.Instr):
    """An instruction no interpreter knows: fails when reached, not before."""


def unknown_instruction() -> Program:
    x = 0x1000
    return Program([
        Function("odd", (ops.Write(x), Halt())),
        Function("main", (ops.Fork("odd", tid_slot=0),
                          ops.Loop(2, (ops.Read(x),)), ops.Join(0)),
                 num_slots=1),
    ], entry="main")


FAILING = {
    "deadlock-lock-order": (lambda: _build(lock_order_deadlock),
                            DeadlockError, 10**6),
    "deadlock-wait": (lambda: _build(never_notified), DeadlockError, 10**6),
    "max-steps": (lambda: _build(calls_at_block_ends), ExecutionLimitError,
                  17),
    "unlock-never-locked": (lambda: _build(unlock_never_locked), SyncError,
                            10**6),
    "double-free": (lambda: _build(double_free), HeapError, 10**6),
    "unknown-instruction": (unknown_instruction, TypeError, 10**6),
}


@pytest.mark.parametrize("harness_seed", [None, 0])
@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_run_matches_reference(case, harness_seed):
    build, error, max_steps = FAILING[case]
    run = assert_same_run(build(), RoundRobinScheduler(quantum=1),
                          harness_seed=harness_seed, max_steps=max_steps)
    assert run["failure"][0] is error


@pytest.mark.parametrize("workload", ["kv-store", "lkrhash", "dryad"])
def test_workload_matches_reference(workload):
    program = workloads.build(workload, seed=3, scale=0.01)
    assert_same_run(program, RandomInterleaver(seed=3, switch_prob=0.2),
                    harness_seed=5)
