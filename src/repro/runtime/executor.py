"""The TIR interpreter: seeded interleaved execution with cost accounting.

The executor is the machine under test.  It steps one instruction of one
thread at a time (the scheduler picks which), maintains a virtual clock in
cost-model cycles, and exposes the hooks LiteRace instruments:

* at every function entry it consults the attached :class:`Harness` for the
  dispatch decision (instrumented vs uninstrumented copy) and its cost;
* every memory access executed by an *instrumented* function body is
  reported to the harness for logging;
* every synchronization operation is reported regardless of which copy is
  executing, because the happens-before graph must stay complete (§3.2).

Running with ``harness=None`` is the uninstrumented baseline configuration
of the paper's Figure 6.

Cost accounting is decomposed exactly as in Figure 6: baseline application
cycles, dispatch-check cycles, synchronization-logging cycles, and sampled-
memory-logging cycles, plus I/O time that is unaffected by instrumentation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Generator, Optional, Sequence, Tuple

from ..eventlog.events import SyncKind
from ..layout import is_stack_addr
from ..tir.addr import resolve_addr
from ..tir import ops
from ..tir.program import Program
from .cost import DEFAULT_COST_MODEL, CostModel
from .memory import Heap
from .scheduler import RandomInterleaver, Scheduler
from .sync import Event, Mutex
from .thread_state import Frame, ThreadState, ThreadStatus

__all__ = ["Executor", "Harness", "AccessGate", "RunResult", "DeadlockError",
           "ExecutionLimitError"]


class DeadlockError(RuntimeError):
    """All live threads are blocked."""


class ExecutionLimitError(RuntimeError):
    """The run exceeded ``max_steps`` (defends against runaway programs)."""


class AccessGate:
    """Pre-access trap interface used by directed schedulers.

    When an executor carries a gate, every Read/Write consults it *before*
    the access takes effect.  Returning True parks the thread (it blocks and
    the step completes without the access happening); the gate re-decides on
    every subsequent step of that thread until it answers False, at which
    point the access proceeds.  A parked step performs no work and emits no
    events, so a recorded schedule with parked steps removed replays the
    identical execution on a gate-less executor — the property the race
    validator's witness traces are built on.

    Gates wake parked threads via :meth:`Executor.wake_thread`; if every
    live thread ends up blocked while the gate holds threads parked, the
    executor asks the gate to release them instead of declaring deadlock.
    """

    def on_access(self, tid: int, pc: int, addr: int, is_write: bool) -> bool:
        """Return True to park ``tid`` immediately before this access."""
        raise NotImplementedError

    def release_all(self) -> bool:
        """Unpark everything (deadlock fallback); True if anything woke."""
        return False


class Harness:
    """Instrumentation hook interface implemented by :mod:`repro.core`.

    The executor charges the returned cycle counts to the matching Figure-6
    bucket.  A harness that always returns ``(False, 0)`` / ``0`` is
    equivalent to no instrumentation.
    """

    def enter_function(self, tid: int, func_name: str) -> Tuple[bool, int]:
        """Dispatch check: return (run instrumented copy?, cycles spent)."""
        raise NotImplementedError

    def exit_function(self, tid: int) -> None:
        """Called when the function whose entry was last reported returns.

        Entries and exits are properly nested per thread; harnesses that
        track per-activation state (the §5.3 marked harness) maintain a
        stack keyed by tid.
        """

    def memory_event(self, tid: int, addr: int, pc: int, is_write: bool) -> int:
        """Log a sampled memory access; return cycles spent."""
        raise NotImplementedError

    def sync_event(self, tid: int, kind: SyncKind, var: Tuple[str, int],
                   pc: int, active_threads: int) -> int:
        """Log a synchronization op; return cycles spent."""
        raise NotImplementedError


@dataclass
class RunResult:
    """Everything measured about one execution."""

    program_name: str
    #: Total virtual time (cycles), including I/O and instrumentation.
    clock: int = 0
    #: Cycles the uninstrumented application would spend computing.
    baseline_cycles: int = 0
    #: Virtual time spent blocked on I/O (identical with/without the tool).
    io_cycles: int = 0
    #: Instrumentation cycles, by Figure-6 bucket.
    dispatch_cycles: int = 0
    sync_log_cycles: int = 0
    memory_log_cycles: int = 0
    #: Dynamic operation counts.
    memory_ops: int = 0
    nonstack_memory_ops: int = 0
    sampled_memory_ops: int = 0
    #: Memory ops whose log call the static pass removed (repro.staticpass):
    #: sampled by the dispatch check but never logged.
    pruned_memory_ops: int = 0
    sync_ops: int = 0
    function_calls: int = 0
    instrumented_calls: int = 0
    threads_created: int = 0
    steps: int = 0
    #: Dynamic iteration count per static Loop instruction (keyed by the
    #: loop's pc) — the offline profile §7 suggests for finding the
    #: high-trip-count loops worth splitting.
    loop_iterations: Dict[int, int] = field(default_factory=dict)

    @property
    def baseline_time(self) -> int:
        """Virtual time an uninstrumented run of this execution would take."""
        return self.baseline_cycles + self.io_cycles

    @property
    def instrumentation_cycles(self) -> int:
        return self.dispatch_cycles + self.sync_log_cycles + self.memory_log_cycles

    @property
    def slowdown(self) -> float:
        """Run time relative to the uninstrumented baseline (1.0 = no cost)."""
        if self.baseline_time == 0:
            return 1.0
        return self.clock / self.baseline_time

    @property
    def effective_sampling_rate(self) -> float:
        """Fraction of dynamic memory ops that were logged."""
        if self.memory_ops == 0:
            return 0.0
        return self.sampled_memory_ops / self.memory_ops


class Executor:
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
        thread.generator = self._thread_body(thread, func_name, params)
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
            thread.instructions_retired += 1
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
            from .sync import SyncError

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
                next(thread.generator)
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
    ops.Read: Executor._do_read,
    ops.Write: Executor._do_write,
    ops.Compute: Executor._do_compute,
    ops.Io: Executor._do_io,
    ops.Lock: Executor._do_lock,
    ops.Unlock: Executor._do_unlock,
    ops.Wait: Executor._do_wait,
    ops.Notify: Executor._do_notify,
    ops.Fork: Executor._do_fork,
    ops.Join: Executor._do_join,
    ops.AtomicRMW: Executor._do_atomic,
    ops.Alloc: Executor._do_alloc,
    ops.Free: Executor._do_free,
    ops.Call: Executor._do_call,
    ops.Loop: Executor._do_loop,
}
