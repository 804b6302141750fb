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

Each thread is a stack of block cursors (:class:`~repro.runtime.
thread_state.Cursor`), one per active function body and running loop, and
every block is decoded once per executor into ``(handler, instruction)``
pairs.  ``_step`` runs one scheduling step of one thread.  Which work lands
in which step is part of the determinism contract (schedulers count steps,
and hooks are observed in step order), so it is fixed:

* A thread's first step emits its THREAD_START event; its second enters
  its entry function.
* A step that finds a *pending continuation* runs it and ends: the rest of
  a Lock, Wait or Join that blocked (its cycle charge and sync event, once
  woken), the gate's next decision on a parked Read or Write (the access
  happens in the step the gate lets it through), or the entry call.
* Otherwise the step first closes the blocks whose last instruction ran in
  an earlier step: a function body returns (``Harness.exit_function``), a
  loop takes its back edge (``advance_loop``, a ``loop_iter`` charge and
  the next iteration) or ends (``pop_loop``).  It then runs the next
  instruction.  Every instruction ends the step except ``Loop``, which
  charges its first ``loop_iter`` and goes on into its body (or, with a
  trip count of zero or less, past itself).  ``Call`` ends the step once
  the callee is entered (dispatch check, new frame, ``call`` charge).
* When the stack is empty (the entry function has returned), the step
  finishes the thread: THREAD_EXIT, then its joiners wake.  Like every
  return, this lands in a later step than the instruction that ended the
  function's last step.

``tests/test_executor_differential.py`` holds this contract to the
generator-per-thread interpreter the cursor stack replaced.

:meth:`Executor.run` runs the steps in slices.  A scheduler that hands over
its preemption test (:meth:`~repro.runtime.scheduler.Scheduler.preemption`)
is asked for a thread only when a slice starts; the executor then steps
that thread until it finishes, blocks or the test fires, drawing the test
itself between steps.  Every other scheduler gets one-step slices, so it
still decides before every step.  Either way each step is the same
``_step`` call, so the step contract does not change, and a policy decides
the same interleaving from the same draws both ways
(``tests/test_slice_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..eventlog.events import SyncKind
from ..layout import is_stack_addr
from ..tir.addr import resolve_addr
from ..tir import ops
from ..tir.program import Program
from .cost import DEFAULT_COST_MODEL, CostModel
from .memory import Heap
from .scheduler import RandomInterleaver, Scheduler
from .sync import Event, Mutex, SyncError
from .thread_state import Cursor, Frame, ThreadState, ThreadStatus

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

        The return is not part of the function's last instruction: it runs
        at the start of the thread's next step, before anything else that
        step does.  Entries and exits are properly nested per thread;
        harnesses that track per-activation state (the §5.3 marked harness)
        maintain a stack keyed by tid.
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
        #: Blocks decoded once per executor into (handler, instr) pairs:
        #: function bodies with their slot counts by name, loop bodies by
        #: their Loop instruction.
        self._bodies: Dict[str, Tuple[tuple, int]] = {}
        self._loop_bodies: Dict[ops.Loop, tuple] = {}

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
        thread.pending = partial(self._start_thread, thread, func_name, params)
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
    # Interpreter (a cursor stack per thread; see the module docstring)
    # ------------------------------------------------------------------
    @staticmethod
    def _decode(block: Sequence[ops.Instr]) -> Tuple[tuple, ...]:
        """``block`` as ``(handler, instruction)`` pairs."""
        # Plain functions, not bound methods: an executor that referred to
        # itself would outlive its run until the cycle collector ran, and
        # with it the harness and its whole event log.
        unhandled = Executor._do_unhandled
        return tuple((_HANDLERS.get(type(instr), unhandled), instr)
                     for instr in block)

    def _step(self, thread: ThreadState) -> bool:
        """Run one step of ``thread``; True when it has nothing left to run.

        A step first finishes whatever the thread's previous step left
        open: a pending continuation, or the returns and loop back edges
        after a block's last instruction.  It then runs instructions until
        one ends the step; only an entered loop does not.
        """
        pending = thread.pending
        if pending is not None:
            thread.pending = None
            pending()
            return False
        cursors = thread.cursors
        while cursors:
            cursor = cursors[-1]
            index = cursor.index
            pairs = cursor.pairs
            if index < len(pairs):
                cursor.index = index + 1
                handler, instr = pairs[index]
                if handler(self, thread, cursor.frame, instr,
                           cursor.instrumented):
                    return False
            elif cursor.left is None:
                cursors.pop()
                if self.harness is not None:
                    self.harness.exit_function(thread.tid)
            else:
                cursor.frame.advance_loop()
                if cursor.left:
                    cursor.left -= 1
                    cursor.index = 0
                    self._charge(self.cost.loop_iter)
                else:
                    cursor.frame.pop_loop()
                    cursors.pop()
        return True

    def _start_thread(self, thread: ThreadState, func_name: str,
                      params: Tuple[int, ...]) -> None:
        self._hook_sync(thread.tid, SyncKind.THREAD_START,
                        ("thread", thread.tid), -1)
        thread.pending = partial(self._enter_function, thread, func_name,
                                 params)

    def _enter_function(self, thread: ThreadState, func_name: str,
                        params: Tuple[int, ...]) -> None:
        body = self._bodies.get(func_name)
        if body is None:
            func = self.program.function(func_name)
            body = self._bodies[func_name] = (self._decode(func.body),
                                              func.num_slots)
        pairs, num_slots = body
        instrumented = self._hook_entry(thread.tid, func_name)
        frame = Frame(thread, func_name, params, num_slots)
        self._charge(self.cost.call)
        thread.cursors.append(Cursor(pairs, frame, instrumented))

    # -- instruction handlers (True: the step ends here) -------------------
    def _do_unhandled(self, thread, frame, instr, instrumented):
        raise TypeError(f"unhandled instruction {instr!r}")

    def _do_access(self, thread, frame, instr, instrumented):
        # Read and Write: most of all steps, hence the inlined accounting.
        addr = instr.addr
        if not isinstance(addr, int):
            addr = addr.resolve(frame)
        if self.gate is not None and self.gate.on_access(
                thread.tid, instr.pc, addr, instr.is_write):
            # Parked: the step has no effect and no events.  The thread's
            # next step runs the whole access again, so the gate decides
            # anew (the address cannot change while the thread is parked).
            self._block(thread)
            thread.pending = partial(self._do_access, thread, frame, instr,
                                     instrumented)
            return True
        result = self.result
        result.memory_ops += 1
        if not is_stack_addr(addr):
            result.nonstack_memory_ops += 1
        cycles = self.cost.memory_op
        result.baseline_cycles += cycles
        result.clock += cycles
        if instrumented:
            if instr.pc in self.pruned_pcs:
                result.pruned_memory_ops += 1
            else:
                self._hook_memory(thread.tid, addr, instr.pc, instr.is_write)
        return True

    def _do_compute(self, thread, frame, instr: ops.Compute, instrumented):
        self._charge(self.cost.compute_unit * instr.n)
        return True

    def _do_io(self, thread, frame, instr: ops.Io, instrumented):
        self._charge_io(resolve_addr(instr.duration, frame))
        return True

    def _do_lock(self, thread, frame, instr: ops.Lock, instrumented):
        addr = resolve_addr(instr.var, frame)
        mutex = self._mutexes.setdefault(addr, Mutex())
        if mutex.acquire(thread.tid):
            self._locked(thread, instr, addr)
        else:
            # Parked until release() hands us ownership.
            self._block(thread)
            thread.pending = partial(self._locked, thread, instr, addr)
        return True

    def _locked(self, thread: ThreadState, instr: ops.Lock, addr: int) -> None:
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
        return True

    def _do_wait(self, thread, frame, instr: ops.Wait, instrumented):
        addr = resolve_addr(instr.var, frame)
        event = self._events.setdefault(addr, Event())
        if event.wait(thread.tid, instr.consume):
            self._waited(thread, instr, addr)
        else:
            # Parked until notify().
            self._block(thread)
            thread.pending = partial(self._waited, thread, instr, addr)
        return True

    def _waited(self, thread: ThreadState, instr: ops.Wait, addr: int) -> None:
        self._charge(self.cost.sync_op)
        # Timestamp after the wait completes (§4.2).
        self._hook_sync(thread.tid, SyncKind.WAIT, ("event", addr), instr.pc)

    def _do_notify(self, thread, frame, instr: ops.Notify, instrumented):
        addr = resolve_addr(instr.var, frame)
        event = self._events.setdefault(addr, Event())
        self._charge(self.cost.sync_op)
        # Timestamp before the notify takes effect (§4.2).
        self._hook_sync(thread.tid, SyncKind.NOTIFY, ("event", addr), instr.pc)
        for tid in event.notify():
            self._wake(tid)
        return True

    def _do_fork(self, thread, frame, instr: ops.Fork, instrumented):
        params = tuple(resolve_addr(arg, frame) for arg in instr.args)
        self._charge(self.cost.fork)
        child = self._spawn(instr.func, params)
        # Timestamp the fork before the child can run (§4.2): the fork event
        # is emitted now; the child's THREAD_START acquire pairs with it.
        self._hook_sync(thread.tid, SyncKind.FORK, ("thread", child.tid), instr.pc)
        if instr.tid_slot is not None:
            frame.slots[instr.tid_slot] = child.tid
        return True

    def _do_join(self, thread, frame, instr: ops.Join, instrumented):
        target_tid = frame.slots[instr.tid_slot]
        target = self._threads[target_tid]
        if target.finished:
            self._joined(thread, instr, target_tid)
        else:
            # Parked until the target finishes.
            target.joiners.append(thread.tid)
            self._block(thread)
            thread.pending = partial(self._joined, thread, instr, target_tid)
        return True

    def _joined(self, thread: ThreadState, instr: ops.Join,
                target_tid: int) -> None:
        self._charge(self.cost.join)
        # Timestamp after the join completes (§4.2).
        self._hook_sync(thread.tid, SyncKind.JOIN, ("thread", target_tid), instr.pc)

    def _do_atomic(self, thread, frame, instr: ops.AtomicRMW, instrumented):
        addr = resolve_addr(instr.addr, frame)
        self._charge(self.cost.atomic_rmw)
        self._hook_sync(thread.tid, SyncKind.ATOMIC, ("atomic", addr), instr.pc)
        return True

    def _do_alloc(self, thread, frame, instr: ops.Alloc, instrumented):
        base = self.heap.alloc(instr.size)
        frame.slots[instr.slot] = base
        self._charge(self.cost.alloc)
        for page in self.heap.pages_of_block(base, instr.size):
            self._hook_sync(thread.tid, SyncKind.ALLOC_PAGE, ("page", page),
                            instr.pc)
        return True

    def _do_free(self, thread, frame, instr: ops.Free, instrumented):
        base = frame.slots[instr.slot]
        size = self.heap.block_size(base)
        self._charge(self.cost.free)
        for page in self.heap.pages_of_block(base, size):
            self._hook_sync(thread.tid, SyncKind.FREE_PAGE, ("page", page),
                            instr.pc)
        self.heap.free(base)
        return True

    def _do_call(self, thread, frame, instr: ops.Call, instrumented):
        params = tuple(resolve_addr(arg, frame) for arg in instr.args)
        self._enter_function(thread, instr.func, params)
        return True

    def _do_loop(self, thread, frame, instr: ops.Loop, instrumented):
        count = resolve_addr(instr.count, frame)
        if count:
            iterations = self.result.loop_iterations
            iterations[instr.pc] = iterations.get(instr.pc, 0) + count
        if count > 0:
            body = self._loop_bodies.get(instr)
            if body is None:
                body = self._loop_bodies[instr] = self._decode(instr.body)
            frame.push_loop()
            self._charge(self.cost.loop_iter)
            thread.cursors.append(Cursor(body, frame, instrumented, count - 1))
        # The step goes on into the body, or past a loop that never ran.
        return False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, entry_params: Tuple[int, ...] = ()) -> RunResult:
        """Execute the program to completion; return the run's measurements.

        Each pass of the outer loop runs one slice: the scheduler picks a
        thread, which then steps until it finishes, blocks, or the
        scheduler's preemption test fires (see
        :meth:`~repro.runtime.scheduler.Scheduler.preemption`).  Without a
        preemption test every slice is one step, so the scheduler decides
        before every step.
        """
        self._spawn(self.program.entry, entry_params)
        next_thread = self.scheduler.next_thread
        preemption = self.scheduler.preemption()
        draw, switch_prob = (None, 0.0) if preemption is None else preemption
        threads = self._threads
        step = self._step
        max_steps = self.max_steps
        runnable_status = ThreadStatus.RUNNABLE
        current: Optional[int] = None
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
            current = next_thread(current, runnable)
            thread = threads[current]
            while True:
                if step(thread):
                    self._finish_thread(thread)
                    current = None
                steps += 1
                if steps > max_steps:
                    raise ExecutionLimitError(
                        f"exceeded max_steps={max_steps}"
                    )
                # A blocked thread stays ``current``: the next decision
                # sees it is no longer runnable.
                if (draw is None or current is None
                        or thread.status is not runnable_status):
                    break
                if draw() < switch_prob:
                    current = None  # preempted: the draw is already spent
                    break
        self.result.steps = steps
        return self.result


_HANDLERS = {
    ops.Read: Executor._do_access,
    ops.Write: Executor._do_access,
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
