"""The TIR instruction set.

A TIR program is the reproduction's stand-in for the x86 binaries that the
paper instruments with the Phoenix compiler.  Functions are sequences of the
instructions defined here; the interpreter in :mod:`repro.runtime.executor`
gives them their dynamic semantics, and the instrumentation pass in
:mod:`repro.core.instrument` rewrites them the way LiteRace rewrites machine
code.

Instructions are ordinary (non-frozen) dataclasses compared by identity:
every static occurrence of an instruction in a program is a distinct object,
and program finalization stamps each with a unique program counter (``pc``).
Static data races are reported as pairs of these PCs, mirroring the paper's
grouping of dynamic races "based on the pair of instructions (identified by
the value of the program counter)".

The memory-operand instructions accept either a concrete ``int`` address or
any :class:`~repro.tir.addr.AddrExpr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple, Union

from .addr import AddrExpr, AddrLike

__all__ = [
    "Instr",
    "Read",
    "Write",
    "Compute",
    "Io",
    "Lock",
    "Unlock",
    "Wait",
    "Notify",
    "Fork",
    "Join",
    "AtomicRMW",
    "Alloc",
    "Free",
    "Call",
    "Loop",
    "SYNC_OPS",
    "MEMORY_OPS",
]

ValueLike = Union[int, AddrExpr]


@dataclass(eq=False)
class Instr:
    """Base class for all TIR instructions.

    ``pc`` is assigned by :meth:`repro.tir.program.Program.finalize` and is
    ``-1`` until then.  Instructions compare by identity.
    """

    pc: int = field(default=-1, init=False)


@dataclass(eq=False)
class Read(Instr):
    """Load from ``addr``.  A candidate for data-race detection."""

    addr: AddrLike
    is_write: ClassVar[bool] = False


@dataclass(eq=False)
class Write(Instr):
    """Store to ``addr``.  A candidate for data-race detection."""

    addr: AddrLike
    is_write: ClassVar[bool] = True


@dataclass(eq=False)
class Compute(Instr):
    """``n`` units of pure computation touching no shared state."""

    n: int = 1


@dataclass(eq=False)
class Io(Instr):
    """Blocking I/O taking ``duration`` virtual time units.

    I/O advances the virtual clock without executing instructions, so it
    dilutes instrumentation overhead — the effect the paper relies on when it
    notes that "the overhead of data-race detection is likely to be masked by
    the I/O latency" for interactive applications.  ``duration`` may be a
    parameter expression (e.g. a per-thread start-up stagger passed as a
    fork argument).
    """

    duration: ValueLike


@dataclass(eq=False)
class Lock(Instr):
    """Acquire the mutex identified by the address ``var``.

    ``via_cas=True`` models a *user-level* lock built from atomic
    compare-and-exchange instructions: the runtime still provides mutual
    exclusion, but the profiler only sees a raw atomic machine op (§4.2's
    problem case) — it cannot tell whether the CAS acts as a lock or an
    unlock, so it must log it as an ATOMIC sync event and wrap the
    timestamping in an extra critical section to stay consistent.
    """

    var: AddrLike
    via_cas: bool = False


@dataclass(eq=False)
class Unlock(Instr):
    """Release the mutex identified by the address ``var``.

    See :class:`Lock` for the meaning of ``via_cas``.
    """

    var: AddrLike
    via_cas: bool = False


@dataclass(eq=False)
class Wait(Instr):
    """Block until the event identified by ``var`` is signaled.

    With ``consume=True`` (the default) the event behaves like a semaphore
    down: one pending signal is consumed and other waiters keep blocking.
    With ``consume=False`` the event is manual-reset: once signaled, every
    present and future wait returns immediately.
    """

    var: AddrLike
    consume: bool = True


@dataclass(eq=False)
class Notify(Instr):
    """Signal the event identified by ``var`` (wakes waiters)."""

    var: AddrLike


@dataclass(eq=False)
class Fork(Instr):
    """Spawn a thread running ``func`` and store its tid in ``tid_slot``.

    ``args`` are resolved in the parent frame at fork time and become the
    child's parameters.
    """

    func: str
    args: Tuple[ValueLike, ...] = ()
    tid_slot: Optional[int] = None


@dataclass(eq=False)
class Join(Instr):
    """Block until the thread whose tid is stored in ``tid_slot`` finishes."""

    tid_slot: int


@dataclass(eq=False)
class AtomicRMW(Instr):
    """An atomic read-modify-write (compare-and-exchange) on ``addr``.

    Per Table 1 of the paper, atomic machine ops are synchronization
    operations whose SyncVar is the target memory address, and they require
    *additional* synchronization to timestamp atomically (§4.2) because the
    tool cannot tell whether a given CAS acts as a lock or an unlock.
    """

    addr: AddrLike


@dataclass(eq=False)
class Alloc(Instr):
    """Heap-allocate ``size`` bytes; store the base address in ``slot``.

    Allocation routines are monitored and treated as synchronization on the
    page containing the allocated memory (§4.3), which prevents false races
    between accesses to recycled memory.
    """

    size: int
    slot: int


@dataclass(eq=False)
class Free(Instr):
    """Free the heap block whose base address is in ``slot``."""

    slot: int


@dataclass(eq=False)
class Call(Instr):
    """Call function ``func`` with ``args`` resolved in the current frame."""

    func: str
    args: Tuple[ValueLike, ...] = ()


@dataclass(eq=False)
class Loop(Instr):
    """Execute ``body`` ``count`` times, binding a loop induction variable.

    ``count`` may be an int or an address-expression-style value (for
    example ``Param(1)`` to make the trip count a function argument).
    :class:`~repro.tir.addr.Indexed` operands inside ``body`` can reference
    the induction variable.
    """

    count: ValueLike
    body: Tuple[Instr, ...]


#: Instruction types that are synchronization operations.  These are logged
#: by *both* copies of an instrumented function — never sampled away —
#: because dropping any of them would break the happens-before graph and
#: produce false positives (§3.2).
SYNC_OPS = (Lock, Unlock, Wait, Notify, Fork, Join, AtomicRMW, Alloc, Free)

#: Instruction types whose dynamic instances are sampled memory accesses.
MEMORY_OPS = (Read, Write)
