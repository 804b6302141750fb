"""The simulated heap: a free-list allocator over the flat address space.

Only allocation *placement* is simulated — no bytes are stored, because race
detection needs addresses, not values.  The allocator deliberately recycles
freed blocks LIFO (last freed, first reused), which maximizes the chance
that memory freed by one thread is handed to another.  That is exactly the
hazard §4.3 of the paper addresses: without treating allocation routines as
synchronization on the containing page, a detector reports false races
between accesses to the same address under two different allocations.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..layout import HEAP_BASE, page_of

__all__ = ["Heap", "HeapError"]

#: Allocation granularity in bytes.
_ALIGN = 16


class HeapError(RuntimeError):
    """Invalid heap operation (double free, free of unknown block)."""


class Heap:
    """A deterministic free-list bump allocator."""

    def __init__(self, base: int = HEAP_BASE):
        self._base = base
        self._brk = base
        #: size-class -> LIFO stack of freed block base addresses
        self._free: Dict[int, List[int]] = {}
        #: live block base -> rounded size
        self._live: Dict[int, int] = {}
        self.allocs = 0
        self.frees = 0
        self.reuses = 0

    @staticmethod
    def _round(size: int) -> int:
        return (size + _ALIGN - 1) // _ALIGN * _ALIGN

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the block's base address."""
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        rounded = self._round(size)
        stack = self._free.get(rounded)
        if stack:
            base = stack.pop()
            self.reuses += 1
        else:
            base = self._brk
            self._brk += rounded
        self._live[base] = rounded
        self.allocs += 1
        return base

    def free(self, base: int) -> None:
        """Free the block at ``base`` (must be a live allocation)."""
        rounded = self._live.pop(base, None)
        if rounded is None:
            raise HeapError(f"free of address {base:#x} that is not a live block")
        self._free.setdefault(rounded, []).append(base)
        self.frees += 1

    def block_size(self, base: int) -> int:
        """Rounded size of the live block at ``base``."""
        rounded = self._live.get(base)
        if rounded is None:
            raise HeapError(f"address {base:#x} is not a live block")
        return rounded

    def pages_of_block(self, base: int, size: int) -> Tuple[int, ...]:
        """Page numbers overlapped by a block of ``size`` bytes at ``base``."""
        first = page_of(base)
        last = page_of(base + self._round(size) - 1)
        return tuple(range(first, last + 1))

    @property
    def live_blocks(self) -> Set[int]:
        return set(self._live)

    @property
    def high_water_mark(self) -> int:
        """Bytes of heap address space ever handed out."""
        return self._brk - self._base
