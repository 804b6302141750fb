"""Logical timestamps for synchronization events (§4.2).

Every logged synchronization operation carries a timestamp such that if
``a`` happens-before ``b`` and both operate on the same SyncVar, then ``a``
has the smaller timestamp.  The paper first tried a single global counter,
found that its cache-line contention "can dramatically slow down" the
instrumented program on multiprocessors, and settled on **128 counters
selected by a hash of the SyncVar**.  We implement exactly that: hashed
counter selection (with a deterministic CRC hash — Python's builtin ``hash``
is salted per process and would break reproducibility) and a contention cost
charged per stamp that scales inversely with the counter count.

The ``atomic`` flag models §4.2's key implementation lesson.  For
synchronization whose semantics bound where the timestamp can be taken
(lock after-acquire, unlock before-release, ...) the stamp is always
consistent.  For raw atomic machine instructions the tool cannot tell
whether a CAS acts as a lock or an unlock, so LiteRace wraps the CAS *and*
its timestamping in a critical section.  With ``atomic=False`` that critical
section is omitted and the tracker emulates the resulting misordering: with
probability ``race_prob`` the timestamps of two consecutive stamps on the
same counter are swapped, exactly the inversion a torn read-increment-log
sequence produces.  The offline merge then reconstructs a wrong order and
the detector reports false races — the paper's "hundreds of false data
races" failure mode, reproduced by ``repro.experiments.ablations``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List

from ..eventlog.events import SyncVar

__all__ = ["TimestampTracker", "NUM_COUNTERS"]

#: The paper's counter-array size.
NUM_COUNTERS = 128


def _stable_hash(var: SyncVar) -> int:
    """A process-stable hash of a SyncVar (crc32 of its textual form)."""
    domain, ident = var
    return zlib.crc32(f"{domain}:{ident}".encode("ascii"))


class TimestampTracker:
    """Issues logical timestamps from an array of hashed counters."""

    def __init__(self, num_counters: int = NUM_COUNTERS, atomic: bool = True,
                 race_prob: float = 0.3, seed: int = 0):
        if num_counters < 1:
            raise ValueError("num_counters must be >= 1")
        if not 0.0 <= race_prob <= 1.0:
            raise ValueError("race_prob must be in [0, 1]")
        self.num_counters = num_counters
        self.atomic = atomic
        self.race_prob = race_prob
        self._counters: List[int] = [0] * num_counters
        #: counter index -> timestamp reserved by a torn (non-atomic) stamp,
        #: to be handed to the *next* stamp on that counter.
        self._pending: Dict[int, int] = {}
        #: counter index of every var stamped so far: the index depends
        #: only on the var and ``num_counters``, and hashing it is most of
        #: a stamp's cost
        self._index_of: Dict[SyncVar, int] = {}
        self._rng = random.Random(seed)
        self.stamps_issued = 0
        self.inversions = 0

    def counter_index(self, var: SyncVar) -> int:
        """Which of the counters ``var`` hashes to."""
        return _stable_hash(var) % self.num_counters

    def stamp(self, var: SyncVar, may_tear: bool = False) -> int:
        """Issue the timestamp for one synchronization operation on ``var``.

        ``may_tear`` marks operations (atomic machine ops) whose
        timestamping is only safe inside the extra critical section; it has
        no effect when the tracker is in atomic mode.
        """
        self.stamps_issued += 1
        index = self._index_of.get(var)
        if index is None:
            index = self._index_of[var] = self.counter_index(var)
        pending = self._pending.pop(index, None)
        if pending is not None:
            # A torn earlier stamp reserved this (smaller) value; this later
            # operation now receives it — the inversion.
            return pending
        self._counters[index] += 1
        value = self._counters[index]
        if may_tear and not self.atomic and self._rng.random() < self.race_prob:
            # Tear: this operation logs value+1 while `value` leaks to the
            # next stamp on the same counter.
            self._counters[index] += 1
            self._pending[index] = value
            self.inversions += 1
            return self._counters[index]
        return value

    def counter_value(self, index: int) -> int:
        return self._counters[index]
