"""Thread interleaving policies.

The executor consults a scheduler before every instruction to decide which
runnable thread steps next.  All policies are deterministic functions of
their seed, so a (program, scheduler) pair fully determines the execution —
including its logs and its data races.  The paper averages results over
three runs precisely because interleavings vary; our experiments do the same
by varying the seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

__all__ = ["Scheduler", "RandomInterleaver", "RoundRobinScheduler"]


class Scheduler:
    """Interface: choose the next thread to step."""

    def next_thread(self, current: Optional[int], runnable: Sequence[int]) -> int:
        """Return the tid (from ``runnable``, non-empty) to step next.

        ``current`` is the tid that stepped last, or None if it just blocked
        or finished (or at the very first step).

        The executor passes ``runnable`` as an immutable tuple of tids in
        ascending order, captured before the decision.  A thread woken while
        the scheduler decides (a directed gate may call
        :meth:`~repro.runtime.executor.Executor.wake_thread` from here)
        appears at the next step, not in this tuple.  The executor keeps the
        tuple up to date on every status change, so a step costs the same
        however many threads the run has ever spawned.
        """
        raise NotImplementedError

    def fork_seed(self, index: int) -> "Scheduler":
        """A scheduler of the same policy with a derived seed (for re-runs).

        Distinct ``index`` values must yield distinct decision streams, and
        every derived stream must differ from the parent's — the race
        validator (:mod:`repro.validate`) relies on this to explore a fresh
        interleaving per attempt.
        """
        raise NotImplementedError

    def fresh(self) -> "Scheduler":
        """A pristine scheduler with this one's configuration.

        Schedulers carry mutable decision state (RNG position, quantum
        countdowns, priorities), so an instance that has driven one
        execution must never be reused for another: determinism — the
        invariant record/replay depends on — requires a fresh instance per
        run.
        """
        raise NotImplementedError


class RandomInterleaver(Scheduler):
    """Keep running the current thread; preempt with probability ``switch_prob``.

    This models an OS scheduler with occasional preemption plus the
    fine-grained nondeterminism of simultaneous multicore execution.  Lower
    ``switch_prob`` yields longer uninterrupted runs (coarser interleaving).
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.05):
        if not 0.0 <= switch_prob <= 1.0:
            raise ValueError("switch_prob must be in [0, 1]")
        self.seed = seed
        self.switch_prob = switch_prob
        self._rng = random.Random(seed)

    def next_thread(self, current: Optional[int], runnable: Sequence[int]) -> int:
        if (
            current is not None
            and current in runnable
            and self._rng.random() >= self.switch_prob
        ):
            return current
        return runnable[self._rng.randrange(len(runnable))]

    def fork_seed(self, index: int) -> "RandomInterleaver":
        return RandomInterleaver(seed=self.seed * 1_000_003 + index + 1,
                                 switch_prob=self.switch_prob)

    def fresh(self) -> "RandomInterleaver":
        return RandomInterleaver(seed=self.seed, switch_prob=self.switch_prob)


class RoundRobinScheduler(Scheduler):
    """Rotate among runnable threads every ``quantum`` instructions."""

    def __init__(self, quantum: int = 50):
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self._remaining = quantum
        self._last: Optional[int] = None

    def next_thread(self, current: Optional[int], runnable: Sequence[int]) -> int:
        if current is not None and current in runnable:
            if current == self._last:
                self._remaining -= 1
            else:
                self._remaining = self.quantum - 1
            if self._remaining > 0:
                self._last = current
                return current
        # Rotate: pick the runnable tid after `current` in tid order.
        ordered = sorted(runnable)
        if current is None or current not in ordered:
            chosen = ordered[0]
        else:
            chosen = ordered[(ordered.index(current) + 1) % len(ordered)]
        self._remaining = self.quantum
        self._last = chosen
        return chosen

    def fork_seed(self, index: int) -> "RoundRobinScheduler":
        # index 0 must not reproduce the parent's quantum (and therefore its
        # exact decision stream) — every derived policy is a new interleaving.
        return RoundRobinScheduler(quantum=self.quantum + index + 1)

    def fresh(self) -> "RoundRobinScheduler":
        return RoundRobinScheduler(quantum=self.quantum)
