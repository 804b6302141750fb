"""Thread interleaving policies.

The executor asks a scheduler which runnable thread steps next.  A policy
either decides before every step, or hands the executor its preemption test
as data (:meth:`Scheduler.preemption`) and decides only when a slice starts:
the executor then keeps stepping the chosen thread until it finishes,
blocks or the test fires.  Both give the same decisions from the same RNG
draws.  All policies are deterministic functions of
their seed, so a (program, scheduler) pair fully determines the execution —
including its logs and its data races.  The paper averages results over
three runs precisely because interleavings vary; our experiments do the same
by varying the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence, Tuple

__all__ = ["Scheduler", "RandomInterleaver", "RoundRobinScheduler"]


class Scheduler:
    """Interface: choose the next thread to step."""

    def next_thread(self, current: Optional[int], runnable: Sequence[int]) -> int:
        """Return the tid (from ``runnable``, non-empty) to step next.

        ``current`` is the tid that stepped last, or None if it just
        finished, at the very first step, or right after a preemption (see
        :meth:`preemption`).  A ``current`` that is not in ``runnable`` has
        just blocked.

        The executor passes ``runnable`` as an immutable tuple of tids in
        ascending order, captured before the decision.  A thread woken while
        the scheduler decides (a directed gate may call
        :meth:`~repro.runtime.executor.Executor.wake_thread` from here)
        appears at the next step, not in this tuple.  The executor keeps the
        tuple up to date on every status change, so a step costs the same
        however many threads the run has ever spawned.
        """
        raise NotImplementedError

    def preemption(self) -> Optional[Tuple[Callable[[], float], float]]:
        """This policy's preemption test as data, or None.

        None (the default) makes the executor ask :meth:`next_thread` before
        every step.  A policy that keeps the thread that just stepped unless
        a draw falls below a probability returns ``(draw, switch_prob)``.
        The executor then asks :meth:`next_thread` only when a slice
        starts, and steps the chosen thread with no scheduler call until it
        finishes, blocks (or a gate parks it) or ``draw() < switch_prob``.
        After that preemption it asks ``next_thread(None, runnable)``, which
        must choose exactly as ``next_thread(current, runnable)`` would
        have once its own draw fell below ``switch_prob``, without drawing
        again.  A policy that must see every step keeps the default.
        """
        return None

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

    Each kept step costs one ``random()`` draw and each switch one
    ``randrange``; :meth:`preemption` hands the executor that same draw, so
    a run decided slice by slice consumes the RNG exactly as one decided
    step by step.
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

    def preemption(self) -> Tuple[Callable[[], float], float]:
        return self._rng.random, self.switch_prob

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
