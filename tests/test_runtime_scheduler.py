"""Tests for the interleaving schedulers."""

import random

from repro.runtime.chaos import ChaosScheduler
from repro.runtime.scheduler import (RandomInterleaver, RoundRobinScheduler,
                                     Scheduler)
from repro.validate.trace import RecordingScheduler

import pytest


def _stream(scheduler, steps=200, threads=4):
    """Drive a scheduler and return its decision stream.

    Two phases, because different policies hide seed collisions behind
    different blind spots: a fixed runnable set exposes quantum/RNG
    differences (a cycling set would truncate every round-robin quantum
    to the same effective length), then a cycling set exposes priority
    *orders* (a fixed set shows only the constant top pick of a
    ChaosScheduler).
    """
    current = None
    picks = []
    for _ in range(steps):
        current = scheduler.next_thread(current, [0, 1, 2])
        picks.append(current)
    for step in range(steps):
        runnable = [(step + offset) % threads for offset in range(3)]
        current = scheduler.next_thread(current, runnable)
        picks.append(current)
    return picks


class TestRandomInterleaver:
    def test_same_seed_same_sequence(self):
        def drive(seed):
            s = RandomInterleaver(seed)
            current = None
            picks = []
            for _ in range(200):
                current = s.next_thread(current, [0, 1, 2])
                picks.append(current)
            return picks

        assert drive(42) == drive(42)
        assert drive(42) != drive(43)

    def test_low_switch_prob_means_long_runs(self):
        s = RandomInterleaver(0, switch_prob=0.01)
        current = 0
        switches = 0
        for _ in range(1000):
            nxt = s.next_thread(current, [0, 1])
            if nxt != current:
                switches += 1
            current = nxt
        assert switches < 100

    def test_blocked_current_forces_switch(self):
        s = RandomInterleaver(0, switch_prob=0.0)
        # current not in runnable -> must pick someone runnable
        assert s.next_thread(5, [1, 2]) in (1, 2)

    def test_every_runnable_eventually_scheduled(self):
        s = RandomInterleaver(7, switch_prob=0.5)
        seen = set()
        current = None
        for _ in range(500):
            current = s.next_thread(current, [0, 1, 2, 3])
            seen.add(current)
        assert seen == {0, 1, 2, 3}

    def test_invalid_switch_prob(self):
        with pytest.raises(ValueError):
            RandomInterleaver(0, switch_prob=1.5)

    def test_preemption_hands_out_the_keep_draw(self):
        s = RandomInterleaver(5, switch_prob=0.3)
        reference = random.Random(5)
        draw, switch_prob = s.preemption()
        # Asking for the rule draws nothing.
        assert s._rng.getstate() == reference.getstate()
        assert switch_prob == 0.3
        assert draw() == reference.random()
        # After a preemption the executor asks with current=None: one
        # randrange for the pick, no second random().
        runnable = (2, 4, 7)
        assert s.next_thread(None, runnable) == runnable[
            reference.randrange(len(runnable))]
        assert s._rng.getstate() == reference.getstate()

    def test_slice_decisions_equal_step_decisions(self):
        # What the executor does with the rule — keep ``current`` while
        # draw() >= switch_prob, else ask next_thread(None, ...) — picks the
        # same threads from the same draws as asking before every step.
        for switch_prob in (0.0, 0.05, 0.5, 1.0):
            stepped = RandomInterleaver(9, switch_prob=switch_prob)
            sliced = RandomInterleaver(9, switch_prob=switch_prob)
            draw, prob = sliced.preemption()
            current = None
            for step in range(400):
                runnable = tuple(t for t in range(5) if (t + step) % 7)
                expected = stepped.next_thread(current, runnable)
                if current is not None and current in runnable:
                    got = current if draw() >= prob else \
                        sliced.next_thread(None, runnable)
                else:
                    got = sliced.next_thread(current, runnable)
                assert got == expected
                current = expected
            assert sliced._rng.getstate() == stepped._rng.getstate()

    def test_fork_seed_derives_new_policy(self):
        s = RandomInterleaver(1, switch_prob=0.2)
        child = s.fork_seed(3)
        assert isinstance(child, RandomInterleaver)
        assert child.switch_prob == 0.2
        assert child.seed != s.seed


def test_other_policies_decide_before_every_step():
    # They keep the default; so does a wrapper around a RandomInterleaver,
    # which the golden digests rely on to record every step's decision.
    assert Scheduler().preemption() is None
    assert RoundRobinScheduler(quantum=3).preemption() is None
    assert ChaosScheduler(seed=1).preemption() is None
    assert RecordingScheduler(RandomInterleaver(1)).preemption() is None


class TestRoundRobin:
    def test_quantum_respected(self):
        s = RoundRobinScheduler(quantum=3)
        picks = []
        current = None
        for _ in range(9):
            current = s.next_thread(current, [0, 1, 2])
            picks.append(current)
        assert picks == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_wraps_around(self):
        s = RoundRobinScheduler(quantum=1)
        picks = []
        current = None
        for _ in range(6):
            current = s.next_thread(current, [0, 1, 2])
            picks.append(current)
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_blocked(self):
        s = RoundRobinScheduler(quantum=2)
        assert s.next_thread(0, [2, 5]) in (2, 5)

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)


class TestForkSeed:
    """The validator forks one child per attempt and relies on every
    child exploring a different interleaving — distinct indices must
    yield pairwise-distinct decision streams, and no child may replicate
    its parent."""

    PARENTS = [
        pytest.param(RandomInterleaver(seed=1, switch_prob=0.2),
                     id="random-interleaver"),
        pytest.param(RoundRobinScheduler(quantum=2), id="round-robin"),
        pytest.param(ChaosScheduler(seed=3, change_points=8,
                                    expected_steps=200), id="chaos"),
    ]

    @pytest.mark.parametrize("parent", PARENTS)
    def test_distinct_indices_distinct_streams(self, parent):
        streams = [_stream(parent.fresh().fork_seed(i)) for i in range(6)]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert streams[i] != streams[j], (
                    f"fork_seed({i}) and fork_seed({j}) produced the same "
                    f"decision stream")

    @pytest.mark.parametrize("parent", PARENTS)
    def test_no_child_replicates_parent(self, parent):
        parent_stream = _stream(parent.fresh())
        for index in range(4):
            child_stream = _stream(parent.fresh().fork_seed(index))
            assert child_stream != parent_stream, (
                f"fork_seed({index}) reproduced the parent's stream")

    @pytest.mark.parametrize("parent", PARENTS)
    def test_fork_is_deterministic(self, parent):
        assert (_stream(parent.fresh().fork_seed(2))
                == _stream(parent.fresh().fork_seed(2)))
