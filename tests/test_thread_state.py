"""Tests for thread/frame state not covered via the executor."""

import pytest

from repro.layout import tls_base_for
from repro.runtime.thread_state import Frame, ThreadState, ThreadStatus


class TestThreadState:
    def test_initial_state(self):
        thread = ThreadState(3, "worker")
        assert thread.status is ThreadStatus.RUNNABLE
        assert thread.tls_base == tls_base_for(3)
        assert not thread.finished
        assert thread.joiners == []
        assert thread.cursors == []
        assert thread.pending is None

    def test_finished_property(self):
        thread = ThreadState(0, "main")
        thread.status = ThreadStatus.FINISHED
        assert thread.finished


class TestFrame:
    def test_slots_initialized_to_zero(self):
        frame = Frame(ThreadState(0, "f"), "f", (), 3)
        assert frame.slots == [0, 0, 0]

    def test_params_exposed(self):
        frame = Frame(ThreadState(0, "f"), "f", (7, 8), 0)
        assert frame.params == (7, 8)

    def test_loop_depth_tracking(self):
        frame = Frame(ThreadState(0, "f"), "f", (), 0)
        assert frame.loop_depth == 0
        frame.push_loop()
        frame.push_loop()
        assert frame.loop_depth == 2
        frame.pop_loop()
        assert frame.loop_depth == 1

    def test_loop_index_out_of_range(self):
        frame = Frame(ThreadState(0, "f"), "f", (), 0)
        with pytest.raises(IndexError):
            frame.loop_index(0)
