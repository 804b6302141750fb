"""Tests for the simulated heap."""

import pytest

from repro.layout import HEAP_BASE, PAGE_SIZE
from repro.runtime.memory import Heap, HeapError


class TestAlloc:
    def test_first_alloc_at_base(self):
        heap = Heap()
        assert heap.alloc(16) == HEAP_BASE

    def test_blocks_do_not_overlap(self):
        heap = Heap()
        a = heap.alloc(24)
        b = heap.alloc(24)
        assert b >= a + 24

    def test_rounding_to_alignment(self):
        heap = Heap()
        a = heap.alloc(1)
        b = heap.alloc(1)
        assert (b - a) % 16 == 0

    def test_zero_size_rejected(self):
        with pytest.raises(HeapError):
            Heap().alloc(0)

    def test_negative_size_rejected(self):
        with pytest.raises(HeapError):
            Heap().alloc(-8)


class TestFreeAndReuse:
    def test_lifo_reuse(self):
        heap = Heap()
        a = heap.alloc(64)
        heap.free(a)
        assert heap.alloc(64) == a
        assert heap.reuses == 1

    def test_reuse_only_same_size_class(self):
        heap = Heap()
        a = heap.alloc(64)
        heap.free(a)
        b = heap.alloc(128)
        assert b != a

    def test_double_free_rejected(self):
        heap = Heap()
        a = heap.alloc(32)
        heap.free(a)
        with pytest.raises(HeapError):
            heap.free(a)

    def test_free_unknown_rejected(self):
        with pytest.raises(HeapError):
            Heap().free(0xDEAD)

    def test_live_blocks_tracking(self):
        heap = Heap()
        a = heap.alloc(16)
        b = heap.alloc(16)
        heap.free(a)
        assert heap.live_blocks == {b}

    def test_block_size_of_dead_block_rejected(self):
        heap = Heap()
        base = heap.alloc(16)
        heap.free(base)
        with pytest.raises(HeapError, match=f"{base:#x}"):
            heap.block_size(base)

    def test_block_size_is_rounded(self):
        heap = Heap()
        a = heap.alloc(20)
        assert heap.block_size(a) == 32

    def test_counters(self):
        heap = Heap()
        a = heap.alloc(16)
        heap.free(a)
        heap.alloc(16)
        assert (heap.allocs, heap.frees, heap.reuses) == (2, 1, 1)


class TestPages:
    def test_small_block_one_page(self):
        heap = Heap()
        a = heap.alloc(64)
        assert len(heap.pages_of_block(a, 64)) == 1

    def test_block_spanning_pages(self):
        heap = Heap()
        heap.alloc(PAGE_SIZE - 32)  # push near the boundary
        b = heap.alloc(128)
        pages = heap.pages_of_block(b, 128)
        assert len(pages) == 2
        assert pages[1] == pages[0] + 1

    def test_high_water_mark(self):
        heap = Heap()
        heap.alloc(100)
        heap.alloc(100)
        assert heap.high_water_mark >= 200
