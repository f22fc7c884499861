"""Unit tests for the BadgerTrap fault-counting instrumentation."""

import numpy as np
import pytest

from repro.memsim.badgertrap import BadgerTrap
from repro.memsim.frames import FrameAllocator
from repro.memsim.page_table import PageTable
from repro.memsim.pte import is_poisoned
from repro.memsim.tlb import TLBArray


@pytest.fixture
def setup():
    pt = PageTable(1)
    pt.mmap(0x100, 8, FrameAllocator(64))
    return pt, TLBArray(entries=64), BadgerTrap()


class TestInstrument:
    def test_poisons_and_flushes(self, setup):
        pt, tlb, bt = setup
        # Warm the TLB with page 0x102.
        tlb.access(
            np.array([1], dtype=np.int32),
            np.array([0x102], dtype=np.uint64),
            np.zeros(1, dtype=np.int32),
        )
        bt.instrument(pt, np.array([2], dtype=np.int64), tlb)
        assert is_poisoned(pt.flags)[2]
        # Its translation must be gone so the next access walks.
        assert not tlb.contains(
            np.array([1], dtype=np.int32), np.array([0x102], dtype=np.uint64)
        )[0]

    def test_instrumented_count_transitions_only(self, setup):
        pt, tlb, bt = setup
        bt.instrument(pt, np.array([2, 2, 3], dtype=np.int64), tlb)
        bt.instrument(pt, np.array([2], dtype=np.int64), tlb)
        assert bt.stats.instrumented == 2

    def test_instrumented_slots(self, setup):
        pt, tlb, bt = setup
        bt.instrument(pt, np.array([1, 5], dtype=np.int64), tlb)
        np.testing.assert_array_equal(np.flatnonzero(is_poisoned(pt.flags)), [1, 5])

    def test_empty_instrument(self, setup):
        pt, tlb, bt = setup
        bt.instrument(pt, np.zeros(0, dtype=np.int64), tlb)
        assert bt.stats.instrumented == 0


class TestFaults:
    def test_fault_counts_per_page(self, setup):
        _, _, bt = setup
        bt.handle_faults(np.array([4, 4, 7], dtype=np.uint64))
        assert bt.stats.faults == 3
        assert bt.fault_counts[4] == 2
        assert bt.fault_counts[7] == 1

    def test_handler_time(self, setup):
        _, _, bt = setup
        bt.stats.fault_cost_s = 2e-6
        bt.handle_faults(np.array([1, 2], dtype=np.uint64))
        assert bt.stats.handler_time_s == pytest.approx(4e-6)

    def test_empty_faults(self, setup):
        _, _, bt = setup
        bt.handle_faults(np.zeros(0, dtype=np.uint64))
        assert bt.stats.faults == 0
