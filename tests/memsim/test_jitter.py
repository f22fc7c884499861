"""Tests for IBS period randomization (anti-aliasing jitter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AccessBatch, DataSource, Machine, MachineConfig
from repro.memsim.ibs import IBSSampler


def _meta(batch):
    n = batch.n
    return dict(
        paddr=batch.vaddr.copy(),
        tlb_hit=np.zeros(n, dtype=bool),
        data_source=np.full(n, np.uint8(DataSource.MEMORY), dtype=np.uint8),
    )


def _batch(n):
    return AccessBatch.from_pages(np.arange(n, dtype=np.uint64) % 64, pid=1)


class TestJitter:
    def test_gaps_within_bounds(self):
        ibs = IBSSampler(period=100, jitter=0.25)
        b = _batch(50_000)
        ibs.observe(b, op_base=0, **_meta(b))
        ops = ibs.drain().op_idx.astype(np.int64)
        gaps = np.diff(ops)
        assert gaps.min() >= 75
        assert gaps.max() <= 125

    def test_gaps_actually_vary(self):
        ibs = IBSSampler(period=100, jitter=0.25)
        b = _batch(50_000)
        ibs.observe(b, op_base=0, **_meta(b))
        gaps = np.diff(ibs.drain().op_idx.astype(np.int64))
        assert np.unique(gaps).size > 10

    def test_mean_rate_preserved(self):
        ibs = IBSSampler(period=100, jitter=0.25)
        b = _batch(200_000)
        ibs.observe(b, op_base=0, **_meta(b))
        n = ibs.drain().n
        assert n == pytest.approx(2000, rel=0.1)

    def test_deterministic_under_seed(self):
        def run():
            ibs = IBSSampler(period=50, jitter=0.2)
            b = _batch(10_000)
            ibs.observe(b, op_base=0, **_meta(b))
            return ibs.drain().op_idx

        np.testing.assert_array_equal(run(), run())

    def test_zero_jitter_is_lockstep(self):
        ibs = IBSSampler(period=10, jitter=0.0)
        b = _batch(100)
        ibs.observe(b, op_base=0, **_meta(b))
        np.testing.assert_array_equal(
            ibs.drain().op_idx, np.arange(9, 100, 10, dtype=np.uint64)
        )

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            IBSSampler(period=10, jitter=1.0)
        with pytest.raises(ValueError):
            IBSSampler(period=10, jitter=-0.1)

    @given(
        period=st.integers(2, 200),
        jitter=st.floats(0.01, 0.9),
        sizes=st.lists(st.integers(0, 2000), min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_gap_bounds_across_batches(self, period, jitter, sizes):
        ibs = IBSSampler(period=period, jitter=jitter)
        base = 0
        for n in sizes:
            b = _batch(n) if n else AccessBatch.empty()
            ibs.observe(b, op_base=base, **_meta(b))
            base += n
        ops = ibs.drain().op_idx.astype(np.int64)
        if ops.size > 1:
            gaps = np.diff(ops)
            lo = max(1, int(round(period * (1 - jitter))))
            hi = max(lo, int(round(period * (1 + jitter))))
            assert gaps.min() >= lo
            assert gaps.max() <= hi

    def test_defeats_phase_locked_aliasing(self):
        """A loop touching page X every `period` ops is systematically
        over-sampled by lockstep sampling; jitter fixes the bias."""
        period = 64

        def sampled_share(jitter):
            m = Machine(
                MachineConfig(
                    total_frames=1 << 14,
                    ibs_period=period,
                    ibs_jitter=jitter,
                    n_cpus=1,
                )
            )
            m.ibs.enabled = True  # a bare machine's samplers start disarmed
            vma = m.mmap(1, period)  # one loop iteration = one period
            pages = np.tile(vma.vpns, 2000)  # phase-locked loop
            m.run_batch(AccessBatch.from_pages(pages, pid=1))
            s = m.ibs.drain()
            counts = np.bincount(
                (s.pfn - vma.pfn_base).astype(np.intp), minlength=period
            )
            return counts.max() / max(counts.sum(), 1)

        # Lockstep: every sample lands on the same page (share = 1).
        assert sampled_share(0.0) == 1.0
        # Jittered: samples spread across the loop body.
        assert sampled_share(0.25) < 0.2
