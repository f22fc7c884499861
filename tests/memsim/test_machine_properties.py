"""Property-based machine invariants over random access streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AccessBatch, DataSource, Machine, MachineConfig


def _machine(n_cpus=2):
    m = Machine(
        MachineConfig(
            total_frames=1 << 14,
            tlb_entries=16,
            l1_bytes=1024,
            l2_bytes=4096,
            llc_bytes=8192,
            ibs_period=7,
            n_cpus=n_cpus,
        )
    )
    m.ibs.enabled = True  # a bare machine's samplers start disarmed
    return m


@st.composite
def random_run(draw):
    """A multi-batch, multi-process access plan over small regions."""
    n_pids = draw(st.integers(1, 3))
    region_pages = draw(st.integers(1, 64))
    n_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(n_batches):
        per_pid = []
        for pid in range(1, n_pids + 1):
            n = draw(st.integers(0, 60))
            pages = draw(
                st.lists(
                    st.integers(0, region_pages - 1), min_size=n, max_size=n
                )
            )
            stores = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            per_pid.append((pid, pages, stores))
        batches.append(per_pid)
    return n_pids, region_pages, batches


def _build_batch(machine, vmas, per_pid, cpu_mod=2):
    parts = []
    for pid, pages, stores in per_pid:
        if not pages:
            continue
        vma = vmas[pid]
        vpns = vma.start_vpn + np.asarray(pages, dtype=np.uint64)
        parts.append(
            AccessBatch.from_pages(
                vpns, is_store=np.asarray(stores), pid=pid, cpu=pid % cpu_mod
            )
        )
    return AccessBatch.concat(parts)


class TestMachineInvariants:
    @given(random_run())
    @settings(max_examples=50, deadline=None)
    def test_event_count_invariants(self, plan):
        """Counter relationships hold for any stream."""
        n_pids, region_pages, batches = plan
        m = _machine()
        vmas = {pid: m.mmap(pid, region_pages) for pid in range(1, n_pids + 1)}
        total_ops = counted = 0
        for per_pid in batches:
            batch = _build_batch(m, vmas, per_pid)
            res = m.run_batch(batch)
            total_ops += batch.n
            counted += int(res.frame_counts.access.sum())
            raw = res.raw_events
            if batch.n == 0:
                continue
            # Miss-path containment at each level.
            assert raw["retired_ops"] >= raw["l1_miss"] >= raw["l2_miss"] >= raw["llc_miss"] >= 0
            assert raw["dtlb_miss"] <= raw["retired_ops"]
            assert raw["retired_loads"] + raw["retired_stores"] == raw["retired_ops"]
            # Data-source classification is total.
            assert res.data_source.min() >= np.uint8(DataSource.L1)
            assert res.data_source.max() <= np.uint8(DataSource.MEMORY)
        assert m.op_counter == total_ops
        # Ground-truth counts match the ops executed.
        assert counted == total_ops

    @given(random_run())
    @settings(max_examples=30, deadline=None)
    def test_tlb_walk_equivalence(self, plan):
        """Page walks == TLB misses; A bits only on walked pages."""
        n_pids, region_pages, batches = plan
        m = _machine()
        vmas = {pid: m.mmap(pid, region_pages) for pid in range(1, n_pids + 1)}
        for per_pid in batches:
            m.run_batch(_build_batch(m, vmas, per_pid))
        assert m.ptw.stats.walks == m.tlb.stats.misses
        # Every page with the A bit set was actually accessed.
        from repro.memsim.pte import is_accessed

        for pid, vma in vmas.items():
            pt = m.page_tables[pid]
            accessed = is_accessed(pt.flags)
            touched = m.frame_stats.touched_mask()[vma.pfn_base : vma.pfn_base + vma.npages]
            assert not (accessed & ~touched).any()

    @given(random_run())
    @settings(max_examples=30, deadline=None)
    def test_sampler_counts(self, plan):
        """IBS samples exactly floor(ops/period) records."""
        n_pids, region_pages, batches = plan
        m = _machine()
        vmas = {pid: m.mmap(pid, region_pages) for pid in range(1, n_pids + 1)}
        for per_pid in batches:
            m.run_batch(_build_batch(m, vmas, per_pid))
        samples = m.ibs.drain()
        assert samples.n == m.op_counter // m.ibs.period
        if samples.n:
            # Sampled ops are strictly increasing (program order).
            assert (np.diff(samples.op_idx.astype(np.int64)) > 0).all()

    @given(random_run())
    @settings(max_examples=20, deadline=None)
    def test_dirty_only_on_stores(self, plan):
        n_pids, region_pages, batches = plan
        m = _machine()
        vmas = {pid: m.mmap(pid, region_pages) for pid in range(1, n_pids + 1)}
        stored = {pid: np.zeros(region_pages, dtype=bool) for pid in vmas}
        for per_pid in batches:
            m.run_batch(_build_batch(m, vmas, per_pid))
            for pid, pages, stores in per_pid:
                pages = np.asarray(pages, dtype=np.int64)
                stored[pid][pages[np.asarray(stores, dtype=bool)]] = True
        from repro.memsim.pte import is_dirty

        for pid in vmas:
            np.testing.assert_array_equal(is_dirty(m.page_tables[pid].flags), stored[pid])
