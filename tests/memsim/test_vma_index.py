"""The machine-wide VMA index and PTE column: one translation, one walk
and one dirty-bit update per batch.

``Machine.run_batch`` translates a whole batch — whatever processes it
mixes — with one lookup in ``Machine.vma_index``, and walks and dirties
it in one pass over ``Machine.pte``, every process's PTE flags laid out
in PID order.  These tests hold both to the per-process paths they
replaced, kept here as references: ``PageTable.translate_ex`` process by
process and a scalar walk over the ``VMA`` records themselves; the
walker and the dirty-bit update called once per process on its own
table.  On seeded random machines with base-page and huge-page regions
mapped out of address and PID order and after the first batch, with
BadgerTrap-poisoned PTEs and PML on; and to the ``TranslationFault``
the per-process translation raised.
"""

import dataclasses
import pickle
import types

import numpy as np
import pytest

from repro.memsim import AccessBatch, Machine, MachineConfig, TranslationFault
from repro.memsim.address import page_of
from repro.memsim import page_table
from repro.memsim.page_table import MAX_PID_SPAN, PageTable, VMAIndex
from repro.memsim.pte import PTE_ACCESSED, PTE_DEFAULT, PTE_DIRTY, PTE_POISON

N_MACHINES = 50


@pytest.fixture(autouse=True, params=[None, 64], ids=["one_block", "blocks_of_64"])
def block_size(request, monkeypatch):
    """Also with batches that span several translation blocks."""
    if request.param:
        monkeypatch.setattr(page_table, "_BLOCK", request.param)


def random_machine(seed: int, **config):
    """3–20 processes, 1–4 regions each, mapped in a shuffled order at
    explicit, shuffled addresses; a third of the regions are huge."""
    rng = np.random.default_rng(seed)
    m = Machine(
        MachineConfig(total_frames=1 << 18, n_cpus=2, tlb_entries=64, **config)
    )
    pids = rng.choice(np.arange(1, 400), size=int(rng.integers(3, 21)), replace=False)
    todo = [(int(pid), k) for pid in pids for k in range(int(rng.integers(1, 5)))]
    rng.shuffle(todo)
    for pid, k in todo:
        huge = rng.random() < 1 / 3
        npages = int(rng.integers(513, 1400)) if huge else int(rng.integers(1, 200))
        # Disjoint 4096-page windows per (pid, k), visited in any order.
        start = 0x10000 + k * 0x1000 + int(rng.integers(0, 0x1000 - npages))
        if rng.random() < 0.5:
            m.mmap(pid, npages, start_vpn=start, page_order=9 if huge else 0)
        else:  # straight on the page table: the machine must notice
            m.process(pid).mmap(start, npages, m.allocator, page_order=9 if huge else 0)
    return m, rng


def random_batch(m: Machine, rng, n: int = 600) -> AccessBatch:
    regions = [(pt.pid, v) for pt in m.page_tables.values() for v in pt.vmas]
    pick = rng.integers(0, len(regions), n)
    pid = np.array([regions[i][0] for i in pick], dtype=np.int32)
    vpn = np.array(
        [regions[i][1].start_vpn + int(rng.integers(0, regions[i][1].npages)) for i in pick],
        dtype=np.uint64,
    )
    return AccessBatch.from_pages(
        vpn, pid=pid, cpu=rng.integers(0, 2, n), is_store=rng.random(n) < 0.3
    )


def column_bases(m: Machine) -> dict[int, int]:
    """Where each table's slot 0 must sit in the machine's PTE column:
    the tables in PID order, each as long as it has PTEs."""
    bases, at = {}, 0
    for pid in sorted(m.page_tables):
        bases[pid] = at
        at += m.page_tables[pid].n_pages
    return bases


def per_process_reference(m: Machine, batch: AccessBatch):
    """Stage 1 done per process: group by PID, translate each group
    (slots are each table's own)."""
    vpns = page_of(batch.vaddr)
    n = batch.n
    pfn = np.empty(n, dtype=np.uint64)
    slot = np.empty(n, dtype=np.int64)
    tlb_vpn = np.empty(n, dtype=np.uint64)
    pids, ops = np.unique(batch.pid, return_counts=True)
    for pid in pids.tolist():
        idx = np.flatnonzero(batch.pid == pid)
        pt = m.page_tables.get(pid)
        if pt is None:
            raise TranslationFault(pid, np.unique(vpns[idx]))
        pfn[idx], slot[idx], tlb_vpn[idx] = pt.translate_ex(vpns[idx])
    return pfn, slot, tlb_vpn, pids.astype(np.int64), ops.astype(np.int64)


def scalar_reference(m: Machine, pid: int, vpn: int):
    vma = m.page_tables[pid].find_vma(vpn)
    unit = (vpn - vma.start_vpn) >> vma.page_order
    return (
        vma.pfn_base + vpn - vma.start_vpn,
        vma.slot_base + unit,
        vma.start_vpn + (unit << vma.page_order),
    )


def assert_same_translation(m: Machine, batch: AccessBatch):
    pfn, slot, tlb_vpn, pids, ops = per_process_reference(m, batch)
    bases = column_bases(m)
    wide = slot + np.array([bases[pid] for pid in batch.pid.tolist()], dtype=np.int64)
    got_pfn, got_slot, got_tlb, rank = m.vma_index.translate(
        batch.pid, page_of(batch.vaddr)
    )
    for got, want in ((got_pfn, pfn), (got_slot, wide), (got_tlb, tlb_vpn)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    got_pids, got_ops = m.vma_index.process_ops(rank)
    for got, want in ((got_pids, pids), (got_ops, ops)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    result = m.run_batch(batch)
    np.testing.assert_array_equal(result.pfn, pfn)
    np.testing.assert_array_equal(result.slot, wide)
    np.testing.assert_array_equal(result.pids, pids)
    np.testing.assert_array_equal(result.pid_ops, ops)
    for i in range(0, batch.n, 37):
        assert (pfn[i], slot[i], tlb_vpn[i]) == scalar_reference(
            m, int(batch.pid[i]), int(batch.vaddr[i]) >> 12
        )


def map_late(m: Machine) -> None:
    """Mappings added after the first batch — a new region in an old
    process (below its lowest), and a new lowest and highest PID."""
    old = min(m.page_tables)
    m.process(old).mmap(0x800, 30, m.allocator)
    m.mmap(0, 17, start_vpn=0x20000)
    m.mmap(401, 600, page_order=9)


@pytest.mark.parametrize("seed", range(N_MACHINES))
def test_batched_translation_equals_per_process(seed):
    m, rng = random_machine(seed)
    assert_same_translation(m, random_batch(m, rng))
    map_late(m)
    batch = random_batch(m, rng)
    assert {0, 401} <= set(batch.pid.tolist())
    assert_same_translation(m, batch)


# ----------------------------------------------- walks and dirty bits


def by_process(tables, rank: np.ndarray, mask: np.ndarray):
    """Split the batch positions under ``mask`` by owning process:
    ``(page table, positions)`` per process that has any, ascending
    PID, program order kept within each (a stable sort of the ranks)."""
    at = mask.nonzero()[0]
    if at.size == 0:
        return []
    if len(tables) == 1:
        return [(tables[0], at)]
    rank = rank[at]
    order = np.argsort(rank, kind="stable")
    at = at[order]
    rank = rank[order]
    cuts = (rank[1:] != rank[:-1]).nonzero()[0] + 1
    starts = [0, *cuts.tolist()]
    ends = [*starts[1:], at.size]
    return [(tables[r], at[s:e]) for r, s, e in zip(rank[starts].tolist(), starts, ends)]


def per_process_walk_and_dirty(self, miss, is_store, slot, pfn):
    """``Machine._walk_and_dirty`` with per-process PTE flags: the walker
    and the dirty-bit update called once per process, on its own table
    with its own slots, ascending PID."""
    index = self.vma_index
    bases = np.array(index.bases)
    rank = np.searchsorted(bases, slot, side="right") - 1
    local = slot - bases[rank]
    for pt, mm in by_process(index.tables, rank, miss):
        poisoned = self.ptw.fill_walks(pt, local[mm])
        if poisoned.any():
            self.badgertrap.handle_faults(pfn[mm][poisoned])
    for pt, ms in by_process(index.tables, rank, is_store):
        newly_dirty = self.ptw.dirty_updates(pt, local[ms])
        if newly_dirty.size and self.pml.enabled:
            self.pml.observe_dirty(pt.slot_to_pfn(newly_dirty))


def groups_reference(batch: AccessBatch, mask: np.ndarray):
    return [
        (pid, np.flatnonzero((batch.pid == pid) & mask))
        for pid in np.unique(batch.pid[mask]).tolist()
    ]


@pytest.mark.parametrize("seed", range(0, N_MACHINES, 5))
def test_groups_are_per_process_in_program_order(seed):
    """The reference's own grouping, against one mask per PID."""
    m, rng = random_machine(seed)
    batch = random_batch(m, rng)
    index = m.vma_index
    *_, rank = index.translate(batch.pid, page_of(batch.vaddr))
    for mask in (batch.is_store, ~batch.is_store, np.zeros(batch.n, dtype=bool)):
        got = by_process(index.tables, rank, mask)
        want = groups_reference(batch, mask)
        assert [pt.pid for pt, _ in got] == [pid for pid, _ in want]
        for (_, at), (_, ref) in zip(got, want):
            np.testing.assert_array_equal(at, ref)


def poison_some(m: Machine, rng) -> None:
    """BadgerTrap on an eighth of the PTEs of about half the processes."""
    for pid in sorted(m.page_tables):
        pt = m.page_tables[pid]
        if rng.random() < 0.5:
            m.badgertrap.instrument(
                pt, rng.integers(0, pt.n_pages, 1 + pt.n_pages // 8), m.tlb
            )


def pte_state(m: Machine) -> dict:
    return dict(
        flags={pid: pt.flags.tolist() for pid, pt in m.page_tables.items()},
        column=m.pte.flags.tolist(),
        ptw=dataclasses.asdict(m.ptw.stats),
        faults=m.badgertrap.fault_counts.tolist(),
        badgertrap=dataclasses.asdict(m.badgertrap.stats),
        pml_log=m.pml.drain().tolist(),
        pml=dataclasses.asdict(m.pml.stats),
    )


@pytest.mark.parametrize("seed", range(N_MACHINES))
def test_one_walk_equals_the_per_process_loop(seed):
    """Every flag, walker counter, fault count and the PML log in order."""
    twins = []
    for reference in (False, True):
        m, rng = random_machine(seed, enable_pml=True)
        if reference:
            m._walk_and_dirty = types.MethodType(per_process_walk_and_dirty, m)
        poison_some(m, rng)
        twins.append((m, rng))
    for round_ in range(3):
        if round_ == 2:
            for m, _ in twins:
                map_late(m)
                poison_some(m, np.random.default_rng(seed))
        for m, rng in twins:
            m.run_batch(random_batch(m, rng))
        (got, _), (want, _) = twins
        got_state = pte_state(got)
        assert got_state == pte_state(want)
        assert got_state["pml_log"]
    assert got.ptw.stats.poison_faults > 0


class TestFaults:
    """The exception the per-process loop raised: lowest faulting PID,
    that PID's distinct unmapped VPNs (all of them for an unmapped PID)."""

    @pytest.mark.parametrize("seed", range(0, N_MACHINES, 5))
    def test_bad_vpn_and_unmapped_pid_in_later_processes(self, seed):
        m, rng = random_machine(seed)
        good = random_batch(m, rng, n=200)
        pids = sorted(m.page_tables)
        victim = pids[len(pids) // 2]
        last = m.page_tables[victim].vmas[-1]
        stray = [last.end_vpn, last.end_vpn + 7, last.end_vpn, 0x5]
        ghost = max(pids) + 3
        for extra, want_pid in (
            (AccessBatch.from_pages(stray, pid=victim), victim),
            (AccessBatch.from_pages([0x10000, 0x10001, 0x10000], pid=ghost), ghost),
            (AccessBatch.from_pages([0x10000], pid=-4), -4),
        ):
            bad = AccessBatch.concat([good, extra, good])
            with pytest.raises(TranslationFault) as want:
                per_process_reference(m, bad)
            with pytest.raises(TranslationFault) as got:
                m.run_batch(bad)
            assert got.value.pid == want.value.pid == want_pid
            assert got.value.vpns.dtype == want.value.vpns.dtype
            np.testing.assert_array_equal(got.value.vpns, want.value.vpns)
            assert str(got.value) == str(want.value)

    def test_lowest_faulting_pid_wins(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        m.mmap(3, 4), m.mmap(5, 4), m.mmap(9, 4)
        bad = AccessBatch.concat(
            [
                AccessBatch.from_pages([0x9999], pid=9),
                AccessBatch.from_pages([0x7777, 0x7778], pid=5),
                AccessBatch.from_pages([0x1000], pid=3),
            ]
        )
        with pytest.raises(TranslationFault) as exc:
            m.run_batch(bad)
        assert exc.value.pid == 5
        np.testing.assert_array_equal(exc.value.vpns, [0x7777, 0x7778])

    def test_vpn_beyond_the_key_space_faults_instead_of_aliasing(self):
        """Bit 48 of a VPN would read as "the next process" in a
        composite key; it must fault, not translate as PID 2's page."""
        m = Machine(MachineConfig(total_frames=1 << 10))
        m.mmap(1, 4, start_vpn=0x1000), m.mmap(2, 4, start_vpn=0x1000)
        alias = (1 << 48) | 0x1000
        with pytest.raises(TranslationFault) as exc:
            m.run_batch(
                AccessBatch(
                    vaddr=np.array([alias << 12], dtype=np.uint64),
                    is_store=False, pid=1, cpu=0,
                )
            )
        assert exc.value.pid == 1
        with pytest.raises(ValueError, match="48-bit"):
            m.mmap(1, 4, start_vpn=(1 << 48) - 2)

    def test_machine_without_mappings(self):
        m = Machine(MachineConfig(total_frames=16))
        m.process(1)
        for pid in (1, 0):
            with pytest.raises(TranslationFault) as exc:
                m.run_batch(AccessBatch.from_pages([3, 3, 4], pid=pid))
            assert exc.value.pid == pid
            np.testing.assert_array_equal(exc.value.vpns, [3, 4])

    def test_pids_too_far_apart_are_rejected_not_aliased(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        low = m.mmap(100_000, 4)
        high = m.mmap(100_000 + MAX_PID_SPAN, 4)  # any PID values, bounded spread
        r = m.run_batch(
            AccessBatch.concat(
                [
                    AccessBatch.from_pages(high.vpns, pid=100_000 + MAX_PID_SPAN),
                    AccessBatch.from_pages(low.vpns, pid=100_000),
                ]
            )
        )
        np.testing.assert_array_equal(r.pfn, np.concatenate([high.pfns, low.pfns]))
        m.process(99_999)  # no mapping, not indexed
        assert m.vma_index.tables == [m.page_tables[100_000], m.page_tables[100_000 + MAX_PID_SPAN]]
        m.mmap(99_999, 4)
        with pytest.raises(ValueError, match=r"PIDs 99999\.\.165534"):
            m.run_batch(AccessBatch.from_pages(low.vpns, pid=100_000))


class TestNeverStale:
    def test_index_is_kept_until_a_mapping_changes(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        v = m.mmap(1, 8)
        index = m.vma_index
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        m.process(2)  # a process with no mapping changes nothing
        assert m.vma_index is index

    def test_mmap_on_the_page_table_is_seen_by_the_next_batch(self):
        m = Machine(MachineConfig(total_frames=1 << 10))
        v = m.mmap(1, 8)
        m.run_batch(AccessBatch.from_pages(v.vpns, pid=1))
        index = m.vma_index
        late = m.process(1).mmap(0x9000, 4, m.allocator)
        other = m.process(7).mmap(0x9000, 4, m.allocator)
        r = m.run_batch(
            AccessBatch.concat(
                [
                    AccessBatch.from_pages(late.vpns, pid=1),
                    AccessBatch.from_pages(other.vpns, pid=7),
                ]
            )
        )
        assert m.vma_index is not index
        np.testing.assert_array_equal(r.pfn, np.concatenate([late.pfns, other.pfns]))

    def test_failed_mmap_keeps_the_index(self):
        m = Machine(MachineConfig(total_frames=16))
        m.mmap(1, 10)
        index = m.vma_index
        with pytest.raises(MemoryError):
            m.mmap(2, 10)
        with pytest.raises(ValueError, match="overlaps"):
            m.mmap(1, 2, start_vpn=m.page_tables[1].vmas[0].start_vpn)
        assert m.vma_index is index


class TestFrameView:
    def test_rows_in_frame_order_across_processes(self):
        m = Machine(MachineConfig(total_frames=1 << 12))
        a = m.mmap(9, 5, start_vpn=0x300)
        b = m.mmap(2, 600, start_vpn=0x4000, page_order=9)
        c = m.mmap(9, 3, start_vpn=0x100)
        view = m.vma_index.by_pfn
        np.testing.assert_array_equal(view.pfn_base, [a.pfn_base, b.pfn_base, c.pfn_base])
        np.testing.assert_array_equal(view.npages, [5, 600, 3])
        np.testing.assert_array_equal(view.start_vpn, [0x300, 0x4000, 0x100])
        np.testing.assert_array_equal(view.page_order, [0, 9, 0])
        np.testing.assert_array_equal(view.pid, [9, 2, 9])
        assert all(col.dtype == np.int64 for col in view)

    def test_empty_index(self):
        index = VMAIndex(())
        assert index.by_pfn.pfn_base.size == 0
        assert index.tables == [] and index.keys.size == 1
        pfn, slot, tlb_vpn = PageTable(1).translate_ex(np.zeros(0, dtype=np.uint64))
        assert pfn.size == slot.size == tlb_vpn.size == 0


class TestOneColumn:
    """Every mapped table's flags are a view of the machine's column, in
    PID order, whatever order the mappings came in and however made."""

    @staticmethod
    def assert_laid_out(m: Machine) -> None:
        column = m.pte
        bases = column_bases(m)
        assert column.flags.size == column.slot_pfn.size == sum(
            pt.n_pages for pt in m.page_tables.values()
        )
        for pid, pt in m.page_tables.items():
            if not pt.n_pages:
                continue
            assert np.shares_memory(pt.flags, column.flags)
            assert pt.base == bases[pid]
            slots = np.arange(pt.n_pages)
            np.testing.assert_array_equal(
                column.slot_pfn[bases[pid] + slots], pt.slot_to_pfn(slots)
            )

    def test_interleaved_mmaps(self):
        m = Machine(MachineConfig(total_frames=1 << 14))
        for pid, npages, order in (
            (9, 5, 0), (2, 600, 9), (9, 3, 0), (4, 7, 0), (2, 2, 0)
        ):
            m.mmap(pid, npages, page_order=order)
        m.process(3)  # registered, never mapped: no slots
        self.assert_laid_out(m)
        assert [pt.pid for pt in m.vma_index.tables] == [2, 4, 9]
        assert (m.pte.flags == PTE_DEFAULT).all()

    def test_mmap_straight_on_the_page_table_keeps_every_bit(self):
        m = Machine(MachineConfig(total_frames=1 << 12))
        a, b = m.mmap(5, 8), m.mmap(7, 8)
        m.run_batch(
            AccessBatch.concat(
                [
                    AccessBatch.from_pages(a.vpns, pid=5, is_store=True),
                    AccessBatch.from_pages(b.vpns[:3], pid=7),
                ]
            )
        )
        m.page_tables[7].flags[5] |= PTE_POISON
        before = {pid: pt.flags.copy() for pid, pt in m.page_tables.items()}
        # A new region in the lower PID moves the higher one's slots.
        m.process(5).mmap(0x9000, 4, m.allocator)
        m.process(1).mmap(0x9000, 2, m.allocator)
        self.assert_laid_out(m)
        assert m.page_tables[7].base == 2 + 12
        for pid, flags in before.items():
            np.testing.assert_array_equal(m.page_tables[pid].flags[: flags.size], flags)
        both = PTE_ACCESSED | PTE_DIRTY
        assert (m.page_tables[5].flags[:8] & both == both).all()
        assert m.page_tables[7].flags[5] & PTE_POISON

    def test_a_write_through_a_table_reaches_the_next_batch(self):
        m = Machine(MachineConfig(total_frames=1 << 12))
        m.mmap(3, 8)
        v = m.mmap(6, 8)
        copy = pickle.loads(pickle.dumps(m))
        self.assert_laid_out(copy)
        copy.page_tables[6].flags[2] |= PTE_POISON
        copy.run_batch(AccessBatch.from_pages(v.vpns[2:3], pid=6))
        assert copy.badgertrap.stats.faults == 1
        assert m.page_tables[6].flags[2] & PTE_POISON == 0
