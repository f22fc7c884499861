"""``ABitDriver.scan`` against the per-PID loop it replaced.

The scan test-and-clears every tracked process's window at once, in
one gather over the machine's PTE column, maps slots to frames by one
more gather and credits the store once per pass.  The original loop —
per process, gather/scatter through ``arange % n`` on its own table, a
mask per VMA for slot → PFN/VPN, one ``record_abit`` per process — is
kept here as the reference; both run over twin machines and must leave
the same PTE flags, store arrays, cursors, TLB and every
``ABitScanStats`` field, ``time_s`` compared with ``==`` (the cost
model's float additions happen per process, in the same order), also
when a pass visits a process twice.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import ABitDriver, PageStatsStore, TMPConfig
from repro.core.abit_driver import ABitScanStats
from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.memsim.pte import PTE_ACCESSED


def _slot_to(pt, slots, base_of):
    out = np.empty(slots.size, dtype=np.uint64)
    for v in pt.vmas:
        m = (slots >= v.slot_base) & (slots < v.slot_base + v.n_units)
        out[m] = np.uint64(base_of(v)) + (
            (slots[m] - v.slot_base).astype(np.uint64) << np.uint64(v.page_order)
        )
    return out


class ReferenceDriver:
    """The parent's ``ABitDriver.scan``, verbatim but for the names."""

    def __init__(self, machine, config, store):
        self.machine, self.config, self.store = machine, config, store
        self.stats = ABitScanStats()
        self._cursors = {}

    def scan(self, pids) -> int:
        costs = self.config.costs
        budget = self.config.abit_scan_budget_pages
        found_total = 0
        self.stats.scans += 1
        for pid in pids:
            pt = self.machine.page_tables.get(int(pid))
            if pt is None or pt.n_pages == 0:
                continue
            self.stats.processes_scanned += 1
            self.stats.time_s += costs.abit_per_scan_s
            n = pt.n_pages
            if self.config.abit_scan_resumable:
                start = self._cursors.get(pid, 0) % n
            else:
                start = 0
            span = n if budget is None else min(budget, n)
            idx = (start + np.arange(span, dtype=np.int64)) % n
            self._cursors[pid] = (start + span) % n
            flags = pt.flags
            visited = flags[idx]
            had = (visited & PTE_ACCESSED) != 0
            flags[idx] = visited & ~PTE_ACCESSED
            self.stats.ptes_visited += span
            self.stats.time_s += span * costs.abit_per_pte_s
            set_slots = idx[had]
            n_found = int(set_slots.size)
            if n_found:
                self.store.record_abit(_slot_to(pt, set_slots, lambda v: v.pfn_base))
                found_total += n_found
                self.stats.bits_found_set += n_found
            if self.config.abit_shootdown and n_found:
                vpns = _slot_to(pt, set_slots, lambda v: v.start_vpn)
                self.machine.tlb.shootdown_pages(
                    np.full(vpns.size, pid, dtype=np.int32), vpns
                )
                self.stats.shootdowns += 1
                self.stats.time_s += costs.shootdown_s
        return found_total


PIDS = (11, 12, 15, 19, 23)
SMALL_PID, SMALL_PTES = 31, 10  # a table a budget of 7 wraps around


def build(config: TMPConfig, thp: bool, driver_cls):
    m = Machine(MachineConfig(total_frames=1 << 16, tlb_entries=64, n_cpus=2))
    vmas = []
    for i, pid in enumerate(PIDS):
        vmas.append((pid, m.mmap(pid, 40 + 9 * i)))
        vmas.append((pid, m.mmap(pid, 1200 + 300 * i, page_order=9 if thp else 0)))
        if i % 2:
            vmas.append((pid, m.mmap(pid, 5)))
    vmas.append((SMALL_PID, m.mmap(SMALL_PID, SMALL_PTES)))
    m.process(99)  # registered, never mapped
    store = PageStatsStore()
    store.resize(m.n_frames)
    return m, vmas, store, driver_cls(m, config, store)


def traffic(vmas, rng) -> AccessBatch:
    parts = []
    for pid, vma in vmas:
        pages = rng.integers(0, vma.npages, max(3, vma.npages // 6))
        parts.append(
            AccessBatch.from_pages(
                vma.start_vpn + pages.astype(np.uint64), pid=pid, cpu=pid % 2
            )
        )
    return AccessBatch.concat(parts)


def state(m, store, drv):
    return dict(
        flags={pid: pt.flags.tolist() for pid, pt in m.page_tables.items()},
        abit_total=store.abit_total.tolist(),
        cursors=dict(drv._cursors),
        stats=dataclasses.asdict(drv.stats),
        tlb=(
            m.tlb.occupancy(),
            m.tlb.stats.shootdowns,
            m.tlb.stats.entries_invalidated,
            m.tlb.stats.ipis,
        ),
    )


CONFIGS = list(
    itertools.product((None, 7, 1024), (False, True), (False, True), (False, True))
)


def run_twins(budget, resumable, shootdown, thp, tracked, rounds):
    """Both drivers over twin machines, ``rounds`` scans cycling through
    ``tracked``; everything they leave must be equal after every scan."""
    config = TMPConfig(
        abit_scan_budget_pages=budget,
        abit_scan_resumable=resumable,
        abit_shootdown=shootdown,
    )
    new_m, vmas, new_store, new = build(config, thp, ABitDriver)
    ref_m, _, ref_store, ref = build(config, thp, ReferenceDriver)
    for round_, pids in enumerate(itertools.islice(itertools.cycle(tracked), rounds)):
        rng_new, rng_ref = (np.random.default_rng(round_) for _ in range(2))
        new_m.run_batch(traffic(vmas, rng_new))
        ref_m.run_batch(traffic(vmas, rng_ref))
        assert new.scan(pids) == ref.scan(pids)
        got, want = state(new_m, new_store, new), state(ref_m, ref_store, ref)
        assert got["stats"]["time_s"] == want["stats"]["time_s"]  # ==, not approx
        assert got == want
    return new


@pytest.mark.parametrize("budget, resumable, shootdown, thp", CONFIGS)
def test_scan_equals_the_per_pid_loop(budget, resumable, shootdown, thp):
    # Everybody, then what a process filter would leave (a subset, one
    # unmapped PID, one unknown PID), in and out of PID order.
    tracked = ([*PIDS, SMALL_PID], [23, SMALL_PID, 12, 99, 15, 404], [19], [])
    new = run_twins(budget, resumable, shootdown, thp, tracked, rounds=9)
    if budget == 7 and resumable:
        # Five passes of 7 over 10 PTEs: the gather/scatter branch ran.
        assert new._cursors[SMALL_PID] == (5 * 7) % SMALL_PTES
    assert new.stats.bits_found_set > 0
    assert new.stats.shootdowns > 0 or not shootdown


@pytest.mark.parametrize("budget, resumable, shootdown, thp", CONFIGS)
def test_a_process_visited_twice_is_credited_once(budget, resumable, shootdown, thp):
    """The second visit finds the first one's bits already cleared: its
    window, where it overlaps the first, credits nothing.  (One gather
    over both windows would credit those pages twice.)"""
    tracked = ([12, 12, 15], [SMALL_PID, 19, SMALL_PID, SMALL_PID])
    new = run_twins(budget, resumable, shootdown, thp, tracked, rounds=4)
    assert new.stats.processes_scanned == 2 * (3 + 4)


def test_a_repeated_visit_of_a_whole_table_finds_nothing():
    config = TMPConfig(abit_scan_budget_pages=None)
    found = []
    for pids in ([12], [12, 12]):
        m, vmas, store, drv = build(config, False, ABitDriver)
        m.run_batch(traffic(vmas, np.random.default_rng(0)))
        found.append((drv.scan(pids), store.abit_total.tolist()))
    assert found[0] == found[1] and found[0][0] > 0
