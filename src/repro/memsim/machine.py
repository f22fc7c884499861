"""Whole-machine assembly: the simulated testbed.

A :class:`Machine` wires together the page tables, TLB + walker, cache
hierarchy, PMU, trace samplers (IBS, PEBS and LWP), PML and BadgerTrap, and
executes workload :class:`~repro.memsim.events.AccessBatch` streams
through them in program order.  Each executed batch yields a
:class:`BatchResult` carrying the per-access microarchitectural outcome
(physical address, TLB hit, data source) plus the raw PMU event counts
— everything the profilers under study are allowed to observe, and the
ground truth they are measured against.

The default configuration loosely models the paper's testbed (AMD
Ryzen 5 3600X: 6 cores, 32 MiB LLC, 64 GiB DRAM) with
capacity-equivalent direct-mapped lookup structures (see
:mod:`repro.memsim.vecsim` for the exactness/performance rationale).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .address import (
    ADDR_DTYPE,
    LINE_SHIFT,
    LINE_SIZE,
    PAGE_OFFSET_MASK,
    PAGE_SHIFT,
    page_of,
    pow2_floor,
)
from .badgertrap import BadgerTrap
from .cache import CacheHierarchy
from .events import AccessBatch, DataSource
from .frames import BatchFrameCounts, FrameAllocator, FrameStats
from .ibs import IBSSampler
from .lwp import LWPSampler
from .page_table import VMA, PageTable, PTEColumns, VMAIndex
from .pebs import PEBSSampler
from .pml import PMLogger
from .pmu import PMU
from .ptw import PageTableWalker
from .sampling import DEFAULT_IBS_PERIOD
from .tlb import TLBArray
from .vecsim import engine_sets, fold_shards

__all__ = ["MachineConfig", "Machine", "BatchResult"]


@dataclass
class MachineConfig:
    """Tunable parameters of the simulated machine."""

    #: Physical memory size in 4 KiB frames (default 16 Mi frames = 64 GiB).
    total_frames: int = 1 << 24
    #: dTLB capacity in translations (L1+L2 dTLB capacity-equivalent).
    tlb_entries: int = 2048
    tlb_ways: int = 1
    #: Cache sizes (Ryzen 3600X-like: 32K L1D, 512K L2, 32M shared LLC).
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 512 * 1024
    llc_bytes: int = 32 * 1024 * 1024
    cache_ways: int = 1
    #: Use the exact set-associative LRU engines (vectorized).
    exact_assoc: bool = False
    n_cpus: int = 6
    #: Simulated memory-access throughput, accesses/second.  Converts op
    #: counts to wall-clock for scan scheduling and overhead accounting.
    ops_per_second: float = 1e9
    #: IBS op-sampling period (paper default: 1 / 256 Ki ops).
    ibs_period: int = DEFAULT_IBS_PERIOD
    #: IBS period randomization (fraction; real IBS jitters its counter
    #: to break lockstep with loop-structured code).  0 keeps sampling
    #: deterministic, which the calibrated experiments rely on.
    ibs_jitter: float = 0.0
    #: PEBS armed-event period.
    pebs_period: int = 64
    pmu_counters: int = 6
    #: LWP op-sampling period (per-process ring buffers, §II-B).
    lwp_period: int = 64
    enable_pml: bool = False
    #: First VPN handed to auto-placed VMAs, and guard gap between them.
    vma_base_vpn: int = 0x1000
    vma_guard_pages: int = 16

    #: Load-use cycle costs by data source, plus the page-walk penalty.
    #: These feed the machine's AMAT accounting (``Machine.cycles``,
    #: ``BatchResult.cycles``) — an analysis signal; epoch/scan
    #: scheduling stays op-based.
    cycles_l1: int = 4
    cycles_l2: int = 14
    cycles_llc: int = 40
    cycles_mem: int = 200
    cycles_walk: int = 20

    def __post_init__(self) -> None:
        # A TLB or cache geometry no engine can hold is refused here,
        # naming the fields that set it.
        for size, entries, ways in (
            ("tlb_entries", self.tlb_entries, "tlb_ways"),
            ("l1_bytes", self.l1_bytes // LINE_SIZE, "cache_ways"),
            ("l2_bytes", self.l2_bytes // LINE_SIZE, "cache_ways"),
            ("llc_bytes", self.llc_bytes // LINE_SIZE, "cache_ways"),
        ):
            try:
                engine_sets(
                    pow2_floor(entries),
                    getattr(self, ways),
                    exact_assoc=self.exact_assoc,
                )
            except ValueError as err:
                raise ValueError(
                    f"{size}={getattr(self, size)}, {ways}={getattr(self, ways)}: {err}"
                ) from None

    @classmethod
    def scaled(cls, **overrides) -> "MachineConfig":
        """The experiment testbed: the paper's machine scaled ~1/64.

        Workload footprints in :mod:`repro.workloads.registry` are the
        paper's inputs scaled down ~64x; this preset shrinks TLB reach,
        cache capacities, the IBS period, and the clock by the same
        factor so every capacity *ratio* (footprint : TLB reach,
        hot set : LLC, samples : pages, epoch : scan interval) matches
        the full-size system.  One epoch of ~200 K accesses ≈ one
        second of simulated time, the paper's profiling quantum.
        """
        params = dict(
            total_frames=1 << 22,
            tlb_entries=256,
            l1_bytes=8 * 1024,
            l2_bytes=64 * 1024,
            llc_bytes=1024 * 1024,
            ops_per_second=2.0e5,
            # Preserves the paper's samples-per-second: 1e9 ops/s at
            # period 256 Ki ≈ 3.8 K samples/s ⇔ 2e5 ops/s at period 64.
            ibs_period=64,
            pebs_period=64,
        )
        params.update(overrides)
        return cls(**params)


@dataclass
class BatchResult:
    """Per-access outcome of one executed batch (SoA, program order)."""

    #: Global op index of the batch's first access.
    op_base: int
    #: Physical byte address per access.
    paddr: np.ndarray
    #: Physical frame number per access.
    pfn: np.ndarray
    #: PTE slot per access: machine-wide, an index into ``Machine.pte``
    #: as laid out when the batch ran.
    slot: np.ndarray
    #: True where the access hit the TLB.
    tlb_hit: np.ndarray
    #: DataSource per access (uint8).
    data_source: np.ndarray
    #: True where the access was serviced from a memory tier (missed
    #: every cache).  Shared with the machine's own accounting:
    #: read-only, like ``pids``, ``pid_ops`` and ``frame_counts``.
    mem_mask: np.ndarray
    #: PIDs that executed in the batch (ascending) and their op counts.
    pids: np.ndarray
    pid_ops: np.ndarray
    #: Per-frame access / memory-access / TLB-miss counts of the batch,
    #: as counted once by ``FrameStats.record``.
    frame_counts: BatchFrameCounts
    #: Raw PMU-visible event counts for this batch.
    raw_events: dict[str, int] = field(default_factory=dict)
    #: Modelled memory-access cycles for the batch (AMAT accounting).
    cycles: int = 0

    @property
    def n(self) -> int:
        return int(self.paddr.size)

    @property
    def amat_cycles(self) -> float:
        """Average memory-access time in cycles for this batch."""
        return self.cycles / self.n if self.n else 0.0


class _ServicePoints(NamedTuple):
    #: Batch positions, ascending, at which the batch stops.
    cuts: Sequence[int]
    #: Called at every cut, with the op clock standing at the cut.
    service: Callable[[], object]
    #: The service may invalidate TLB entries the next slice looks up.
    flushes_tlb: bool


def _raw_events(
    is_store: np.ndarray, data_source: np.ndarray, mem_mask: np.ndarray, miss: np.ndarray
) -> dict[str, int]:
    """The PMU-visible event counts of one executed slice."""
    n = int(is_store.size)
    n_stores = int(np.count_nonzero(is_store))
    n_miss = int(np.count_nonzero(miss))
    return {
        "retired_ops": n,
        "retired_loads": n - n_stores,
        "retired_stores": n_stores,
        "l1_miss": int(np.count_nonzero(data_source != np.uint8(DataSource.L1))),
        "l2_miss": int(np.count_nonzero(data_source >= np.uint8(DataSource.LLC))),
        "llc_miss": int(np.count_nonzero(mem_mask)),
        "dtlb_miss": n_miss,
        "ptw_walks": n_miss,
    }


class Machine:
    """The simulated machine executing access streams."""

    #: Set only inside a :meth:`service_points` block, so a machine at
    #: rest (and every pickled one) carries none.
    _service: _ServicePoints | None = None

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        c = self.config
        self.allocator = FrameAllocator(c.total_frames)
        self.frame_stats = FrameStats()
        self.page_tables: dict[int, PageTable] = {}
        self._next_vpn: dict[int, int] = {}
        self._vma_index = VMAIndex(())
        self._pte = PTEColumns()
        self._indexed_frames = 0
        self.tlb = TLBArray(
            n_cpus=c.n_cpus,
            entries=c.tlb_entries,
            ways=c.tlb_ways,
            exact_assoc=c.exact_assoc,
        )
        self.caches = CacheHierarchy(
            c.l1_bytes,
            c.l2_bytes,
            c.llc_bytes,
            n_cpus=c.n_cpus,
            ways=c.cache_ways,
            exact_assoc=c.exact_assoc,
        )
        self.ptw = PageTableWalker()
        self.pmu = PMU(n_counters=c.pmu_counters)
        # Built disarmed: TMP's trace driver arms the one it drains.
        self.ibs = IBSSampler(period=c.ibs_period, jitter=c.ibs_jitter, enabled=False)
        self.pebs = PEBSSampler(period=c.pebs_period, enabled=False)
        self.lwp = LWPSampler(period=c.lwp_period, enabled=False)
        self.pml = PMLogger()
        self.pml.enabled = c.enable_pml
        self.badgertrap = BadgerTrap()
        self.op_counter = 0
        #: Cumulative modelled memory-access cycles (AMAT numerator).
        self.cycles = 0

    # ------------------------------------------------------------- processes

    def process(self, pid: int) -> PageTable:
        """Get or create the page table for ``pid``."""
        pt = self.page_tables.get(pid)
        if pt is None:
            pt = PageTable(pid)
            self.page_tables[pid] = pt
            self._next_vpn[pid] = self.config.vma_base_vpn
        return pt

    def mmap(
        self,
        pid: int,
        npages: int,
        name: str = "anon",
        start_vpn: int | None = None,
        page_order: int = 0,
    ) -> VMA:
        """Map a new VMA for ``pid``; auto-placed unless ``start_vpn`` given.

        ``page_order=9`` backs the region with 2 MiB huge PTEs (THP).
        """
        pt = self.process(pid)
        if start_vpn is None:
            start_vpn = self._next_vpn[pid]
        vma = pt.mmap(
            start_vpn, npages, self.allocator, name=name, page_order=page_order
        )
        self._next_vpn[pid] = max(
            self._next_vpn[pid], vma.end_vpn + self.config.vma_guard_pages
        )
        self.frame_stats.resize(self.allocator.allocated)
        return vma

    @property
    def vma_index(self) -> VMAIndex:
        """Every process's VMAs as one interval table, never stale.

        Every mapping takes its frames from the machine's allocator and
        frames are never handed back, so the allocation count is the
        mapping version: the index is rebuilt when the count has moved
        — also after an ``mmap`` made straight on ``process(pid)``,
        whose frames get their first-touch stamps here — and is the
        same object for as long as nothing is mapped.
        """
        self._reindex_if_mapped()
        return self._vma_index

    @property
    def pte(self) -> PTEColumns:
        """Every mapped process's PTE flags and slot → PFN, one column
        each, indexed by the slots :attr:`vma_index` translates to.

        Laid out again with the index, in its PID order; each page
        table's ``flags`` is a view of its slice.
        """
        self._reindex_if_mapped()
        return self._pte

    def _reindex_if_mapped(self) -> None:
        if self._indexed_frames != self.allocator.allocated:
            self._vma_index = VMAIndex(self.page_tables.values())
            self._pte = self._vma_index.lay_out()
            self._indexed_frames = self.allocator.allocated
            self.frame_stats.resize(self._indexed_frames)

    @property
    def n_frames(self) -> int:
        """Frames allocated so far (PFN-indexed array length)."""
        return self.allocator.allocated

    @property
    def time_s(self) -> float:
        """Simulated application wall-clock so far."""
        return self.op_counter / self.config.ops_per_second

    @property
    def amat_cycles(self) -> float:
        """Whole-run average memory-access time in cycles."""
        return self.cycles / self.op_counter if self.op_counter else 0.0

    # --------------------------------------------------------------- execute

    @contextmanager
    def service_points(
        self,
        cuts: Sequence[int],
        service: Callable[[], object],
        *,
        flushes_tlb: bool,
    ) -> Iterator[None]:
        """Stop every batch run inside the block at ``cuts`` (ascending
        batch positions) and call ``service`` there.

        The batch still runs as one pass: only its page walks and dirty
        bits — what a service reading PTE bits can see — run slice by
        slice, and the op clock (``time_s``) stands at each cut while
        ``service`` runs.  A service that may invalidate translations
        (``flushes_tlb``) also cuts the TLB lookups, so the next slice
        looks up what the service left.  Caches, samplers and ground
        truth see the whole batch; the PMU still gets one update per
        slice.
        """
        self._service = _ServicePoints(tuple(cuts), service, flushes_tlb)
        try:
            yield
        finally:
            del self._service

    def _lookups_and_walks(
        self,
        batch: AccessBatch,
        tlb_vpn: np.ndarray,
        shard: np.ndarray | None,
        slot: np.ndarray,
        pfn: np.ndarray,
        stops: list[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stages 2 to 4, in one loop over the batch's slices (which end
        at ``stops``): the TLB lookups of a span, then each of its
        slices' walks and dirty bits, each slice but the last followed
        by the service.  A span is the rest of the batch unless the
        service flushes translations; then it is one slice.  Returns
        the TLB hit and miss masks."""
        plan = self._service
        span_per_slice = plan is not None and plan.flushes_tlb
        n = batch.n
        op_base = self.op_counter
        hits: list[np.ndarray] = []
        start = looked_up = 0
        for i, stop in enumerate(stops):
            if stop > start:
                if start == looked_up:
                    looked_up = stop if span_per_slice else n
                    span = slice(start, looked_up)
                    hits.append(
                        self.tlb.access(
                            batch.pid[span],
                            tlb_vpn[span],
                            shard=None if shard is None else shard[span],
                        )
                    )
                    miss, offset = ~hits[-1], start
                self._walk_and_dirty(
                    miss[start - offset : stop - offset],
                    batch.is_store[start:stop],
                    slot[start:stop],
                    pfn[start:stop],
                )
            if i < len(stops) - 1:
                self.op_counter = op_base + stop
                plan.service()
            start = stop
        if len(hits) == 1:
            return hits[0], miss
        tlb_hit = np.concatenate(hits)
        return tlb_hit, ~tlb_hit

    def _walk_and_dirty(
        self, miss: np.ndarray, is_store: np.ndarray, slot: np.ndarray, pfn: np.ndarray
    ) -> None:
        """Stages 3 and 4 of :meth:`run_batch` for one slice: one walk
        over its misses and one dirty-bit update over its stores, both
        on the machine's PTE column, whatever the number of processes.

        Newly dirtied slots come back ascending, which in the column's
        PID-major layout is (PID, slot) order: the PML log's order.
        """
        pte = self._pte
        poisoned = self.ptw.fill_walks(pte, slot[miss])
        if poisoned.any():
            self.badgertrap.handle_faults(pfn[miss][poisoned])
        newly_dirty = self.ptw.dirty_updates(pte, slot[is_store])
        if newly_dirty.size and self.pml.enabled:
            self.pml.observe_dirty(pte.slot_pfn[newly_dirty])

    def run_batch(self, batch: AccessBatch) -> BatchResult:
        """Execute one access batch through the full machine pipeline.

        Every per-access quantity more than one structure needs — the
        PID grouping, the CPU→shard fold, the TLB-miss and memory
        masks, the frame numbers as indices — is derived here, once,
        and handed down; what outlives the call is shared read-only
        through the :class:`BatchResult`.  Inside a
        :meth:`service_points` block the batch is cut into slices.
        """
        n = batch.n
        op_base = self.op_counter
        plan = self._service
        cuts = plan.cuts if plan else ()
        if n == 0:
            for _ in cuts:
                plan.service()
            none = np.zeros(0, dtype=np.int64)
            return BatchResult(
                op_base=op_base,
                paddr=np.zeros(0, dtype=ADDR_DTYPE),
                pfn=np.zeros(0, dtype=ADDR_DTYPE),
                slot=np.zeros(0, dtype=np.int64),
                tlb_hit=np.zeros(0, dtype=bool),
                data_source=np.zeros(0, dtype=np.uint8),
                mem_mask=np.zeros(0, dtype=bool),
                pids=none,
                pid_ops=none,
                frame_counts=BatchFrameCounts(none, none, none),
            )

        # 1. Address translation: one lookup in the machine-wide VMA
        #    index for the whole batch, whoever its processes are.  The
        #    TLB tag is the mapping unit's head VPN (2 MiB-aligned for
        #    huge-page regions).  A fault is raised here, before
        #    anything is mutated: a faulting batch leaves the machine
        #    as it found it.
        index = self.vma_index
        pfn, slot, tlb_vpn, rank = index.translate(batch.pid, page_of(batch.vaddr))
        pids, pid_ops = index.process_ops(rank)

        # 2. Per-CPU TLB lookup (misses install their fill).  The CPU
        #    column is folded onto the cores once, for the TLB and the
        #    private cache levels alike.
        # 3. Page-table walks on misses (A bits, poison faults) and
        # 4. dirty bits on stores (TLB-independent; see ptw docstring),
        #    slice by slice with the service points between them.  The
        #    translated slots index the machine's one PTE column.
        n_cpus = self.config.n_cpus
        shard = fold_shards(batch.cpu, n_cpus) if n_cpus > 1 else None
        stops = [*cuts, n]
        tlb_hit, miss = self._lookups_and_walks(batch, tlb_vpn, shard, slot, pfn, stops)
        del rank, tlb_vpn

        # 5. Cache hierarchy on physical line addresses.
        paddr = (pfn << ADDR_DTYPE(PAGE_SHIFT)) | (
            batch.vaddr & ADDR_DTYPE(PAGE_OFFSET_MASK)
        )
        lines = paddr >> ADDR_DTYPE(LINE_SHIFT)
        data_source = self.caches.access(lines, shard=shard)
        del lines, shard
        mem_mask = data_source == np.uint8(DataSource.MEMORY)

        # 6. Raw PMU events: one time slice per executed slice, since
        #    the PMU's multiplexing rotor advances per update.
        per_slice = [
            _raw_events(
                batch.is_store[a:b], data_source[a:b], mem_mask[a:b], miss[a:b]
            )
            for a, b in zip([0, *cuts], stops)
            if b > a
        ]
        if self.pmu.events:
            for raw in per_slice:
                self.pmu.update(raw)
        raw = {key: sum(r[key] for r in per_slice) for key in per_slice[0]}

        # AMAT accounting: every access pays its servicing level's
        # load-use latency; TLB misses add a page-walk penalty.
        cfg = self.config
        batch_cycles = int(
            n * cfg.cycles_l1
            + raw["l1_miss"] * (cfg.cycles_l2 - cfg.cycles_l1)
            + raw["l2_miss"] * (cfg.cycles_llc - cfg.cycles_l2)
            + raw["llc_miss"] * (cfg.cycles_mem - cfg.cycles_llc)
            + raw["dtlb_miss"] * cfg.cycles_walk
        )
        self.cycles += batch_cycles

        # 7. Trace samplers: all three are called (the e2e tracer wraps
        #    each ``observe``); only an armed one looks at the batch.
        self.ibs.observe(
            batch, op_base=op_base, paddr=paddr, tlb_hit=tlb_hit, data_source=data_source
        )
        self.pebs.observe(
            batch, op_base=op_base, paddr=paddr, tlb_hit=tlb_hit, data_source=data_source
        )
        self.lwp.observe(
            batch, op_base=op_base, paddr=paddr, tlb_hit=tlb_hit, data_source=data_source
        )

        # 8. Ground truth; its per-frame counts of the batch go out
        #    with the result instead of being counted again.
        frame_counts = self.frame_stats.record(
            pfn.view(np.int64), mem_mask, miss, op_base
        )
        self.op_counter = op_base + n

        for shared in (mem_mask, pids, pid_ops):
            shared.flags.writeable = False
        return BatchResult(
            op_base=op_base,
            paddr=paddr,
            pfn=pfn,
            slot=slot,
            tlb_hit=tlb_hit,
            data_source=data_source,
            mem_mask=mem_mask,
            pids=pids,
            pid_ops=pid_ops,
            frame_counts=frame_counts,
            raw_events=raw,
            cycles=batch_cycles,
        )
