"""Per-process page tables with VMA-backed vectorized translation.

Real x86-64 page tables are 4-level radix trees; what the paper's
mechanisms observe, however, is the *leaf* PTE state: present/A/D/poison
bits, and the VPN→PFN mapping.  We model exactly that leaf state, with
pages grouped into VMAs (the ``vm_area_struct`` analogue) so that
translation of a whole access batch is pure array arithmetic:

    vma   = interval containing (pid, vpn)    (searchsorted)
    pfn   = vma.pfn_base  + (vpn - vma.start)
    slot  = vma.slot_base + (vpn - vma.start)  → index into the
                                                  process's PTE-flag array

The intervals live in a :class:`VMAIndex`: every VMA of a set of page
tables as one table sorted by a composite (process, start VPN) key, so
a batch that mixes processes translates in a single pass.  A
:class:`PageTable` keeps one over its own regions; the machine keeps
one over everybody's (``Machine.vma_index``).

The PTE state itself — flag words and each slot's head frame — lives in
:class:`PTEColumns`.  A standalone table owns its own; on a machine,
every table is a slice of one pair of columns laid out in the index's
PID order (:meth:`VMAIndex.lay_out`), so the walker, the dirty-bit
update and the A-bit scan each touch every process's PTEs in one pass.

``walk()`` mirrors the kernel's ``mm_walk``: it visits every valid PTE
range so the A-bit driver can test-and-clear accessed bits in bulk
(§III-B.2 of the paper).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .address import ADDR_DTYPE
from .frames import FrameAllocator
from .pte import PTE_DEFAULT

__all__ = ["VMA", "VMAIndex", "PTEColumns", "PageTable", "TranslationFault"]

#: A composite key is ``process << VPN_BITS | vpn`` — the split TLB tags
#: use (``tlb.py``): 48 bits of VPN, 16 bits of process.
VPN_BITS = 48
_VPN_SHIFT = ADDR_DTYPE(VPN_BITS)
#: Processes are keyed by their distance from the lowest indexed PID,
#: and one more value marks the end of the table.
MAX_PID_SPAN = (1 << (64 - VPN_BITS)) - 2
#: Accesses translated per pass (see :meth:`VMAIndex.translate`).
_BLOCK = 1 << 15


class TranslationFault(Exception):
    """Raised when a batch touches an unmapped virtual page."""

    def __init__(self, pid: int, vpns: np.ndarray):
        self.pid = pid
        self.vpns = vpns
        preview = ", ".join(hex(int(v)) for v in vpns[:4])
        super().__init__(
            f"pid {pid}: access to {vpns.size} unmapped page(s), e.g. vpn {preview}"
        )


@dataclass(frozen=True)
class VMA:
    """A mapped virtual region (``vm_area_struct`` analogue).

    ``page_order`` selects the mapping granularity: 0 for 4 KiB base
    pages, 9 for 2 MiB transparent huge pages.  A huge-page VMA is
    still backed by 4 KiB frames (``npages`` of them), but has one PTE
    — one slot, one A/D bit, one TLB entry — per 512-frame unit, which
    is precisely the granularity asymmetry that makes A-bit profiling
    coarse on THP-backed heaps while IBS keeps 4 KiB resolution.
    """

    name: str
    start_vpn: int
    npages: int
    pfn_base: int
    slot_base: int
    page_order: int = 0

    @property
    def unit_pages(self) -> int:
        """4 KiB frames per PTE (1 for base pages, 512 for 2 MiB)."""
        return 1 << self.page_order

    @property
    def n_units(self) -> int:
        """Number of PTEs (mapping units) in the region."""
        return (self.npages + self.unit_pages - 1) >> self.page_order

    @property
    def end_vpn(self) -> int:
        """One past the last mapped VPN."""
        return self.start_vpn + self.npages

    @property
    def vpns(self) -> np.ndarray:
        """All VPNs in the region."""
        return np.arange(self.start_vpn, self.end_vpn, dtype=ADDR_DTYPE)

    @property
    def pfns(self) -> np.ndarray:
        """All backing PFNs, aligned with :attr:`vpns`."""
        return np.arange(self.pfn_base, self.pfn_base + self.npages, dtype=ADDR_DTYPE)

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn


class FrameView(NamedTuple):
    """The rows of a :class:`VMAIndex` in frame order (``int64`` columns).

    Frames are handed out in ascending order and never recycled, so the
    regions' frame ranges are disjoint and one ``searchsorted`` over
    ``pfn_base`` finds the region of any frame.  Within one process
    slots are handed out together with frames: there, frame order is
    slot order too.
    """

    pfn_base: np.ndarray
    npages: np.ndarray
    start_vpn: np.ndarray
    page_order: np.ndarray
    slot_base: np.ndarray
    pid: np.ndarray


class PTEColumns:
    """Leaf PTE state as two slot-indexed columns.

    ``flags`` holds the PTE flag words, ``slot_pfn`` each slot's
    mapping-unit head frame (8 bytes per PTE: slot → PFN is a gather).
    One page table's own, or a whole machine's (``Machine.pte``), where
    each table's slots are a contiguous range from its ``base``.
    """

    __slots__ = ("flags", "slot_pfn")

    def __init__(self, n_slots: int = 0):
        self.flags = np.zeros(n_slots, dtype=np.uint64)
        self.slot_pfn = np.zeros(n_slots, dtype=ADDR_DTYPE)


class VMAIndex:
    """Every VMA of a set of page tables as one sorted interval table.

    Rows are sorted by the composite key ``(pid - pid_lo) << 48 |
    start_vpn`` and closed by a zero-length sentinel row past the last
    process.  An access is looked up by the same key built from its own
    ``(pid, vpn)``; whatever finds no region — a gap, a VPN below the
    first or above the last region, an unmapped or foreign PID — lands
    on a row it is not inside of, so the one bounds test ``offset >=
    npages[row]`` is the whole fault check.  Built once per mapping
    change, never per batch.

    Slots are numbered across the tables in the same PID order: table
    ``rank`` owns slots ``bases[rank]`` up to ``bases[rank + 1]``, and a
    translated slot is that base plus the table's own slot — an index
    into the columns :meth:`lay_out` builds.  Over one table, the base
    is 0 and the slots are the table's own.
    """

    def __init__(self, tables: Iterable["PageTable"]):
        #: The indexed page tables (those with a mapping), ascending PID;
        #: ``rank[row]`` is a row's position in this list (emptied in a
        #: page table's index of itself, see ``PageTable.mmap``).
        self.tables = sorted((pt for pt in tables if pt.vmas), key=lambda pt: pt.pid)
        #: First slot of each table, and one past the last slot overall.
        self.bases = [0]
        for pt in self.tables:
            self.bases.append(self.bases[-1] + pt.n_pages)
        self.pids = np.array([pt.pid for pt in self.tables], dtype=np.int64)
        self._pid_lo = int(self.pids[0]) if self.tables else 0
        self._pid_span = int(self.pids[-1]) - self._pid_lo if self.tables else 0
        if self._pid_span > MAX_PID_SPAN:
            raise ValueError(
                f"PIDs {self._pid_lo}..{self._pid_lo + self._pid_span} are more "
                f"than {MAX_PID_SPAN} apart: one machine's processes must fit "
                f"the {64 - VPN_BITS}-bit process field of a TLB tag"
            )
        # Each table keeps its regions sorted by start VPN, so the rows
        # come out in key order; the sentinel closes them.
        rows = [
            (
                pt.pid,
                v.start_vpn,
                v.npages,
                v.pfn_base,
                base + v.slot_base,
                v.page_order,
                rank,
            )
            for rank, (pt, base) in enumerate(zip(self.tables, self.bases))
            for v in pt.vmas
        ]
        self.keys = np.array(
            [((pid - self._pid_lo) << VPN_BITS) | start for pid, start, *_ in rows]
            + [(self._pid_span + 1) << VPN_BITS],
            dtype=ADDR_DTYPE,
        )
        rows.append((0, 0, 0, 0, 0, 0, len(self.tables)))
        pid, start_vpn, npages, pfn_base, slot_base, page_order, rank = np.array(
            rows, dtype=np.int64
        ).T
        self.npages = npages.astype(ADDR_DTYPE)
        self.pfn_base = pfn_base.astype(ADDR_DTYPE)
        self.slot_base = np.ascontiguousarray(slot_base)
        self.page_order = page_order.astype(ADDR_DTYPE)
        self.any_huge = bool(page_order.any())
        self.rank = rank.astype(np.uint16)
        in_frame_order = np.argsort(pfn_base[:-1])
        self.by_pfn = FrameView(
            *(
                column[:-1][in_frame_order]
                for column in (pfn_base, npages, start_vpn, page_order, slot_base, pid)
            )
        )

    # ------------------------------------------------------------ translate

    def translate(
        self, pids: np.ndarray, vpns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Translate ``(pid, vpn)`` pairs to ``(pfns, slots, tlb_vpns, ranks)``.

        One ``searchsorted`` over the index, whatever the number of
        processes in the batch.  ``slots`` are the index's (see the
        class docstring); ``ranks`` (each access's process, as a 16-bit
        position in :attr:`tables`) is what :meth:`process_ops` takes;
        ``tlb_vpns`` is ``vpns`` itself when no region is huge.  Raises
        the :class:`TranslationFault` of the lowest faulting PID,
        listing that PID's distinct unmapped VPNs; nothing is returned
        unless every access translates.

        A long batch goes through in blocks of ``_BLOCK`` accesses:
        the intermediates (key, row, one gather) stay a quarter of a
        megabyte each and cache-resident, instead of 1.3 MB apiece for
        a 160 k-access batch — half the time, and no batch-length
        temporaries for the allocator to keep.
        """
        pids = np.asarray(pids)
        n = vpns.size
        pfn = np.empty(n, dtype=ADDR_DTYPE)
        slot = np.empty(n, dtype=np.int64)
        rank = np.empty(n, dtype=np.uint16)
        tlb_vpn = np.empty(n, dtype=ADDR_DTYPE) if self.any_huge else vpns
        for lo in range(0, n, _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            row, off, bad = self._locate(pids[cut], vpns[cut])
            if bad.any():
                # The parent's report needs every faulting access of
                # the batch, not of this block.
                _, _, bad = self._locate(pids, vpns)
                bad_pids = pids[bad]
                pid = bad_pids.min()
                raise TranslationFault(int(pid), np.unique(vpns[bad][bad_pids == pid]))
            # The interval arithmetic, in one place: frame, PTE slot and
            # TLB tag (the mapping unit's head VPN) from a row and an
            # offset into its region.  (Every row is a real one by now;
            # "clip" only spares ``take`` its bounds-checking copy.)
            frames, slots = pfn[cut], slot[cut]
            self.pfn_base.take(row, out=frames, mode="clip")
            frames += off
            self.slot_base.take(row, out=slots, mode="clip")
            self.rank.take(row, out=rank[cut], mode="clip")
            if not self.any_huge:
                slots += off.view(np.int64)
                continue
            shift = self.page_order[row]
            unit = off >> shift
            slots += unit.view(np.int64)
            unit <<= shift
            unit -= off  # from the page back to its unit's head: <= 0, wraps
            np.add(vpns[cut], unit, out=tlb_vpn[cut])
        return pfn, slot, tlb_vpn, rank

    def _locate(
        self, pids: np.ndarray, vpns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, offset into the row's region, fault mask)`` per access."""
        key = pids.astype(np.int64)
        key -= self._pid_lo
        # A PID outside the indexed span would wrap into somebody
        # else's key once shifted, as would VPN bits above the tag's 48.
        # Unsigned, a negative distance is a huge one: one bound.
        stray = None
        if key.size and key.view(ADDR_DTYPE).max() > self._pid_span:
            stray = (key < 0) | (key > self._pid_span)
        if vpns.size and int(vpns.max()) >> VPN_BITS:
            high = (vpns >> _VPN_SHIFT) != 0
            stray = high if stray is None else stray | high
        key = key.view(ADDR_DTYPE)
        key <<= _VPN_SHIFT
        key |= vpns
        row = np.searchsorted(self.keys, key, side="right")
        row -= 1  # -1 (below the first key) reads the sentinel: also a fault
        key -= self.keys[row]  # the key array ends up as the offset
        bad = key >= self.npages[row]
        if stray is not None:
            bad |= stray
        return row, key, bad

    def process_ops(self, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pids, ops)``: the PIDs behind translated ``ranks``,
        ascending, and each one's access count."""
        ops = np.bincount(rank, minlength=len(self.tables))
        present = ops > 0
        return self.pids[present], ops[present]

    def lay_out(self) -> PTEColumns:
        """Every indexed table's PTE state as one pair of columns.

        Each table's flags and slot → PFN are copied in at its base and
        the table is pointed at its slice, so what the index's slots
        address and what the tables read and write are the same words.
        Run once per mapping change, like the index itself.
        """
        columns = PTEColumns(self.bases[-1])
        for pt, base in zip(self.tables, self.bases):
            pt._move_to(columns, base)
        return columns


class PageTable:
    """Leaf page-table state for one process.

    PTE flags for all of the process's pages are one contiguous range
    of ``uint64`` words indexed by *slot*; every VMA occupies a
    contiguous slot range, so bulk flag updates for a translated batch
    are a single fancy-indexed in-place operation.  The words live in a
    :class:`PTEColumns` from :attr:`base` on: the table's own, or its
    machine's.  The table holds the columns and the base, never a view,
    so :attr:`flags` is always the current slice and a pickled machine
    stores its columns once.
    """

    def __init__(self, pid: int):
        self.pid = int(pid)
        self.vmas: list[VMA] = []
        self._columns = PTEColumns()
        #: Where the table's slot 0 sits in its columns.
        self.base = 0
        self._n_slots = 0
        # Rebuilt on mmap (mmap is rare; lookups are hot).
        self._index = VMAIndex(())

    def _move_to(self, columns: PTEColumns, base: int) -> None:
        """Copy the table's PTE state into ``columns`` at ``base`` and
        read and write it there from now on."""
        old, lo, n = self._columns, self.base, self._n_slots
        columns.flags[base : base + n] = old.flags[lo : lo + n]
        columns.slot_pfn[base : base + n] = old.slot_pfn[lo : lo + n]
        self._columns, self.base = columns, base

    # ------------------------------------------------------------------ map

    def mmap(
        self,
        start_vpn: int,
        npages: int,
        allocator: FrameAllocator,
        name: str = "anon",
        page_order: int = 0,
    ) -> VMA:
        """Map ``npages`` pages at ``start_vpn``, eagerly backed by frames.

        ``page_order=9`` maps the region with 2 MiB huge PTEs (THP).
        Overlapping an existing VMA raises ``ValueError``, as does a
        region outside the 48-bit VPN space translation keys carry.
        """
        if npages <= 0:
            raise ValueError(f"npages must be positive, got {npages}")
        if page_order < 0:
            raise ValueError(f"page_order must be >= 0, got {page_order}")
        end = start_vpn + npages
        if start_vpn < 0 or end > 1 << VPN_BITS:
            raise ValueError(
                f"pid {self.pid}: [{start_vpn:#x}, {end:#x}) is outside the "
                f"{VPN_BITS}-bit VPN space"
            )
        for v in self.vmas:
            if start_vpn < v.end_vpn and v.start_vpn < end:
                raise ValueError(
                    f"pid {self.pid}: [{start_vpn:#x}, {end:#x}) overlaps "
                    f"VMA {v.name!r} [{v.start_vpn:#x}, {v.end_vpn:#x})"
                )
        pfn_base = allocator.alloc(npages)
        slot_base = self._n_slots
        vma = VMA(
            name=name,
            start_vpn=int(start_vpn),
            npages=int(npages),
            pfn_base=pfn_base,
            slot_base=slot_base,
            page_order=int(page_order),
        )
        # The table grows into columns of its own; a machine lays
        # everybody out again before it next reads them (the allocation
        # above is how it notices, see ``Machine.vma_index``).
        self._move_to(PTEColumns(slot_base + vma.n_units), 0)
        self._n_slots += vma.n_units
        self._columns.flags[slot_base:] = PTE_DEFAULT
        self._columns.slot_pfn[slot_base:] = ADDR_DTYPE(pfn_base) + (
            np.arange(vma.n_units, dtype=ADDR_DTYPE) << ADDR_DTYPE(page_order)
        )
        self.vmas.append(vma)
        self.vmas.sort(key=lambda v: v.start_vpn)
        self._index = VMAIndex((self,))
        # Only translated through; holding its table would close a cycle
        # and keep a dropped machine on the heap until a full collection.
        self._index.tables.clear()
        return vma

    # ------------------------------------------------------------ translate

    @property
    def n_pages(self) -> int:
        """Total PTEs (mapping units) — what an A-bit walk visits."""
        return self._n_slots

    @property
    def total_frames(self) -> int:
        """Total 4 KiB frames backing the process's mappings."""
        return sum(v.npages for v in self.vmas)

    @property
    def flags(self) -> np.ndarray:
        """The process's PTE-flag array, indexed by slot: a writable
        view of its slice of the columns, taken afresh on every read."""
        return self._columns.flags[self.base : self.base + self._n_slots]

    def translate(self, vpns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Translate an array of VPNs to ``(pfns, slots)``.

        Raises :class:`TranslationFault` listing the offending VPNs if
        any page is unmapped.
        """
        pfns, slots, _ = self.translate_ex(vpns)
        return pfns, slots

    def translate_ex(
        self, vpns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translate VPNs to ``(pfns, slots, tlb_vpns)``.

        ``tlb_vpns`` is the mapping-unit-aligned VPN each translation
        is tagged with in the TLB — the VPN itself for base pages (the
        input array, when no region of the table is huge), the 2 MiB-
        aligned head for huge-page units.
        """
        vpns = np.asarray(vpns, dtype=ADDR_DTYPE)
        pids = np.full(vpns.size, self.pid, dtype=np.int64)
        return self._index.translate(pids, vpns)[:3]

    def _check_slots(self, slots: np.ndarray) -> None:
        if slots.size and not (0 <= slots.min() and slots.max() < self.n_pages):
            bad = slots[(slots < 0) | (slots >= self.n_pages)]
            raise IndexError(
                f"pid {self.pid}: slot(s) {bad[:4].tolist()} outside the "
                f"table's {self.n_pages} PTE(s)"
            )

    def slot_to_vpn(self, slots: np.ndarray) -> np.ndarray:
        """Slot → VPN of the mapping unit's head."""
        slots = np.asarray(slots, dtype=np.int64)
        self._check_slots(slots)
        # Every slot below n_pages belongs to exactly one region.
        view = self._index.by_pfn
        at = np.searchsorted(view.slot_base, slots, side="right") - 1
        unit = slots - view.slot_base[at]
        return (view.start_vpn[at] + (unit << view.page_order[at])).astype(ADDR_DTYPE)

    def slot_to_pfn(self, slots: np.ndarray) -> np.ndarray:
        """Slot → PFN of the mapping unit's head frame."""
        slots = np.asarray(slots, dtype=np.int64)
        self._check_slots(slots)
        return self._columns.slot_pfn[slots + self.base]

    # ----------------------------------------------------------------- walk

    def walk(self):
        """Iterate VMAs as ``(vma, flags_view)`` — the ``mm_walk`` analogue.

        ``flags_view`` is a writable view of the VMA's PTE flags; the
        A-bit driver's ``gather_a_history`` callback test-and-clears
        accessed bits directly on it.
        """
        flags = self.flags
        for v in self.vmas:
            yield v, flags[v.slot_base : v.slot_base + v.n_units]

    def find_vma(self, vpn: int) -> VMA | None:
        """Return the VMA containing ``vpn``, or None."""
        for v in self.vmas:
            if vpn in v:
                return v
        return None
