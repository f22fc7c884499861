"""Event records and structure-of-arrays sample buffers.

Memory-access streams and profiler sample streams are represented as
numpy structure-of-arrays (SoA) containers rather than lists of objects:
the simulator's hot paths are entirely vectorized over these columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .address import ADDR_DTYPE, compose

__all__ = ["DataSource", "AccessBatch", "SampleBatch", "concat_samples"]


class DataSource(IntEnum):
    """Where a load/store was serviced from (IBS northbridge status)."""

    L1 = 1
    L2 = 2
    LLC = 3
    MEMORY = 4  # missed every cache level; reached a memory tier


@dataclass
class AccessBatch:
    """A batch of memory accesses in program order (SoA layout).

    Attributes
    ----------
    vaddr:
        Virtual byte addresses (``uint64``).
    is_store:
        True for stores, False for loads.
    pid:
        Owning process id per access.
    cpu:
        Logical CPU executing the access.
    ip:
        Instruction pointer per access (synthetic; workloads may tag
        phases with distinct IPs so trace samples carry provenance).
    """

    vaddr: np.ndarray
    is_store: np.ndarray
    pid: np.ndarray
    cpu: np.ndarray
    ip: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.vaddr = np.ascontiguousarray(self.vaddr, dtype=ADDR_DTYPE)
        n = self.vaddr.size
        self.is_store = _col(self.is_store, n, bool, "is_store")
        self.pid = _col(self.pid, n, np.int32, "pid")
        self.cpu = _col(self.cpu, n, np.int16, "cpu")
        if self.ip is None:
            self.ip = np.zeros(n, dtype=ADDR_DTYPE)
        else:
            self.ip = _col(self.ip, n, ADDR_DTYPE, "ip")

    def __len__(self) -> int:
        return int(self.vaddr.size)

    @property
    def n(self) -> int:
        """Number of accesses in the batch."""
        return int(self.vaddr.size)

    @classmethod
    def of_columns(cls, vaddr, is_store, pid, cpu, ip) -> "AccessBatch":
        """A batch over columns cut or joined from validated batches.

        They already are what ``__post_init__`` would make of them
        (equal length, the column dtypes, contiguous or a slice of
        such), so it is not run again; anything else goes through the
        constructor.
        """
        batch = object.__new__(cls)
        batch.vaddr = vaddr
        batch.is_store = is_store
        batch.pid = pid
        batch.cpu = cpu
        batch.ip = ip
        return batch

    def take(self, idx) -> "AccessBatch":
        """Return a sub-batch at positions ``idx`` (order preserved).

        A ``slice`` index returns zero-copy column views; epoch slicing
        leans on this.
        """
        return AccessBatch.of_columns(
            self.vaddr[idx], self.is_store[idx], self.pid[idx], self.cpu[idx], self.ip[idx]
        )

    @staticmethod
    def concat(batches: list["AccessBatch"]) -> "AccessBatch":
        """Concatenate batches in order into one batch."""
        if not batches:
            return AccessBatch.empty()
        return AccessBatch.of_columns(
            np.concatenate([b.vaddr for b in batches]),
            np.concatenate([b.is_store for b in batches]),
            np.concatenate([b.pid for b in batches]),
            np.concatenate([b.cpu for b in batches]),
            np.concatenate([b.ip for b in batches]),
        )

    @staticmethod
    def empty() -> "AccessBatch":
        """An empty batch."""
        z = np.zeros(0, dtype=ADDR_DTYPE)
        return AccessBatch(vaddr=z, is_store=z.astype(bool), pid=z, cpu=z, ip=z)

    @staticmethod
    def from_pages(vpns, is_store=False, pid=0, cpu=0, ip=0, offset=0) -> "AccessBatch":
        """Build a batch that touches the given virtual pages.

        Convenience constructor used heavily by workloads and tests:
        scalar ``is_store``/``pid``/``cpu``/``ip``/``offset`` broadcast
        over every access.
        """
        return AccessBatch(
            vaddr=compose(vpns, offset), is_store=is_store, pid=pid, cpu=cpu, ip=ip
        )


@dataclass
class SampleBatch:
    """Trace samples emitted by IBS/PEBS (SoA layout).

    Each record mirrors the fields the paper's IBS/PEBS driver collects:
    timestamp (op index), CPU id, PID, instruction pointer, virtual and
    physical data address, access type, and cache/TLB status
    (§III-B.1).
    """

    op_idx: np.ndarray       # global op index at sample time (uint64)
    cpu: np.ndarray          # int16
    pid: np.ndarray          # int32
    ip: np.ndarray           # uint64
    vaddr: np.ndarray        # uint64
    paddr: np.ndarray        # uint64
    is_store: np.ndarray     # bool
    tlb_hit: np.ndarray      # bool
    data_source: np.ndarray  # uint8, DataSource values

    def __len__(self) -> int:
        return int(self.op_idx.size)

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self.op_idx.size)

    @property
    def pfn(self) -> np.ndarray:
        """Physical frame numbers of the sampled data addresses."""
        from .address import page_of

        return page_of(self.paddr)

    def memory_samples(self) -> "SampleBatch":
        """Samples whose data source is a memory tier (LLC misses)."""
        return self.take(self.data_source == np.uint8(DataSource.MEMORY))

    def take(self, idx) -> "SampleBatch":
        """Return a sub-buffer at positions ``idx`` (order preserved)."""
        return SampleBatch(
            op_idx=self.op_idx[idx],
            cpu=self.cpu[idx],
            pid=self.pid[idx],
            ip=self.ip[idx],
            vaddr=self.vaddr[idx],
            paddr=self.paddr[idx],
            is_store=self.is_store[idx],
            tlb_hit=self.tlb_hit[idx],
            data_source=self.data_source[idx],
        )

    @staticmethod
    def empty() -> "SampleBatch":
        """An empty sample buffer."""
        z64 = np.zeros(0, dtype=ADDR_DTYPE)
        return SampleBatch(
            op_idx=z64,
            cpu=np.zeros(0, dtype=np.int16),
            pid=np.zeros(0, dtype=np.int32),
            ip=z64.copy(),
            vaddr=z64.copy(),
            paddr=z64.copy(),
            is_store=np.zeros(0, dtype=bool),
            tlb_hit=np.zeros(0, dtype=bool),
            data_source=np.zeros(0, dtype=np.uint8),
        )


def concat_samples(buffers: list[SampleBatch]) -> SampleBatch:
    """Concatenate sample buffers in order."""
    buffers = [b for b in buffers if b.n]
    if not buffers:
        return SampleBatch.empty()
    return SampleBatch(
        op_idx=np.concatenate([b.op_idx for b in buffers]),
        cpu=np.concatenate([b.cpu for b in buffers]),
        pid=np.concatenate([b.pid for b in buffers]),
        ip=np.concatenate([b.ip for b in buffers]),
        vaddr=np.concatenate([b.vaddr for b in buffers]),
        paddr=np.concatenate([b.paddr for b in buffers]),
        is_store=np.concatenate([b.is_store for b in buffers]),
        tlb_hit=np.concatenate([b.tlb_hit for b in buffers]),
        data_source=np.concatenate([b.data_source for b in buffers]),
    )


def _col(value, n: int, dtype, name: str) -> np.ndarray:
    """Coerce a column to length ``n``, broadcasting scalars."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        out = np.empty(n, dtype=arr.dtype)
        out.fill(arr)
        return out
    if arr.size != n:
        raise ValueError(f"column {name!r} has length {arr.size}, expected {n}")
    return np.ascontiguousarray(arr)
