"""Address arithmetic for the simulated memory system.

The simulator models a conventional 64-bit machine with 4 KiB pages and
64-byte cache lines.  All bulk paths operate on ``numpy`` arrays of
``uint64`` addresses; the helpers below accept scalars too.

Terminology
-----------
vaddr / paddr
    Byte-granularity virtual / physical address.
vpn / pfn
    Virtual page number / physical frame number (``addr >> PAGE_SHIFT``).
line
    Cache-line number (``paddr >> LINE_SHIFT``).
"""

from __future__ import annotations

import numpy as np

#: log2 of the page size (4 KiB pages, as on x86-64 with base pages).
PAGE_SHIFT = 12
#: Page size in bytes.
PAGE_SIZE = 1 << PAGE_SHIFT
#: Mask selecting the in-page offset bits of an address.
PAGE_OFFSET_MASK = PAGE_SIZE - 1

#: log2 of the cache-line size (64-byte lines).
LINE_SHIFT = 6
#: Cache-line size in bytes.
LINE_SIZE = 1 << LINE_SHIFT
#: Mask selecting the in-line offset bits of an address.
LINE_OFFSET_MASK = LINE_SIZE - 1

#: Number of cache lines per page.
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE

#: dtype used for addresses, page numbers and tags throughout the simulator.
ADDR_DTYPE = np.uint64


def page_of(addr):
    """Return the page number(s) of byte address(es) ``addr``.

    Accepts scalars or arrays; the result has the same shape.
    """
    return np.asarray(addr, dtype=ADDR_DTYPE) >> ADDR_DTYPE(PAGE_SHIFT)


def line_of(addr):
    """Return the cache-line number(s) of byte address(es) ``addr``."""
    return np.asarray(addr, dtype=ADDR_DTYPE) >> ADDR_DTYPE(LINE_SHIFT)


def compose(vpn, offset):
    """Build byte address(es) from page number(s) and in-page offset(s)."""
    vpn = np.asarray(vpn, dtype=ADDR_DTYPE)
    offset = np.asarray(offset, dtype=ADDR_DTYPE)
    return (vpn << ADDR_DTYPE(PAGE_SHIFT)) | (offset & ADDR_DTYPE(PAGE_OFFSET_MASK))


def is_pow2(n: int) -> bool:
    """True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def pow2_floor(entries: int) -> int:
    """``entries`` rounded down to a power of two, so capacities can be
    asked for loosely (the Ryzen 3600X's 64 + 2048-entry L1/L2 dTLBs)."""
    if entries < 1:
        raise ValueError(f"{entries} entries: need at least one")
    return 1 << (int(entries).bit_length() - 1)
