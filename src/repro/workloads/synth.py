"""Synthetic access-pattern building blocks.

The Table III workloads are composed from a handful of primitives:
bounded Zipfian page popularity (key-value skew, graph-degree skew),
uniform random sparsity (GUPS, Monte Carlo lookups), sequential and
strided sweeps (scans, stencils), and read-modify-write expansion.
"""

from __future__ import annotations

import numpy as np

from ..memsim.address import ADDR_DTYPE, LINE_SHIFT, LINES_PER_PAGE, PAGE_SHIFT
from ..memsim.events import AccessBatch
from ..memsim.page_table import VMA

__all__ = [
    "BoundedZipf",
    "uniform_pages",
    "sequential_sweep",
    "windowed_sweep",
    "strided_sweep",
    "rmw_expand",
    "batch_on_vma",
]


class BoundedZipf:
    """Zipfian sampling over ranks ``0..n-1`` with exponent ``alpha``.

    ``P(rank=k) ∝ 1/(k+1)^alpha``.  Rank 0 is hottest.  A fixed random
    permutation (drawn once from ``perm_rng``) maps ranks to page
    indices so the hot set is scattered through the address space, as
    hash-distributed keys or degree-skewed graph nodes would be.
    """

    def __init__(
        self,
        n: int,
        alpha: float = 1.0,
        perm_rng: np.random.Generator | None = None,
    ):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = 1.0 / np.power(np.arange(1, self.n + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if perm_rng is None:
            self._perm = None
        else:
            self._perm = perm_rng.permutation(self.n)

    def sample_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` ranks (0 = hottest)."""
        return np.searchsorted(self._cdf, rng.random(size), side="right")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` page indices in ``[0, n)``."""
        ranks = self.sample_ranks(rng, size)
        if self._perm is None:
            return ranks
        return self._perm[ranks]

    def hot_fraction_pages(self, mass: float = 0.5) -> int:
        """How many hottest ranks carry ``mass`` of the probability."""
        return int(np.searchsorted(self._cdf, mass, side="left")) + 1


def uniform_pages(rng: np.random.Generator, n_pages: int, size: int) -> np.ndarray:
    """Uniform random page indices in ``[0, n_pages)`` (GUPS-style)."""
    return rng.integers(0, n_pages, size=size, dtype=np.int64)


def sequential_sweep(n_pages: int, size: int, start: int = 0) -> np.ndarray:
    """``size`` page indices sweeping ``[0, n_pages)`` circularly.

    Each page is visited in order, possibly multiple consecutive times
    when ``size > n_pages`` (dwell), or as a truncated prefix otherwise.
    """
    if n_pages < 1:
        raise ValueError(f"n_pages must be >= 1, got {n_pages}")
    if size <= n_pages:
        return (np.arange(size, dtype=np.int64) + start) % n_pages
    dwell = size // n_pages
    idx = np.repeat(np.arange(n_pages, dtype=np.int64), dwell)
    rem = size - idx.size
    if rem:
        idx = np.concatenate([idx, np.arange(rem, dtype=np.int64)])
    return (idx + start) % n_pages


def windowed_sweep(
    n_pages: int, size: int, dwell: int, start: int = 0
) -> np.ndarray:
    """Sequential sweep with ``dwell`` consecutive accesses per page.

    Models a scan that reads multiple cache lines from each page before
    advancing (the dominant pattern of streaming/stencil codes): a
    dwell of *d* means only 1-in-*d* accesses can TLB-miss.  The window
    covered is ``size // dwell`` pages starting at ``start`` (circular).
    """
    if dwell < 1:
        raise ValueError(f"dwell must be >= 1, got {dwell}")
    n_window = max(1, size // dwell)
    pages = (start + np.arange(n_window, dtype=np.int64)) % n_pages
    out = np.repeat(pages, dwell)
    if out.size < size:
        out = np.concatenate([out, np.full(size - out.size, pages[-1], dtype=np.int64)])
    return out[:size]


def strided_sweep(n_pages: int, size: int, stride: int, start: int = 0) -> np.ndarray:
    """Strided circular sweep (column-major stencil sweeps, SoA codes)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return (start + np.arange(size, dtype=np.int64) * stride) % n_pages


def rmw_expand(pages: np.ndarray, rng: np.random.Generator, store_fraction: float = 1.0):
    """Expand update targets into read-modify-write (load, store) pairs.

    Returns ``(pages2, is_store)`` where each input page appears twice
    consecutively: a load then (with probability ``store_fraction``) a
    store.
    """
    pages = np.asarray(pages, dtype=np.int64)
    pages2 = np.repeat(pages, 2)
    is_store = np.zeros(pages2.size, dtype=bool)
    writes = rng.random(pages.size) < store_fraction
    is_store[1::2] = writes
    return pages2, is_store


def batch_on_vma(
    vma: VMA,
    page_idx: np.ndarray,
    *,
    pid: int,
    cpu: int = 0,
    is_store=False,
    ip: int = 0,
    rng: np.random.Generator | None = None,
) -> AccessBatch:
    """Build an AccessBatch over a VMA from in-region page indices.

    ``page_idx`` values are offsets into the VMA (``0..npages-1``).
    In-page byte offsets are randomized (line-granular) when ``rng`` is
    given, else zero.
    """
    page_idx = np.asarray(page_idx, dtype=np.int64)
    # The address column is built once, in place; the constant columns
    # are filled by the batch constructor.  Unsigned, a negative index
    # is a huge one: a single bound covers both ends.
    vaddr = page_idx.astype(ADDR_DTYPE)
    if vaddr.size and vaddr.max() >= vma.npages:
        raise ValueError(
            f"page indices out of range for VMA {vma.name!r} "
            f"({vma.npages} pages)"
        )
    vaddr += ADDR_DTYPE(vma.start_vpn)
    vaddr <<= ADDR_DTYPE(PAGE_SHIFT)
    if rng is not None:
        offset = rng.integers(0, LINES_PER_PAGE, size=page_idx.size, dtype=np.int64)
        offset <<= LINE_SHIFT
        vaddr |= offset.view(ADDR_DTYPE)
    return AccessBatch(vaddr=vaddr, is_store=is_store, pid=pid, cpu=cpu, ip=ip)
