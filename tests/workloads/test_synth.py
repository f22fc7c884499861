"""Unit and property tests for synthetic pattern primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AccessBatch, Machine, MachineConfig
from repro.memsim.address import LINE_SHIFT, LINES_PER_PAGE, PAGE_SHIFT
from repro.workloads.base import interleave
from repro.workloads.synth import (
    BoundedZipf,
    StreamBuilder,
    interleave_pieces,
    rmw_expand,
    sequential_sweep,
    strided_sweep,
    uniform_pages,
    windowed_sweep,
)


class TestBoundedZipf:
    def test_samples_in_range(self):
        z = BoundedZipf(100, alpha=1.0)
        s = z.sample(np.random.default_rng(0), 10_000)
        assert s.min() >= 0 and s.max() < 100

    def test_rank_zero_hottest(self):
        z = BoundedZipf(100, alpha=1.2)
        ranks = z.sample_ranks(np.random.default_rng(0), 50_000)
        counts = np.bincount(ranks, minlength=100)
        assert counts[0] == counts.max()
        # Top rank dominates the tail decisively.
        assert counts[0] > 5 * counts[50]

    def test_alpha_zero_uniform(self):
        z = BoundedZipf(10, alpha=0.0)
        ranks = z.sample_ranks(np.random.default_rng(0), 100_000)
        counts = np.bincount(ranks, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_permutation_scatters_hot_page(self):
        rng = np.random.default_rng(5)
        z = BoundedZipf(1000, alpha=1.5, perm_rng=rng)
        s = z.sample(np.random.default_rng(0), 10_000)
        hot = np.bincount(s, minlength=1000).argmax()
        assert hot != 0  # overwhelmingly likely after permutation

    def test_bad_params(self):
        with pytest.raises(ValueError):
            BoundedZipf(0)
        with pytest.raises(ValueError):
            BoundedZipf(10, alpha=-1)

    @given(
        n=st.integers(1, 500),
        alpha=st.floats(0.0, 3.0, allow_nan=False),
        size=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_range_and_shape(self, n, alpha, size):
        z = BoundedZipf(n, alpha=alpha)
        s = z.sample(np.random.default_rng(1), size)
        assert s.shape == (size,)
        if size:
            assert s.min() >= 0 and s.max() < n


class TestSweeps:
    def test_sequential_short(self):
        np.testing.assert_array_equal(sequential_sweep(10, 4), [0, 1, 2, 3])

    def test_sequential_start_wraps(self):
        np.testing.assert_array_equal(sequential_sweep(4, 4, start=2), [2, 3, 0, 1])

    def test_sequential_with_dwell(self):
        out = sequential_sweep(3, 7)
        assert out.size == 7
        assert set(out) <= {0, 1, 2}
        # Non-decreasing page order within dwell region.
        assert (np.diff(out[:6]) >= 0).all()

    def test_windowed_dwell_exact(self):
        out = windowed_sweep(100, 8, dwell=4)
        np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_windowed_start_and_wrap(self):
        out = windowed_sweep(4, 8, dwell=2, start=3)
        np.testing.assert_array_equal(out, [3, 3, 0, 0, 1, 1, 2, 2])

    def test_windowed_pads_remainder(self):
        out = windowed_sweep(100, 7, dwell=3)
        assert out.size == 7
        np.testing.assert_array_equal(out, [0, 0, 0, 1, 1, 1, 1])

    def test_windowed_tlb_miss_bound(self):
        out = windowed_sweep(1000, 800, dwell=8)
        transitions = int(np.count_nonzero(np.diff(out))) + 1
        assert transitions == 100  # 1-in-8 accesses changes page

    def test_strided(self):
        np.testing.assert_array_equal(strided_sweep(10, 4, 3), [0, 3, 6, 9])
        np.testing.assert_array_equal(strided_sweep(10, 4, 3, start=5), [5, 8, 1, 4])

    def test_bad_params(self):
        with pytest.raises(ValueError):
            sequential_sweep(0, 5)
        with pytest.raises(ValueError):
            strided_sweep(10, 5, 0)
        with pytest.raises(ValueError):
            windowed_sweep(10, 5, 0)


class TestUniformPages:
    def test_range(self):
        s = uniform_pages(np.random.default_rng(0), 50, 1000)
        assert s.min() >= 0 and s.max() < 50

    def test_covers_space(self):
        s = uniform_pages(np.random.default_rng(0), 20, 2000)
        assert np.unique(s).size == 20


class TestRmwExpand:
    def test_load_store_pairs(self):
        pages, is_store = rmw_expand(np.array([5, 9]), np.random.default_rng(0))
        np.testing.assert_array_equal(pages, [5, 5, 9, 9])
        np.testing.assert_array_equal(is_store, [False, True, False, True])

    def test_store_fraction_zero(self):
        _, is_store = rmw_expand(np.arange(100), np.random.default_rng(0), 0.0)
        assert not is_store.any()

    def test_store_fraction_partial(self):
        _, is_store = rmw_expand(np.arange(10_000), np.random.default_rng(0), 0.5)
        assert is_store[::2].sum() == 0
        assert 0.4 < is_store[1::2].mean() < 0.6


class TestJoinedDraws:
    """A run of segments shares one draw because numpy's draws join:
    one call over the run equals one call per segment."""

    @staticmethod
    def _split_vs_joined(draw, sizes, seed):
        split, joined = np.random.default_rng(seed), np.random.default_rng(seed)
        # An odd-sized bounded draw first: PCG64 is left holding half of
        # a 64-bit word, which the next 32-bit draw consumes.
        split.integers(0, LINES_PER_PAGE, size=7, dtype=np.int64)
        joined.integers(0, LINES_PER_PAGE, size=7, dtype=np.int64)
        parts = np.concatenate([draw(split, k) for k in sizes])
        whole = draw(joined, sum(sizes))
        np.testing.assert_array_equal(parts, whole)
        assert split.bit_generator.state == joined.bit_generator.state

    @given(
        sizes=st.lists(st.integers(0, 40).map(lambda k: 2 * k + 1), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_offsets(self, sizes, seed):
        def draw(rng, k):
            return rng.integers(0, LINES_PER_PAGE, size=k, dtype=np.int64)

        self._split_vs_joined(draw, sizes, seed)

    @given(
        sizes=st.lists(st.integers(0, 80), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform(self, sizes, seed):
        self._split_vs_joined(lambda rng, k: rng.uniform(0.5, 1.5, k), sizes, seed)


class TestStreamBuilder:
    def _vma(self):
        m = Machine(MachineConfig(total_frames=1 << 12))
        return m.mmap(1, 16)

    def _build(self, vma, pages, **kw):
        out = StreamBuilder(np.random.default_rng(0))
        out.add(vma, pages, pid=kw.pop("pid", 1), cpu=kw.pop("cpu", 0), **kw)
        return out.build()

    def test_builds_in_region_addresses(self):
        vma = self._vma()
        b = self._build(vma, np.array([0, 15]))
        np.testing.assert_array_equal(b.vaddr >> 12, [vma.start_vpn, vma.end_vpn - 1])

    def test_out_of_range_rejected(self):
        """``build`` checks every segment at once: an index past the VMA,
        or a negative one, names the VMA and its page count, and the
        failing build draws nothing of its own."""
        vma = self._vma()
        for bad in (16, -1):
            rng = np.random.default_rng(0)
            out = StreamBuilder(rng)
            out.add(vma, np.arange(16), pid=1, cpu=0)
            out.rng.random(2)  # the first segment's offsets are drawn here
            out.add(vma, np.array([3, bad, 4]), pid=1, cpu=0)
            out.end_stream()
            out.add(vma, np.arange(8), pid=2, cpu=0)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match=r"VMA 'anon' \(16 pages\)"):
                out.build()
            assert rng.bit_generator.state == state

    def test_line_offsets_random_but_aligned(self):
        vma = self._vma()
        b = self._build(vma, np.zeros(256, dtype=np.int64))
        offs = b.vaddr & np.uint64(0xFFF)
        assert (offs % 64 == 0).all()
        assert np.unique(offs).size > 10  # actually randomized

    def test_ip_tag(self):
        vma = self._vma()
        b = self._build(vma, np.array([1]), ip=0xDEAD)
        assert b.ip[0] == 0xDEAD

    def test_columns_and_dtypes(self):
        vma = self._vma()
        store = np.array([True, False, True])
        b = self._build(vma, np.array([1, 2, 3]), pid=7, cpu=3, is_store=store, ip=5)
        np.testing.assert_array_equal(b.pid, [7, 7, 7])
        np.testing.assert_array_equal(b.cpu, [3, 3, 3])
        np.testing.assert_array_equal(b.ip, [5, 5, 5])
        np.testing.assert_array_equal(b.is_store, store)
        dtypes = [c.dtype for c in (b.vaddr, b.is_store, b.pid, b.cpu, b.ip)]
        assert dtypes == [np.uint64, np.bool_, np.int32, np.int16, np.uint64]

    def test_store_column_length_checked(self):
        rng = np.random.default_rng(0)
        out = StreamBuilder(rng)
        out.add(self._vma(), np.array([1, 2]), pid=1, cpu=0, is_store=[True])
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="is_store"):
            out.build()
        assert rng.bit_generator.state == state

    def test_empty(self):
        out = StreamBuilder(np.random.default_rng(0))
        assert out.build().n == 0
        out.add(self._vma(), np.zeros(0, dtype=np.int64), pid=1, cpu=0)
        assert out.build().n == 0

    def test_rng_settles_pending_offsets_first(self):
        """A segment followed by a draw: its offsets come out of the
        generator before the draw, as one call per segment made them."""
        vma = self._vma()
        pages = np.arange(16)
        out = StreamBuilder(np.random.default_rng(3))
        out.add(vma, pages, pid=1, cpu=0)
        drawn = out.rng.random(5)
        out.add(vma, pages[::-1], pid=1, cpu=0)
        got = out.build()

        rng = np.random.default_rng(3)
        first = rng.integers(0, LINES_PER_PAGE, size=16, dtype=np.int64)
        np.testing.assert_array_equal(drawn, rng.random(5))
        second = rng.integers(0, LINES_PER_PAGE, size=16, dtype=np.int64)
        offsets = np.concatenate([first, second]) << 6
        vpn = vma.start_vpn + np.concatenate([pages, pages[::-1]])
        np.testing.assert_array_equal(got.vaddr, (vpn << 12) | offsets)

    def test_add_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = StreamBuilder(rng)
        out.add(self._vma(), np.arange(16), pid=1, cpu=0)
        assert rng.bit_generator.state == state

    def test_streams_interleave_in_order(self):
        vma = self._vma()
        out = StreamBuilder(np.random.default_rng(0))
        for pid in (1, 2, 3):
            out.add(vma, np.repeat(np.arange(16), 50), pid=pid, cpu=0)
            out.end_stream()
        b = out.build()
        assert set(np.unique(b.pid[:800])) == {1, 2, 3}
        for pid in (1, 2, 3):
            np.testing.assert_array_equal(
                b.vaddr[b.pid == pid] >> 12, vma.start_vpn + np.repeat(np.arange(16), 50)
            )

    def test_at_places_a_segment_ahead(self):
        """``at`` moves a segment in its stream, not in the draw order."""
        vma = self._vma()
        out = StreamBuilder(np.random.default_rng(0))
        out.add(vma, np.full(300, 1), pid=1, cpu=0, ip=1)
        out.add(vma, np.full(300, 2), pid=1, cpu=0, ip=2, at=0)
        b = out.build()
        np.testing.assert_array_equal(b.ip, [2] * 300 + [1] * 300)
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, LINES_PER_PAGE, size=600, dtype=np.int64) << 6
        np.testing.assert_array_equal(b.vaddr & np.uint64(0xFFF), np.r_[offsets[300:], offsets[:300]])


class TestInterleavePieces:
    def test_fewer_than_two_streams_draw_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        first, order = interleave_pieces([0, 700, 0], rng)
        assert order is None and rng.bit_generator.state == state
        np.testing.assert_array_equal(first, [0])

    @given(
        lengths=st.lists(st.integers(0, 1500), min_size=2, max_size=8),
        chunk=st.sampled_from([1, 7, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_draw_and_cumsum_per_stream(self, lengths, chunk, seed):
        """The padded grid gives each stream's own cumulative sum, bit
        for bit, and the pieces tile the streams."""
        first, order = interleave_pieces(lengths, np.random.default_rng(seed), chunk)
        rng = np.random.default_rng(seed)
        live = [n for n in lengths if n]
        if len(live) < 2:
            assert order is None
            return
        positions = np.concatenate(
            [np.cumsum(rng.uniform(0.5, 1.5, -(-n // chunk))) for n in live]
        )
        np.testing.assert_array_equal(order, np.argsort(positions, kind="stable"))
        starts = np.cumsum(lengths) - lengths
        expect = [s + lo for s, n in zip(starts, lengths) for lo in range(0, n, chunk)]
        assert first.tolist() == expect


# The per-segment generator the builder replaced, kept as the reference:
# one batch per segment with its offsets drawn on the spot, a stream the
# concatenation of its segments' batches, and an interleave that draws
# per stream and concatenates slice by slice.


def reference_segment(vma, pages, rng, *, pid, cpu, is_store=False, ip=0):
    pages = np.asarray(pages, dtype=np.int64)
    offsets = rng.integers(0, LINES_PER_PAGE, size=pages.size, dtype=np.int64)
    vaddr = ((pages + vma.start_vpn) << PAGE_SHIFT) | (offsets << LINE_SHIFT)
    return AccessBatch(vaddr=vaddr, is_store=is_store, pid=pid, cpu=cpu, ip=ip)


def reference_interleave(batches, rng, chunk=256):
    batches = [b for b in batches if b.n]
    if not batches:
        return AccessBatch.empty()
    if len(batches) == 1:
        return batches[0]
    starts = [np.arange(0, b.n, chunk) for b in batches]
    positions = np.concatenate(
        [np.cumsum(rng.uniform(0.5, 1.5, s.size)) for s in starts]
    )
    stream = np.repeat(np.arange(len(batches)), [s.size for s in starts])
    order = np.argsort(positions, kind="stable")
    return AccessBatch.concat(
        [
            batches[b].take(slice(lo, lo + chunk))
            for b, lo in zip(stream[order].tolist(), np.concatenate(starts)[order].tolist())
        ]
    )


def _columns(batch):
    return [(c.dtype.str, c.tobytes()) for c in (batch.vaddr, batch.is_store, batch.pid, batch.cpu, batch.ip)]


_SEGMENT = st.fixed_dictionaries(
    {
        "size": st.sampled_from([0, 1, 5, 255, 256, 257, 700]),
        "store": st.sampled_from(["no", "yes", "column"]),
        "draw_first": st.booleans(),
        "ahead": st.booleans(),
    }
)


class TestBuilderMatchesPerSegmentBatches:
    @given(
        plan=st.lists(st.lists(_SEGMENT, max_size=4), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_and_generator_state(self, plan, seed):
        m = Machine(MachineConfig(total_frames=1 << 14))
        vmas = [m.mmap(1 + i % 3, 64) for i in range(3)]
        builder_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out, streams = StreamBuilder(builder_rng), []
        for p, segments in enumerate(plan):
            parts = []
            for k, spec in enumerate(segments):
                if spec["draw_first"]:
                    out.rng.random(3)
                    ref_rng.random(3)
                vma = vmas[(p + k) % 3]
                pages = np.arange(spec["size"]) % vma.npages
                store = {
                    "no": False,
                    "yes": True,
                    "column": pages % 3 == 0,
                }[spec["store"]]
                kw = dict(pid=p, cpu=k, is_store=store, ip=k)
                ahead = spec["ahead"] and parts
                out.add(vma, pages, at=0 if ahead else None, **kw)
                part = reference_segment(vma, pages, ref_rng, **kw)
                parts.insert(0 if ahead else len(parts), part)
            out.end_stream()
            streams.append(AccessBatch.concat(parts))
        got = out.build()
        want = reference_interleave(streams, ref_rng)
        assert _columns(got) == _columns(want)
        assert builder_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        lengths=st.lists(st.integers(0, 900), max_size=6),
        chunk=st.sampled_from([1, 64, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleave_matches_reference(self, lengths, chunk, seed):
        batches = [
            AccessBatch.from_pages(np.arange(n, dtype=np.uint64) + 1000 * i, pid=i, ip=i)
            for i, n in enumerate(lengths)
        ]
        got = interleave(batches, np.random.default_rng(seed), chunk)
        want = reference_interleave(batches, np.random.default_rng(seed), chunk)
        assert _columns(got) == _columns(want)
