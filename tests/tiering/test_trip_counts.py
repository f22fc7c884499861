"""Trip-count guards: an epoch's Python trips follow its work, not its
process count.

One 15-process, 4-slice ``web-serving`` epoch (the ``sim_multiproc``
shape of the e2e benchmark) is run with counters on the calls that used
to be made once per process: ``PageTable.translate_ex`` from
``Machine.run_batch``, ``PageStatsStore.record_abit`` from
``ABitDriver.scan``, and the per-epoch VMA table of
``PageMover._shootdown_moved`` (each fails before the machine-wide VMA
index); the walker's ``fill_walks`` / ``dirty_updates`` from
``run_batch``, and ``PageTable.flags`` / ``slot_to_pfn`` from the scan
(each fails with per-process PTE flags, before ``Machine.pte``); and
the generator's RNG calls (one line-offset draw per run of segments and
one interleave draw, not one of each per process, before the stream
builder).  And the epoch is one machine pass: one ``run_batch``, one TLB
lookup and one call per cache level, with only the walks cut per slice
(each fails with a machine pass per slice).  And the exact
set-associative engine decides a ``gups`` epoch in vector passes, with
no row replayed one touch at a time (fails with one vector round per
touch of the busiest set, whose stragglers went to the scalar tail).

And a service-sized epoch (the e2e ``svc_*`` session: ``gups``, 256
pages, 1 000 accesses) makes a bounded number of Python-level calls,
and few more per process: cProfile's ``total_calls``, which does not
vary with the box.  The counts include numpy's own Python wrappers
(``np.prod`` inside ``Generator.integers``, ``_methods._amax`` behind
``ndarray.max``), so a numpy upgrade that moves them re-pins both
bounds in the change that upgrades it.  Per-process bookkeeping in the
generator or the A-bit scan's window loop fails the slope; a new
wrapper call on the epoch path fails the total.
"""

import cProfile
import pstats
from collections import Counter

import pytest

from repro.core import TMPConfig
from repro.memsim import MachineConfig
from repro.memsim.page_table import PageTable
from repro.memsim.vecsim import VectorSetAssoc
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload


@pytest.fixture
def sim():
    sim = TieredSimulator(
        make_workload("web-serving", accesses_per_epoch=20_000),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(),
        # Every registered PID is walked: the scan's trip count is 15.
        tmp_config=TMPConfig(process_filter=False),
        seed=0,
        epoch_slices=4,
    )
    sim.start(init=True)
    sim.step(1)
    assert sim.workload.n_processes == 15
    return sim


def count_calls(monkeypatch, owner, attr):
    calls = []
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_run_batch_never_translates_per_process(sim, monkeypatch):
    translations = count_calls(monkeypatch, PageTable, "translate_ex")
    batches = count_calls(monkeypatch, sim.machine, "run_batch")
    sim.step(1)
    assert len(batches) == 1
    assert translations == []


def test_one_machine_pass_per_epoch(sim, monkeypatch):
    """Four slices, one pass: the TLB and each cache level are called
    once per epoch (a scan without shootdown changes nothing they
    compute), not once per slice."""
    lookups = count_calls(monkeypatch, sim.machine.tlb, "access")
    levels = [
        count_calls(monkeypatch, level, "access") for level in sim.machine.caches.levels
    ]
    ticks = count_calls(monkeypatch, sim.profiler, "tick")
    sim.step(1)
    assert len(ticks) == 3
    assert len(lookups) == 1
    assert 1 <= sum(map(len, levels)) <= 3


def test_one_walk_and_one_dirty_update_per_batch(sim, monkeypatch):
    """One walk and one dirty-bit update per slice of the one batch,
    never per process."""
    walks = count_calls(monkeypatch, sim.machine.ptw, "fill_walks")
    dirties = count_calls(monkeypatch, sim.machine.ptw, "dirty_updates")
    batches = count_calls(monkeypatch, sim.machine, "run_batch")
    walks_before = sim.machine.ptw.stats.walks
    sim.step(1)
    assert len(batches) == 1
    assert len(walks) == len(dirties) == sim.profiled.epoch_slices
    # ... and the batches did walk and dirty pages of many processes.
    assert sim.machine.ptw.stats.walks - walks_before > 15
    assert len(sim.machine.vma_index.tables) == 15


def test_scan_reads_the_column_not_the_tables(sim, monkeypatch):
    scans, in_scan = [], []
    scan = sim.profiler.abit.scan

    def watched(pids):
        scans.append(len(pids))
        in_scan.append(True)
        try:
            return scan(pids)
        finally:
            in_scan.pop()

    monkeypatch.setattr(sim.profiler.abit, "scan", watched)
    lookups = []
    flags = PageTable.flags.fget
    slot_to_pfn = PageTable.slot_to_pfn

    def flags_read(pt):
        if in_scan:
            lookups.append("flags")
        return flags(pt)

    def pfn_lookup(pt, slots):
        if in_scan:
            lookups.append("slot_to_pfn")
        return slot_to_pfn(pt, slots)

    monkeypatch.setattr(PageTable, "flags", property(flags_read))
    monkeypatch.setattr(PageTable, "slot_to_pfn", pfn_lookup)
    found_before = sim.profiler.abit.stats.bits_found_set
    assert not sim.profiler.config.abit_shootdown
    sim.step(1)
    assert scans == [15] * 4
    assert sim.profiler.abit.stats.bits_found_set - found_before > 15
    assert lookups == []


def test_one_abit_credit_per_scan(sim, monkeypatch):
    scans = count_calls(monkeypatch, sim.profiler.abit, "scan")
    credits = count_calls(monkeypatch, sim.profiler.store, "record_abit")
    found_before = sim.profiler.abit.stats.bits_found_set
    sim.step(1)
    assert len(scans) == 4  # three ticks and the boundary
    assert 1 <= len(credits) <= len(scans)
    # ... and the pass did walk every process, finding pages in several.
    assert sim.profiler.abit.stats.processes_scanned >= 15 * 4
    assert sim.profiler.abit.stats.bits_found_set - found_before > 15


def test_shootdown_reads_the_machines_index(sim, monkeypatch):
    seen = []
    inner = sim.mover._shootdown_moved

    def watched(pfns):
        seen.append(sim.machine.vma_index)
        return inner(pfns)

    monkeypatch.setattr(sim.mover, "_shootdown_moved", watched)
    lookups = count_calls(monkeypatch, sim.machine.tlb, "shootdown_pages")
    sim.step(2)
    assert len(seen) == len(lookups) == 2  # pages did move, both epochs
    assert seen[0] is seen[1]  # no mmap in between: the same object
    assert seen[0].by_pfn is sim.machine.vma_index.by_pfn
    # A mapping retires it.
    sim.machine.mmap(sim.workload.pids[0], 4)
    assert sim.machine.vma_index is not seen[0]


def test_exact_engine_replays_no_row_of_a_gups_epoch(monkeypatch):
    sim = TieredSimulator(
        make_workload("gups"),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(exact_assoc=True, tlb_ways=4, cache_ways=4),
        seed=0,
    )
    sim.start(init=True)
    sim.step(1)
    lookups = count_calls(monkeypatch, VectorSetAssoc, "access")
    replays = count_calls(monkeypatch, VectorSetAssoc, "_replay_segments")
    sim.step(1)
    assert len(lookups) == 4  # the TLB and three cache levels, exact
    assert replays == []


class CountingGenerator:
    """A ``numpy.random.Generator`` that counts its method calls."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


def test_one_epoch_draws_per_role_not_per_process(sim, monkeypatch):
    rng = CountingGenerator(sim.profiled.rng)
    monkeypatch.setattr(sim.profiled, "rng", rng)
    batches = []
    epoch = sim.workload.epoch

    def kept(epoch_idx, rng):
        batches.append(epoch(epoch_idx, rng))
        return batches[-1]

    monkeypatch.setattr(sim.workload, "epoch", kept)
    sim.step(1)
    # Three servers' Zipf draws, each of which first draws the line
    # offsets pending before it; the last offsets (the third server's
    # and all twelve clients') in one call; one interleave draw.
    assert rng.calls["random"] <= 3
    assert 1 <= rng.calls["integers"] <= 4
    assert rng.calls["uniform"] == 1
    assert set(rng.calls) <= {"random", "integers", "uniform"}
    # ... and the epoch did interleave all fifteen processes.
    assert len(batches) == 1
    assert len(set(batches[0].pid.tolist())) == 15


def svc_session(n_processes: int) -> TieredSimulator:
    """The simulator an e2e ``svc_*`` session steps, with
    ``n_processes`` PIDs instead of gups' default eight."""
    sim = TieredSimulator(
        make_workload(
            "gups", n_processes=n_processes, footprint_pages=256, accesses_per_epoch=1000
        ),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=0,
    )
    sim.start(init=True)
    sim.step(2)  # past the first epochs' one-off work
    return sim


def calls_per_epoch(n_processes: int, epochs: int = 20) -> float:
    profile = cProfile.Profile()
    profile.runcall(svc_session(n_processes).step, epochs)
    return pstats.Stats(profile).total_calls / epochs


def test_a_service_sized_epoch_costs_few_calls_per_process():
    one, eight, sixteen = (calls_per_epoch(n) for n in (1, 8, 16))
    # 1 322 and 67 per process when the generator drew, checked and
    # recorded each process's segments one at a time; 816 and 30.7 with
    # NumPy 2.4.  The bounds leave a few calls for another NumPy's
    # wrappers.
    assert eight <= 840
    assert (sixteen - one) / 15 <= 32
