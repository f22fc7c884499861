"""Fixed-trace oracle: hand-written address streams, golden outcomes.

Every registry workload is a seeded generator, so a behaviour change in
``memsim`` shows up only as a whole-run digest flipping.  The traces
under ``traces/`` are small enough to reason about by hand and fixed
enough to diff: each is replayed through ``ProfiledRun`` by a test-only
workload and everything observable — per-level hit/miss counts, the
A-bit and D-bit sets, each IBS and PEBS record — is rendered as text and
compared with a golden file, pinned per engine geometry.  For one
geometry the vectorized engine and the scalar reference must render the
same file.  ``traces/README.md`` has the format and the machine.

Regenerate (after an *intended* change) with
``PYTHONPATH=src python -m tests.memsim.test_trace_oracle``.
"""

from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.core import ProfiledRun, TMPConfig
from repro.memsim import AccessBatch, DataSource, MachineConfig
from repro.memsim.address import LINE_SHIFT, PAGE_SHIFT
from repro.memsim.pte import is_dirty
from repro.workloads.base import ProcessContext, Workload

from .reference import SequentialSetAssoc

TRACES = Path(__file__).parent / "traces"
NAMES = sorted(p.stem for p in TRACES.glob("*.trace"))

#: Small enough that a few dozen accesses reach every level.
MACHINE = dict(
    total_frames=1 << 12,
    n_cpus=2,
    tlb_entries=8,
    l1_bytes=8 << LINE_SHIFT,
    l2_bytes=32 << LINE_SHIFT,
    llc_bytes=128 << LINE_SHIFT,
    ibs_period=5,
    pebs_period=3,
)
GEOMETRIES = {
    "direct": {},
    "ways4": {"exact_assoc": True, "tlb_ways": 4, "cache_ways": 4},
}


def parse_trace(text):
    """``(regions, epochs)``: ``[(name, pid, pages, huge)]`` and one list
    of ``(region, page, line, is_store, cpu)`` per epoch."""
    regions, epochs, current, loop = [], [], [], None
    for raw in text.splitlines():
        words = raw.split("#")[0].split()
        if not words:
            continue
        if words[0] == "map":
            opts = dict(w.split("=") for w in words[2:] if "=" in w)
            regions.append(
                (words[1], int(opts["pid"]), int(opts["pages"]), "huge" in words)
            )
        elif words[0] == "repeat":
            assert loop is None, "repeat does not nest"
            loop = (int(words[1]), [])
        elif words[0] == "end":
            current.extend(loop[1] * loop[0])
            loop = None
        elif words[0] == "epoch":
            assert loop is None, "epoch inside repeat"
            epochs.append(current)
            current = []
        else:
            region, page, line, op, cpu = words
            assert op in "rw", raw
            access = (region, int(page), int(line), op == "w", int(cpu))
            (current if loop is None else loop[1]).append(access)
    assert not current and loop is None, "trace must end with `epoch`"
    return regions, epochs


class ReplayWorkload(Workload):
    """A workload whose epochs are a trace file's, verbatim."""

    name = "replay"

    def __init__(self, regions, epochs):
        pids = sorted({pid for _, pid, _, _ in regions})
        super().__init__(
            footprint_pages=sum(pages for _, _, pages, _ in regions),
            n_processes=len(pids),
            accesses_per_epoch=max(map(len, epochs)),
            pid_base=pids[0],
        )
        assert pids == list(range(pids[0], pids[0] + len(pids)))
        self.regions, self.epochs = regions, epochs
        self.vmas = {}

    def attach(self, machine):
        self._machine = machine
        for name, pid, pages, huge in self.regions:
            vma = machine.mmap(pid, pages, name=name, page_order=9 if huge else 0)
            self.vmas[name] = (pid, vma)
        for pid in range(self.pid_base, self.pid_base + self.n_processes):
            mine = {n: v for n, (p, v) in self.vmas.items() if p == pid}
            self.processes.append(ProcessContext(pid=pid, cpu=0, vmas=mine))

    def epoch(self, epoch_idx, rng):
        accesses = self.epochs[epoch_idx]
        vaddr = [
            ((self.vmas[region][1].start_vpn + page) << PAGE_SHIFT)
            | (line << LINE_SHIFT)
            for region, page, line, _, _ in accesses
        ]
        return AccessBatch(
            vaddr=np.array(vaddr, dtype=np.uint64),
            is_store=[store for *_, store, _ in accesses],
            pid=[self.vmas[region][0] for region, *_ in accesses],
            cpu=[cpu for *_, cpu in accesses],
        )

    def label(self, pfn):
        """``REGION:page`` of a frame number."""
        for name, (_, vma) in self.vmas.items():
            if vma.pfn_base <= pfn < vma.pfn_base + vma.npages:
                return f"{name}:{pfn - vma.pfn_base}"
        raise AssertionError(f"frame {pfn} belongs to no region")


def _records(workload, samples):
    src = {int(s): s.name for s in DataSource}
    for i in range(samples.n):
        paddr = int(samples.paddr[i])
        yield (
            f"    op={int(samples.op_idx[i])} cpu={int(samples.cpu[i])} "
            f"pid={int(samples.pid[i])} "
            f"{workload.label(paddr >> PAGE_SHIFT)}"
            f"+{(paddr >> LINE_SHIFT) & 63} "
            f"{'store' if samples.is_store[i] else 'load'} "
            f"tlb={'hit' if samples.tlb_hit[i] else 'miss'} "
            f"src={src[int(samples.data_source[i])]}"
        )


def render(name, geometry, engines=nullcontext):
    """Replay ``traces/<name>.trace`` and print everything observable."""
    workload = ReplayWorkload(*parse_trace((TRACES / f"{name}.trace").read_text()))
    with engines():
        run = ProfiledRun(
            workload,
            machine_config=MachineConfig(**MACHINE, **GEOMETRIES[geometry]),
            tmp_config=TMPConfig(process_filter=False),
        )
    machine = run.machine
    # The profiler drains IBS; PEBS is armed alongside it by hand and
    # drained here.
    machine.pebs.enabled = True
    out = [f"# {name}.trace on the {geometry} geometry; cumulative counts"]
    for _ in workload.epochs:
        record = run.run_epoch()
        out.append(f"epoch {record.epoch}: {record.accesses} accesses")
        stats = [machine.tlb.stats] + [lvl.stats for lvl in machine.caches.levels]
        for level, s in zip(("TLB", "L1", "L2", "LLC"), stats):
            out.append(f"  {level:<3} lookups={s.lookups} hits={s.hits} misses={s.misses}")
        out.append(
            "  events "
            + " ".join(f"{k}={v}" for k, v in sorted(run.event_totals.items()))
        )
        abit = np.flatnonzero(record.profile.abit)
        out.append("  A-bit found: " + " ".join(map(workload.label, abit)))
        for pid, table in sorted(machine.page_tables.items()):
            dirty = table.slot_to_pfn(np.flatnonzero(is_dirty(table.flags)))
            out.append(f"  D-bit pid {pid}: " + " ".join(map(workload.label, dirty)))
        out.append(f"  IBS records: {record.samples.n}")
        out.extend(_records(workload, record.samples))
        pebs = machine.pebs.drain()
        out.append(f"  PEBS records: {pebs.n}")
        out.extend(_records(workload, pebs))
    return "\n".join(out) + "\n", machine


@pytest.mark.parametrize("engine", ["vector", "reference"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("name", NAMES)
def test_trace_matches_golden(name, geometry, engine, reference_engines):
    engines = reference_engines if engine == "reference" else nullcontext
    text, machine = render(name, geometry, engines)
    assert isinstance(machine.tlb._engine, SequentialSetAssoc) == (
        engine == "reference"
    )
    golden = TRACES / f"{name}.{geometry}.golden"
    assert text == golden.read_text(), f"{golden.name} differs; see the module docstring"


def test_the_traces_tell_the_geometries_apart():
    # A trace whose two goldens agree pins nothing about associativity.
    for name in ("conflict_ladder", "tlb_reach"):
        direct, ways4 = (
            (TRACES / f"{name}.{g}.golden").read_text().split("\n", 1)[1]
            for g in GEOMETRIES
        )
        assert direct != ways4, name


if __name__ == "__main__":
    for trace in NAMES:
        for geom in GEOMETRIES:
            (TRACES / f"{trace}.{geom}.golden").write_text(render(trace, geom)[0])
            print(f"wrote {trace}.{geom}.golden")
