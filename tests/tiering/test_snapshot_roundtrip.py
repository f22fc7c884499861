"""A pickled simulator continues exactly where the original does.

The service snapshots a session as one ``pickle.dumps((sim, daemon))``
(:meth:`repro.service.session.HostedSession.write_snapshot`).  That is only
sound while no two objects of the simulator share state through
something pickle would silently un-share — an array *view* of another
object's buffer comes back as a private copy, and the restored run
drifts from the original a few epochs later.  So every workload, every
policy and every optional mechanism is run, dumped mid-life and loaded,
and then both copies run on: per-epoch results, the daemon's statistics
and the numa_maps text must stay equal.
"""

import pickle

import numpy as np
import pytest

from repro.core import TMPConfig
from repro.core.daemon import TMPDaemon
from repro.memsim import AccessBatch, MachineConfig
from repro.memsim.pte import PTE_POISON
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import WORKLOAD_NAMES, make_workload

EPOCHS = 12
SMALL = dict(scale=1 / 64, accesses_per_epoch=4000)

CASES = {
    **{
        f"workload-{name}": dict(workload=name)
        for name in WORKLOAD_NAMES
    },
    **{
        f"policy-{name}": dict(workload="web-serving", policy=name, epoch_slices=4)
        for name in POLICIES
    },
    "exact-assoc-4way": dict(
        workload="gups", machine=dict(exact_assoc=True, tlb_ways=4, cache_ways=4)
    ),
    # Each trace source armed in turn (the profiler arms only its own).
    **{
        f"trace-{source}-pml-jitter": dict(
            workload="gups",
            machine=dict(enable_pml=True, ibs_jitter=0.2),
            tmp=dict(trace_source=source),
        )
        for source in ("ibs", "pebs", "lwp")
    },
    "gups-thp": dict(workload="gups", workload_kwargs=dict(thp=True)),
}


def _build(spec):
    workload = make_workload(
        spec["workload"], **SMALL, **spec.get("workload_kwargs", {})
    )
    sim = TieredSimulator(
        workload,
        POLICIES[spec.get("policy", "history")](),
        machine_config=MachineConfig.scaled(ibs_period=16, **spec.get("machine", {})),
        tmp_config=TMPConfig(**spec.get("tmp", {})),
        seed=3,
        epoch_slices=spec.get("epoch_slices", 1),
    )
    daemon = TMPDaemon(sim.profiler)
    daemon.add_workload(workload)
    sim.start()
    return sim, daemon


@pytest.mark.parametrize("name", sorted(CASES))
def test_loaded_copy_runs_on_like_the_original(name):
    sim, daemon = _build(CASES[name])
    seen = []
    sim.add_epoch_hook(seen.append)
    sim.step(EPOCHS)
    copy, copy_daemon = pickle.loads(pickle.dumps((sim, daemon)))

    # One object graph, not two halves: the daemon still fronts the
    # copy's own profiler, and the driver's hooks did not come along.
    assert copy_daemon.profiler is copy.profiler
    assert copy.profiler.machine is copy.machine
    assert copy._epoch_hooks == [] and len(sim._epoch_hooks) == 1

    assert copy.step(EPOCHS) == sim.step(EPOCHS)
    assert len(seen) == 2 * EPOCHS
    assert copy.result == sim.result
    assert copy_daemon.statistics() == daemon.statistics()
    assert copy_daemon.numa_maps() == daemon.numa_maps()


def test_loaded_tables_still_share_the_machines_column():
    """The column comes back once, every table a view of it: a write
    through one table's ``flags`` is what the next batch walks."""
    sim, daemon = _build(CASES["workload-web-serving"])
    sim.step(2)
    copy, _ = pickle.loads(pickle.dumps((sim, daemon)))
    machine = copy.machine
    tables = [pt for pt in machine.page_tables.values() if pt.n_pages]
    assert len(tables) > 1
    for pt in tables:
        assert np.shares_memory(pt.flags, machine.pte.flags)
        assert not np.shares_memory(pt.flags, sim.machine.pte.flags)
    pt = tables[-1]
    vma = pt.vmas[0]
    pt.flags[vma.slot_base] |= PTE_POISON
    machine.tlb.shootdown_pages(np.array([pt.pid]), np.array([vma.start_vpn]))
    faults = machine.badgertrap.stats.faults
    machine.run_batch(AccessBatch.from_pages([vma.start_vpn], pid=pt.pid))
    assert machine.badgertrap.stats.faults == faults + 1
    assert sim.machine.page_tables[pt.pid].flags[vma.slot_base] & PTE_POISON == 0
