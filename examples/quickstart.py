#!/usr/bin/env python3
"""Quickstart: profile a workload with TMP and read its statistics.

Builds the scaled simulated machine, attaches the GUPS workload
(uniform random updates — the TLB- and cache-hostile extreme of the
paper's Table III), runs five one-second epochs under the TMP profiler,
and prints what the profiler saw: per-epoch detection counts, the final
hotness ranking's head, the daemon's summary statistics, and the
extended /proc numa_maps view of one process.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import MachineConfig, ProfiledRun, TMPConfig, TMPDaemon
from repro.workloads import make_workload

EPOCHS = 5


def main() -> None:
    # The scaled testbed: the paper's Ryzen 3600X machine with every
    # capacity (TLB reach, caches, sampling period, clock) shrunk by
    # the same ~64x factor as the workload footprints.  ProfiledRun
    # builds the machine, attaches the workload and puts TMP over it.
    workload = make_workload("gups")
    run = ProfiledRun(
        workload,
        machine_config=MachineConfig.scaled(),
        tmp_config=TMPConfig(),
        seed=0,
    )
    profiler = run.profiler
    daemon = TMPDaemon(profiler)
    daemon.add_workload(workload)

    print(f"profiling {workload.name!r}: {workload.footprint_pages} pages, "
          f"{workload.n_processes} processes\n")
    for _ in range(EPOCHS):
        record = run.run_epoch()  # execute + profile one epoch
        report = profiler.reports[-1]
        print(
            f"epoch {record.epoch}: {record.accesses:7d} accesses | "
            f"A-bit pages {report.abit_pages_found:6d} | "
            f"trace samples {report.trace_samples:5d} | "
            f"tracked PIDs {len(report.tracked_pids)} | "
            f"overhead {report.overhead.total_s * 1e3:6.2f} ms"
        )

    # The profiler-policy interface: one rank per page, hottest first.
    rank = profiler.reports[-1].rank()
    hottest = np.argsort(rank)[::-1][:5]
    print("\nhottest pages (PFN: rank):")
    for pfn in hottest:
        print(f"  {int(pfn):#8x}: {rank[pfn]:.0f}")

    print("\ndaemon statistics:")
    for key, value in daemon.statistics().items():
        print(f"  {key}: {value}")

    pid = workload.pids[0]
    print(f"\nextended numa_maps for pid {pid}:")
    print(daemon.numa_maps([pid]))


if __name__ == "__main__":
    main()
