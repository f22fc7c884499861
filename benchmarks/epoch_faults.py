"""Minor page faults per epoch on one ``sim_*`` shape.

``peak_rss_mb`` reads the resting VmRSS, so it does not see what an
epoch pays to fault its working set back in after the heap gave it
back.  This counts it: ``ru_minflt`` around each ``sim.step(1)`` of a
simulator built as ``benchmarks/e2e/sim_child.py`` builds it, then the
process's VmHWM and resting VmRSS.  One workload per process, so VmHWM
is that workload's own.

    PYTHONPATH=src python benchmarks/epoch_faults.py sim_sparse
    MALLOC_MMAP_THRESHOLD_=1073741824 MALLOC_TRIM_THRESHOLD_=4294967296 \\
        PYTHONPATH=src python benchmarks/epoch_faults.py sim_exact

The second form tells glibc to keep its heap.  docs/performance.md
("Resident memory") holds the numbers measured with it.
"""

import argparse
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import common  # noqa: E402
from sim_child import SIMS, build  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(SIMS))
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sim = build(SIMS[args.workload], args.seed)
    sim.step(2)  # past the first epochs' one-off growth
    faults, epoch_ms = [], []
    for _ in range(args.epochs):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        sim.step(1)
        epoch_ms.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    fault_mib = statistics.median(faults) * resource.getpagesize() / 2**20
    print(
        f"{args.workload}: minflt/epoch {statistics.median(faults):.0f} "
        f"({fault_mib:.1f} MiB), epoch_ms {statistics.median(epoch_ms):.1f}, "
        f"VmHWM {common.proc_status_mb(os.getpid(), 'VmHWM'):.1f} MiB, "
        f"VmRSS {common.proc_status_mb(os.getpid(), 'VmRSS'):.1f} MiB"
    )


if __name__ == "__main__":
    main()
