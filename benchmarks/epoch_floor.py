"""Where a service-sized epoch goes, at 1, 8 and 16 processes.

The e2e ``svc_*`` sessions step ``gups`` at 256 pages and 1 000
accesses per epoch on ``MachineConfig.scaled(ibs_period=16)`` with the
History policy.  This builds that simulator directly, for each process
count, and prints

* ``epoch_us`` — the median of ``step(1)``, untimed inside;
* one column per layer — mean self µs per epoch of a second, timed run
  of the same seed: the generator (``workload.epoch``), the lookup
  engines (the TLB and the cache hierarchy), translation through the
  VMA index, the A-bit scan, the rest of ``end_epoch``, the policy,
  the mover and the score; ``other`` is what the epoch spends outside
  them (the simulator's own masks and bincounts, the samplers, the
  walks);
* ``calls`` — cProfile's ``total_calls`` per epoch, which does not vary
  with the box (numpy's Python wrappers included).

and, under the table, the per-process slope of ``epoch_us`` and of
``calls``: the 16-process figure minus the 1-process one, over 15.

    PYTHONPATH=src python benchmarks/epoch_floor.py
    PYTHONPATH=src python benchmarks/epoch_floor.py --epochs 2000 --processes 1,8

docs/performance.md ("The per-epoch floor") holds the numbers measured
with it.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import pstats
import statistics
import time
from collections import defaultdict

from repro.memsim import MachineConfig
from repro.memsim.page_table import VMAIndex
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

WORKLOAD_KWARGS = {"footprint_pages": 256, "accesses_per_epoch": 1000}
LAYERS = (
    "generator", "lookup", "translate", "abit_scan", "end_epoch",
    "policy", "mover", "score", "other",
)


def build(n_processes: int, seed: int) -> TieredSimulator:
    """The ``svc_*`` session's simulator with ``n_processes`` PIDs."""
    sim = TieredSimulator(
        make_workload("gups", n_processes=n_processes, **WORKLOAD_KWARGS),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(ibs_period=16),
        seed=seed,
    )
    sim.start(init=True)
    return sim


class SelfTimer:
    """Self time per layer of calls wrapped with :meth:`wrap`."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self._stack: list[list] = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]  # the layer, and its children's time
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[layer] += spent - frame[1]
                if self._stack:
                    self._stack[-1][1] += spent

        setattr(owner, attr, timed)


def layers_us(n_processes: int, seed: int, epochs: int) -> dict[str, float]:
    sim = build(n_processes, seed)
    timer = SelfTimer()
    m = sim.machine
    timer.wrap(sim.workload, "epoch", "generator")
    timer.wrap(m.tlb, "access", "lookup")
    timer.wrap(m.caches, "access", "lookup")
    timer.wrap(sim.profiler.abit, "scan", "abit_scan")
    timer.wrap(sim.profiler, "end_epoch", "end_epoch")
    timer.wrap(sim.policy, "target_tier1", "policy")
    timer.wrap(sim.mover, "apply_target", "mover")
    timer.wrap(sim.latency_model, "epoch_latency", "score")
    translate = VMAIndex.translate
    timer.wrap(VMAIndex, "translate", "translate")
    try:
        timer.wrap(sim, "step", "other")
        for _ in range(epochs):
            sim.step(1)
    finally:
        VMAIndex.translate = translate
    return {layer: timer.seconds[layer] * 1e6 / epochs for layer in LAYERS}


def epoch_us(n_processes: int, seed: int, epochs: int) -> float:
    sim = build(n_processes, seed)
    samples = []
    for _ in range(epochs):
        t0 = time.perf_counter()
        sim.step(1)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def calls_per_epoch(n_processes: int, seed: int, epochs: int) -> float:
    sim = build(n_processes, seed)
    profile = cProfile.Profile()
    profile.runcall(sim.step, epochs)
    return pstats.Stats(profile).total_calls / epochs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", default="1,8,16")
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    columns = ("processes", "epoch_us", *LAYERS, "calls")
    print(" ".join(f"{c:>10}" for c in columns))
    rows = {}
    for n in map(int, args.processes.split(",")):
        row = {"processes": n, "epoch_us": epoch_us(n, args.seed, args.epochs)}
        row.update(layers_us(n, args.seed, args.epochs))
        row["calls"] = calls_per_epoch(n, args.seed, min(args.epochs, 200))
        rows[n] = row
        print(
            " ".join(
                f"{row[c]:>10.1f}" if isinstance(row[c], float) else f"{row[c]:>10}"
                for c in columns
            ),
            flush=True,
        )
    if 1 in rows and 16 in rows:
        print(
            "per process: "
            + ", ".join(
                f"{c} {(rows[16][c] - rows[1][c]) / 15:.1f}"
                for c in ("epoch_us", *LAYERS, "calls")
            )
        )


if __name__ == "__main__":
    main()
