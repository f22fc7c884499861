"""Child process of the ``sim_*`` workloads: one ``TieredSimulator``
driven directly, epoch by epoch.

Protocol with ``run.py``: one JSON line ``{"ready": true}`` when set-up
is done (imports, build, ``start(init)``, one warm-up epoch), then one
JSON line with the results.  ``--setup-only`` stops after the first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

import common
from tracer import SpanRecorder

common.add_src_to_path()

from repro.loadgen.report import percentile  # noqa: E402
from repro.memsim import MachineConfig  # noqa: E402
from repro.service.telemetry import epoch_metrics_to_dict  # noqa: E402
from repro.tiering import TieredSimulator  # noqa: E402
from repro.tiering.policies import POLICIES  # noqa: E402
from repro.workloads import make_workload  # noqa: E402

#: ``epochs_per_s`` sizes the run: scored epochs = rate x ``--seconds``,
#: about ``--seconds`` of stepping on the box the baseline was taken on.
SIMS = {
    "sim_sparse": dict(workload="gups", epochs_per_s=11),
    "sim_exact": dict(
        workload="gups",
        machine=dict(exact_assoc=True, tlb_ways=4, cache_ways=4),
        epochs_per_s=4.5,
    ),
    "sim_multiproc": dict(
        workload="web-serving",
        workload_kwargs=dict(accesses_per_epoch=20_000),
        epoch_slices=4,
        epochs_per_s=120,
    ),
}
REBUILDS = 5


def build(spec: dict, seed: int) -> TieredSimulator:
    """A started simulator with its warm-up epoch (epoch 0) done."""
    sim = TieredSimulator(
        make_workload(spec["workload"], **spec.get("workload_kwargs", {})),
        POLICIES["history"](),
        machine_config=MachineConfig.scaled(**spec.get("machine", {})),
        seed=seed,
        epoch_slices=spec.get("epoch_slices", 1),
    )
    sim.start(init=True)
    sim.step(1)
    return sim


def digest(epochs) -> str:
    """SHA-256 over every field of every ``EpochMetrics``."""
    h = hashlib.sha256()
    for m in epochs:
        h.update(json.dumps(epoch_metrics_to_dict(m), sort_keys=True).encode())
    return h.hexdigest()


def timed_steps(sim: TieredSimulator, n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        sim.step(1)
        out.append(time.perf_counter() - t0)
    return out


def instrument(sim: TieredSimulator, rec: SpanRecorder) -> None:
    """Spans around the public methods one epoch calls, layer by layer."""
    m = sim.machine
    rec.wrap(sim.workload, "epoch", "workloads.epoch")
    rec.wrap(m, "run_batch", "memsim.run_batch_self")
    rec.wrap(m.tlb, "access", "memsim.tlb")
    rec.wrap(m.caches, "access", "memsim.caches")
    rec.wrap(m.ptw, "fill_walks", "memsim.ptw")
    rec.wrap(m.ptw, "dirty_updates", "memsim.ptw")
    for sampler in (m.ibs, m.pebs, m.lwp):
        rec.wrap(sampler, "observe", "memsim.samplers")
    rec.wrap(m.frame_stats, "record", "memsim.frame_stats")
    rec.wrap(sim.profiler, "observe_batch", "core.observe_batch")
    rec.wrap(sim.profiler, "tick", "core.tick")
    rec.wrap(sim.profiler, "end_epoch", "core.end_epoch")
    rec.wrap(sim.policy, "target_tier1", "tiering.policy")
    rec.wrap(sim.mover, "apply_target", "tiering.mover")
    rec.wrap(sim.latency_model, "epoch_latency", "tiering.score")


#: The root span: what is left of the epoch after its children is the
#: simulator's own work (bincounts, first-touch placement, masks).
ROOT_SPAN = "tiering.step_self"
SPAN_NAMES = (
    "workloads.epoch",
    "memsim.run_batch_self",
    "memsim.tlb",
    "memsim.caches",
    "memsim.ptw",
    "memsim.samplers",
    "memsim.frame_stats",
    "core.observe_batch",
    "core.tick",
    "core.end_epoch",
    "tiering.policy",
    "tiering.mover",
    "tiering.score",
    ROOT_SPAN,
)


def traced_pair(spec: dict, seed: int, n: int, plain=None, spans_out=None) -> dict:
    """Per-layer numbers: one plain and one traced simulator of the same
    config and seed, stepped alternately so drift hits both alike."""
    plain = plain or build(spec, seed)
    traced = build(spec, seed)
    raw = {"retired_ops": 0, "dtlb_miss": 0, "llc_miss": 0, "ptw_walks": 0}
    run_batch = traced.machine.run_batch

    def counting_run_batch(batch):
        result = run_batch(batch)
        for key in raw:
            raw[key] += result.raw_events.get(key, 0)
        return result

    traced.machine.run_batch = counting_run_batch
    rec = SpanRecorder()
    instrument(traced, rec)
    ibs0 = traced.machine.ibs.stats.samples
    abit0 = traced.profiler.abit.stats.bits_found_set
    cycles0, ops0 = traced.machine.cycles, traced.machine.op_counter

    plain_s, traced_s = [], []
    for i in range(n):
        plain_s += timed_steps(plain, 1)
        rec.epoch = traced.epochs_run
        t0 = time.perf_counter()
        root = rec.begin(ROOT_SPAN)
        traced.step(1)
        rec.end(root)
        traced_s.append(time.perf_counter() - t0)
    if spans_out:
        rec.dump(spans_out)

    scored = traced.result.epochs[-n:]
    self_s = rec.self_seconds()
    covered = sum(self_s.values()) / sum(traced_s)
    ops = traced.machine.op_counter - ops0
    out = {
        f"{name}_ms": common.metric(self_s.get(name, 0.0) * 1e3 / n, "ms", n)
        for name in SPAN_NAMES
    }
    out.update(
        {
            "workloads.accesses_per_epoch": common.metric(
                sum(m.accesses for m in scored) / n, "count", n
            ),
            "memsim.tlb_miss_ratio": common.metric(
                raw["dtlb_miss"] / raw["retired_ops"], "ratio", n
            ),
            "memsim.llc_miss_ratio": common.metric(
                raw["llc_miss"] / raw["retired_ops"], "ratio", n
            ),
            "memsim.ptw_walks": common.metric(raw["ptw_walks"], "count", n),
            "memsim.ibs_samples": common.metric(
                traced.machine.ibs.stats.samples - ibs0, "count", n
            ),
            "memsim.amat_cycles": common.metric(
                (traced.machine.cycles - cycles0) / ops, "cycles", n
            ),
            "core.abit_pages": common.metric(
                traced.profiler.abit.stats.bits_found_set - abit0, "count", n
            ),
            "core.trace_samples": common.metric(
                sum(r.trace_samples for r in traced.profiler.reports[-n:]),
                "count",
                n,
            ),
            "tiering.promoted": common.metric(
                sum(m.promoted for m in scored), "count", n
            ),
            "tiering.demoted": common.metric(
                sum(m.demoted for m in scored), "count", n
            ),
            "tiering.epoch_ms_p95": common.metric(
                percentile(plain_s, 95) * 1e3, "ms", n
            ),
            "bench.trace_overhead_pct": common.metric(
                (statistics.median(traced_s) / statistics.median(plain_s) - 1) * 100,
                "%",
                n,
            ),
        }
    )
    same = digest(plain.result.epochs) == digest(traced.result.epochs)
    return {
        "metrics": out,
        "checks": {
            "traced_digest_equals_untraced": same,
            # Self times partition the root spans; anything missing is
            # the recorder's own cost between the two clocks.
            "spans_cover_traced_epochs": abs(covered - 1.0) <= 0.05,
        },
        "digest": digest(traced.result.epochs),
        "span_coverage": covered,
    }


def end_to_end(sim: TieredSimulator, spec: dict, seed: int, n: int) -> dict:
    delivered = []
    sim.add_epoch_hook(delivered.append)
    # Rebuild from the config to a known age: the determinism check (a
    # fresh simulator must reproduce the run's first epochs bit for
    # bit) and, timed, what any resume path pays at least.  Spread over
    # the run, between blocks, so one slow spell of the box cannot hit
    # all of them; resident memory is read before each, so the second
    # simulator is not in it.
    age = max(2, n // 20)
    blocks = common.split_blocks(range(n))
    rebuild_every = max(1, len(blocks) // REBUILDS)
    step_s, cpu_s, rebuild_s = [], [], []
    mismatches, peak_rss_mb = 0, 0.0
    for b, block in enumerate(blocks):
        for _ in block:
            c0 = time.process_time()
            step_s += timed_steps(sim, 1)
            cpu_s.append(time.process_time() - c0)
        peak_rss_mb = max(peak_rss_mb, common.proc_status_mb(os.getpid(), "VmRSS"))
        if b % rebuild_every == 0 and len(rebuild_s) < REBUILDS:
            t0 = time.perf_counter()
            again = build(spec, seed)
            again.step(age - 1)
            rebuild_s.append(time.perf_counter() - t0)
            mismatches += digest(again.result.epochs) != digest(
                sim.result.epochs[:age]
            )
            del again
    scored = sim.result.epochs[-n:]

    def per_block(values, combine):
        return [combine(part) for part in common.split_blocks(values)]

    seconds = per_block(step_s, sum)
    accesses = per_block([m.accesses for m in scored], sum)
    frames = per_block(delivered[-n:], len)
    cpu_ms = per_block(cpu_s, lambda part: statistics.mean(part) * 1e3)

    def quiet_rate(counts) -> dict:
        rates = [count / s for count, s in zip(counts, seconds)]
        return common.metric(
            common.quiet(rates, lower_is_better=False), "1/s", n, rates
        )

    metrics = {
        "accesses_per_s": quiet_rate(accesses),
        "epoch_ms_p50": common.p50_over_blocks(step_s, "ms", 1e3),
        "cpu_ms_per_epoch": common.metric(common.quiet(cpu_ms), "ms", n, cpu_ms),
        "frames_per_s": quiet_rate(frames),
        "resume_ms_p50": common.p50_over_blocks(rebuild_s, "ms", 1e3),
        "peak_rss_mb": common.metric(peak_rss_mb, "MiB", len(blocks)),
        "tier1_hitrate": common.metric(sim.result.mean_hitrate, "ratio", n + 1),
        "modelled_overhead_pct": common.metric(
            sim.profiler.overhead_fraction() * 100, "%", n + 1
        ),
    }
    return {
        "metrics": metrics,
        "checks": {"rebuild_equals_run": mismatches == 0},
        "attempted": n + len(rebuild_s),
        "failed": mismatches,
        "digest": digest(sim.result.epochs),
        "rebuild_age_epochs": age,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=common.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    spec = SIMS[args.workload]
    sim = build(spec, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0
    n = common.scaled(spec["epochs_per_s"], args.seconds)
    if args.trace:
        n = max(common.BLOCKS, n // 4)
        report = traced_pair(spec, args.seed, n, plain=sim, spans_out=args.spans_out)
        report["attempted"] = 2 * n
        report["failed"] = sum(not ok for ok in report["checks"].values())
    else:
        report = end_to_end(sim, spec, args.seed, n)
    report["epochs"] = n
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
