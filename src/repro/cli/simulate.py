"""``list``, ``profile``, ``tier``, ``heatmap``: one workload, in this
process, printed as it runs."""

import math

from ._common import machine_config, policy_class, workload, workload_flags


def list_(args) -> int:
    from ..tiering.policies import POLICIES
    from ..workloads import WORKLOADS, make_workload

    print("workloads (Table III):")
    for name in WORKLOADS:
        w = make_workload(name)
        print(
            f"  {name:16s} {w.footprint_pages:7d} pages, "
            f"{w.n_processes:2d} processes, "
            f"{w.accesses_per_epoch} accesses/epoch"
        )
    print("\npolicies:")
    for name, cls in POLICIES.items():
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:12s} {doc}")
    return 0


def profile_flags(p) -> None:
    workload_flags(p)
    p.add_argument("--no-abit", action="store_true", help="disable the A-bit driver")
    p.add_argument("--no-trace", action="store_true", help="disable the trace driver")
    p.add_argument(
        "--trace-source", choices=("ibs", "pebs"), default="ibs",
        help="which hardware sampler feeds the trace driver",
    )
    p.add_argument("--gating", action="store_true", help="enable HWPC gating")
    p.add_argument("--numa-maps", action="store_true", help="print numa_maps at the end")


def profile(args) -> int:
    from ..core import ProfiledRun, TMPConfig, TMPDaemon

    wl = workload(args)
    cfg = TMPConfig(
        abit_enabled=not args.no_abit,
        trace_enabled=not args.no_trace,
        trace_source=args.trace_source,
        hwpc_gating=args.gating,
    )
    run = ProfiledRun(
        wl, machine_config=machine_config(args), tmp_config=cfg, seed=args.seed
    )
    daemon = TMPDaemon(run.profiler)
    daemon.add_workload(wl)

    for _ in range(args.epochs):
        rec = run.run_epoch()
        report = run.profiler.reports[-1]
        gate = ""
        if report.gating is not None:
            gate = f" gate[trace={report.gating.trace_active} abit={report.gating.abit_active}]"
        print(
            f"epoch {rec.epoch}: accesses={rec.accesses} abit={report.abit_pages_found} "
            f"trace={report.trace_samples} overhead={report.overhead.total_s*1e3:.2f}ms{gate}"
        )

    print("\nstatistics:")
    for key, value in daemon.statistics().items():
        print(f"  {key}: {value}")
    if args.numa_maps:
        print("\n" + daemon.numa_maps(wl.pids[:1]))
    return 0


def tier_flags(p) -> None:
    workload_flags(p)
    p.add_argument("--policy", default="history", help="placement policy name")
    p.add_argument(
        "--source", choices=("abit", "trace", "combined"), default="combined"
    )
    p.add_argument("--ratio", type=float, default=1 / 16, help="tier1 : footprint")
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the FCFA baseline and report the speedup",
    )


def tier(args) -> int:
    from ..tiering import TieredSimulator
    from ..tiering.policies import FCFAPolicy

    def run(policy, **kw):
        return TieredSimulator(
            workload(args),
            policy,
            tier1_ratio=args.ratio,
            machine_config=machine_config(args),
            seed=args.seed,
            **kw,
        ).run(args.epochs)

    res = run(policy_class(args.policy)(), rank_source=args.source)
    print(
        f"{res.workload} / {res.policy} / {res.rank_source} "
        f"@ tier1={args.ratio:.4g} ({res.tier1_capacity} pages)"
    )
    for e in res.epochs:
        print(
            f"  epoch {e.epoch}: hitrate={e.hitrate:.3f} "
            f"promoted={e.promoted} demoted={e.demoted} runtime={e.runtime_s:.3f}s"
        )
    print(f"mean hitrate {res.mean_hitrate:.3f}, runtime {res.total_runtime_s:.2f}s")
    if args.baseline:
        base = run(FCFAPolicy())
        speedup = res.speedup_over(base)
        print(
            f"fcfa baseline: hitrate {base.mean_hitrate:.3f}, "
            f"runtime {base.total_runtime_s:.2f}s, speedup "
            + ("n/a" if math.isnan(speedup) else f"{speedup:.3f}x")
        )
    return 0


def heatmap_flags(p) -> None:
    workload_flags(p)
    p.add_argument("--bins", type=int, default=28, help="address bins (rows)")


def heatmap(args) -> int:
    from ..analysis import heatmap_from_profiles, render_heatmap
    from ..analysis.heatmap import heatmap_from_epoch_samples
    from ..tiering import record_run

    rec = record_run(
        workload(args),
        machine_config=machine_config(args),
        epochs=args.epochs,
        seed=args.seed,
    )
    ibs = heatmap_from_epoch_samples(
        [r.samples for r in rec.epochs], n_addr_bins=args.bins, n_frames=rec.n_frames
    )
    print(render_heatmap(ibs, title=f"[{rec.workload}] IBS samples (Fig. 3 view)"))
    print()
    abit = heatmap_from_profiles(
        [r.profile for r in rec.epochs],
        field="abit",
        n_addr_bins=args.bins,
        n_frames=rec.n_frames,
    )
    print(render_heatmap(abit, title=f"[{rec.workload}] A-bit (Fig. 4 view)"))
    return 0

