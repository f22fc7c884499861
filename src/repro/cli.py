"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main entry points so the paper's
experiments can be driven without writing code:

``list``
    Show available workloads and policies.
``profile WORKLOAD``
    Run TMP over a workload; print per-epoch detections and the
    summary statistics / numa_maps.
``tier WORKLOAD``
    Run the tiered simulator with a chosen policy/source/ratio.
``heatmap WORKLOAD``
    Print the Fig. 3 / Fig. 4 ASCII heatmaps for one workload.
``sweep WORKLOAD``
    The Fig. 6 grid (policies × sources × ratios) for one workload.
``serve``
    Run the online multi-session profiling service (JSON lines over
    TCP or a unix socket).  ``--workers N`` executes sessions on a
    sticky pool of N worker processes (default: core count;
    ``$REPRO_SERVICE_WORKERS`` overrides; 0 steps in-process).
    ``--metrics-port`` exposes a Prometheus scrape endpoint and
    ``--log-json`` switches on structured logs; see ``docs/service.md``
    and ``docs/observability.md``.

``record``, ``evaluate`` and ``sweep`` accept ``--jobs N`` (process-
pool fan-out; default ``$REPRO_JOBS`` or the core count) and
``--cache-dir DIR`` (content-addressed recorded-run cache; default
``$REPRO_CACHE_DIR``).  ``record`` and ``sweep`` accept ``all`` as the
workload to run the whole Table III suite.  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TMP tiered-memory profiling reproduction (IPDPS 2021)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies")

    p = sub.add_parser("profile", help="profile a workload with TMP")
    _common(p)
    p.add_argument("--no-abit", action="store_true", help="disable the A-bit driver")
    p.add_argument("--no-trace", action="store_true", help="disable the trace driver")
    p.add_argument(
        "--trace-source", choices=("ibs", "pebs"), default="ibs",
        help="which hardware sampler feeds the trace driver",
    )
    p.add_argument("--gating", action="store_true", help="enable HWPC gating")
    p.add_argument("--numa-maps", action="store_true", help="print numa_maps at the end")

    p = sub.add_parser("tier", help="run tiered-memory placement")
    _common(p)
    p.add_argument("--policy", default="history", help="placement policy name")
    p.add_argument(
        "--source", choices=("abit", "trace", "combined"), default="combined"
    )
    p.add_argument("--ratio", type=float, default=1 / 16, help="tier1 : footprint")
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the FCFA baseline and report the speedup",
    )

    p = sub.add_parser("heatmap", help="print Fig. 3/4 heatmaps for a workload")
    _common(p)
    p.add_argument("--bins", type=int, default=28, help="address bins (rows)")

    p = sub.add_parser("sweep", help="Fig. 6 grid for one workload (or `all`)")
    _common(p)
    _runner_opts(p)
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write per-stage runner timings as JSON (BENCH_runner.json)",
    )

    p = sub.add_parser("record", help="record a run (or `all`) to .npz")
    _common(p)
    _runner_opts(p)
    p.add_argument(
        "output",
        help="destination .npz path (a directory when workload is `all`)",
    )
    p.add_argument(
        "--no-samples", action="store_true", help="omit raw trace samples (smaller file)"
    )

    p = sub.add_parser("evaluate", help="score policies on a saved recording")
    p.add_argument(
        "recording",
        help=".npz file from `repro record`, or a workload name with "
        "--cache-dir (recorded on miss)",
    )
    _runner_opts(p)
    p.add_argument(
        "--policy", default="history",
        help="policy name, or a comma-separated list for a grid",
    )
    p.add_argument(
        "--source", default="combined",
        help="abit|trace|combined, or a comma-separated list",
    )
    p.add_argument(
        "--ratio", default=str(1 / 16),
        help="tier1 : footprint, or a comma-separated list",
    )
    p.add_argument(
        "--epochs", type=_nonnegative_int, default=8, help="epochs when recording"
    )
    p.add_argument("--seed", type=int, default=0, help="seed when recording")
    p.add_argument(
        "--ibs-period", type=int, default=16, help="trace period when recording"
    )

    p = sub.add_parser(
        "serve", help="run the online profiling service (docs/service.md)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (TCP mode)")
    p.add_argument(
        "--port", type=int, default=7790, help="TCP port (0 picks a free one)"
    )
    # dest names are ServiceServer's keyword names: _cmd_serve passes
    # them through by name.
    p.add_argument(
        "--socket", dest="socket_path", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    p.add_argument(
        "--max-sessions", type=_positive_int, default=16,
        help="admission limit on concurrent sessions",
    )
    p.add_argument(
        "--idle-ttl", dest="idle_ttl_s", type=float, default=600.0,
        metavar="SECONDS",
        help="evict sessions idle longer than this (<= 0 disables)",
    )
    p.add_argument(
        "--reap-interval", dest="reap_interval_s", type=float, default=5.0,
        metavar="SECONDS",
        help="how often the reaper scans for idle sessions (<= 0 disables)",
    )
    p.add_argument(
        "--step-workers", type=_positive_int, default=None, metavar="N",
        help="worker threads executing session steps",
    )
    p.add_argument(
        "--workers", type=_nonnegative_int, default=None, metavar="N",
        help="sticky session worker processes (0 = step in-process; "
        "default: $REPRO_SERVICE_WORKERS or the core count)",
    )
    p.add_argument(
        "--metrics-port", type=_nonnegative_int, default=None, metavar="PORT",
        help="serve Prometheus metrics on this port (0 picks a free one; "
        "default: $REPRO_METRICS_PORT or disabled)",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs on stderr (also $REPRO_LOG_JSON)",
    )
    p.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="durable telemetry ledger root: frames persist per session, "
        "subscribe(from_seq=...) replays history, and crashed worker "
        "sessions are recovered (default: $REPRO_LEDGER_DIR or disabled)",
    )
    p.add_argument(
        "--ledger-fsync", choices=("always", "rotate", "never"),
        default="rotate",
        help="ledger durability: fsync every append, only on segment "
        "rotation (default), or never",
    )
    p.add_argument(
        "--ledger-retention-bytes", type=_positive_int, default=None,
        metavar="N",
        help="compact each session's oldest sealed segments above this size",
    )
    p.add_argument(
        "--evict-to-disk", action="store_true",
        help="checkpoint idle-evicted sessions to the ledger instead of "
        "discarding them; resume_session re-admits them bit-identically "
        "(needs --ledger-dir)",
    )
    p.add_argument(
        "--tenant-quota", type=_positive_int, default=None, metavar="N",
        help="max live sessions per tenant (create_session's tenant param); "
        "over-quota creates are rejected with the `overloaded` error code",
    )
    p.add_argument(
        "--max-inflight-steps", type=_positive_int, default=None, metavar="N",
        help="global cap on concurrently executing steps; excess steps are "
        "rejected with `overloaded` instead of queueing (load shedding)",
    )

    p = sub.add_parser(
        "loadtest",
        help="open-loop load test against a live `repro serve` "
        "(docs/performance.md)",
    )
    target = p.add_mutually_exclusive_group()
    target.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="TCP address of a running server",
    )
    target.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket of a running server",
    )
    target.add_argument(
        "--spawn", action="store_true",
        help="spawn a throwaway `repro serve` subprocess for the run",
    )
    p.add_argument(
        "--sessions", type=_positive_int, default=200,
        help="total sessions to launch",
    )
    p.add_argument(
        "--arrival-rate", type=float, default=100.0, metavar="PER_S",
        help="mean session arrivals per second (Poisson, open loop)",
    )
    p.add_argument(
        "--steps", type=_positive_int, default=3, metavar="N",
        help="steps per session",
    )
    p.add_argument(
        "--step-epochs", type=_positive_int, default=1, metavar="N",
        help="epochs per step op",
    )
    p.add_argument("--workload", default="gups", help="workload for every session")
    p.add_argument(
        "--footprint-pages", type=_positive_int, default=256,
        help="per-session workload footprint (kept small so one box can "
        "host hundreds of concurrent sessions)",
    )
    p.add_argument(
        "--accesses-per-epoch", type=_positive_int, default=1000,
        help="per-session accesses simulated each epoch",
    )
    p.add_argument(
        "--connections", type=_positive_int, default=4,
        help="client connections the session population multiplexes over",
    )
    p.add_argument(
        "--subscribe-fraction", type=float, default=0.25,
        help="fraction of sessions that subscribe to their event stream",
    )
    p.add_argument(
        "--stats-fraction", type=float, default=0.25,
        help="probability of a stats call after each step",
    )
    p.add_argument(
        "--tenants", type=_positive_int, default=1,
        help="spread creates across this many tenant names (t0, t1, ...)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="hard wall-clock cap on the run",
    )
    p.add_argument(
        "--out", default="BENCH_load.json", metavar="PATH",
        help="report path (atomic write)",
    )
    p.add_argument(
        "--slo-step-p99", type=float, default=None, metavar="SECONDS",
        help="fail (exit 1) when step p99 latency exceeds this",
    )
    p.add_argument(
        "serve_args", nargs="*", metavar="SERVE_ARG",
        help="with --spawn, everything after `--` goes to the spawned "
        "`repro serve` verbatim (after its defaults `--max-sessions "
        "<sessions> --workers 0`, so a forwarded flag overrides them)",
    )
    p.add_argument(
        "--evict-resume-fraction", type=float, default=0.0,
        help="fraction of sessions that pause mid-life, wait to be "
        "idle-evicted (checkpointed), then resume_session and finish",
    )
    p.add_argument(
        "--evict-wait", type=float, default=10.0, metavar="SECONDS",
        help="max wall-clock an evict/resume session waits to be evicted",
    )

    p = sub.add_parser(
        "ledger", help="inspect a service telemetry ledger (docs/service.md)"
    )
    lsub = p.add_subparsers(dest="ledger_command", required=True)
    lp = lsub.add_parser("list", help="list recorded sessions under a root")
    lp.add_argument("dir", help="ledger root (what serve --ledger-dir got)")
    lp = lsub.add_parser("cat", help="print one session's records, JSONL")
    lp.add_argument("dir", help="ledger root")
    lp.add_argument("session", help="session id (see `repro ledger list`)")
    lp.add_argument(
        "--from-seq", type=_nonnegative_int, default=0, metavar="N",
        help="first seq to print",
    )
    lp.add_argument(
        "--to-seq", type=_nonnegative_int, default=None, metavar="N",
        help="stop before this seq",
    )
    lp = lsub.add_parser(
        "replay", help="rebuild and summarize the session's SimulationResult"
    )
    lp.add_argument("dir", help="ledger root")
    lp.add_argument("session", help="session id (see `repro ledger list`)")
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _runner_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="parallel worker processes (default: $REPRO_JOBS or cpu count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed recorded-run cache (default: $REPRO_CACHE_DIR)",
    )


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", help="workload name (see `repro list`)")
    p.add_argument("--epochs", type=_nonnegative_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ibs-period", type=int, default=16,
        help="trace sampling period (scaled; 64=default rate, 16=4x, 8=8x)",
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "profile": _cmd_profile,
        "tier": _cmd_tier,
        "heatmap": _cmd_heatmap,
        "sweep": _cmd_sweep,
        "record": _cmd_record,
        "evaluate": _cmd_evaluate,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "ledger": _cmd_ledger,
    }[args.command]
    return handler(args)


def _machine_config(args):
    from .memsim import MachineConfig

    return MachineConfig.scaled(ibs_period=args.ibs_period)


def _workload(args):
    from .workloads import WORKLOAD_NAMES, make_workload

    if args.workload not in WORKLOAD_NAMES:
        raise SystemExit(
            f"unknown workload {args.workload!r}; available: {', '.join(WORKLOAD_NAMES)}"
        )
    return make_workload(args.workload)


def _workload_names(args) -> list[str]:
    """Resolve the workload positional, allowing ``all`` for the suite."""
    from .workloads import WORKLOAD_NAMES

    if args.workload == "all":
        return list(WORKLOAD_NAMES)
    if args.workload not in WORKLOAD_NAMES:
        raise SystemExit(
            f"unknown workload {args.workload!r}; available: "
            f"all, {', '.join(WORKLOAD_NAMES)}"
        )
    return [args.workload]


def _cache(args):
    from .runner import RunCache

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return RunCache(cache_dir) if cache_dir else None


def _cmd_list(args) -> int:
    from .tiering.policies import POLICIES
    from .workloads import WORKLOADS, make_workload

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


def _cmd_profile(args) -> int:
    from .core import ProfiledRun, TMPConfig, TMPDaemon

    workload = _workload(args)
    cfg = TMPConfig(
        abit_enabled=not args.no_abit,
        trace_enabled=not args.no_trace,
        trace_source=args.trace_source,
        hwpc_gating=args.gating,
    )
    run = ProfiledRun(
        workload, machine_config=_machine_config(args), tmp_config=cfg, seed=args.seed
    )
    daemon = TMPDaemon(run.profiler)
    daemon.add_workload(workload)

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
        print("\n" + daemon.numa_maps(workload.pids[:1]))
    return 0


def _cmd_tier(args) -> int:
    from .tiering import TieredSimulator
    from .tiering.policies import POLICIES, FCFAPolicy

    if args.policy not in POLICIES:
        raise SystemExit(
            f"unknown policy {args.policy!r}; available: {', '.join(POLICIES)}"
        )
    sim = TieredSimulator(
        _workload(args),
        POLICIES[args.policy](),
        tier1_ratio=args.ratio,
        rank_source=args.source,
        machine_config=_machine_config(args),
        seed=args.seed,
    )
    res = sim.run(args.epochs)
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
        base = TieredSimulator(
            _workload(args),
            FCFAPolicy(),
            tier1_ratio=args.ratio,
            machine_config=_machine_config(args),
            seed=args.seed,
        ).run(args.epochs)
        speedup = res.speedup_over(base)
        print(
            f"fcfa baseline: hitrate {base.mean_hitrate:.3f}, "
            f"runtime {base.total_runtime_s:.2f}s, speedup "
            + ("n/a" if math.isnan(speedup) else f"{speedup:.3f}x")
        )
    return 0


def _cmd_heatmap(args) -> int:
    from .analysis import heatmap_from_profiles, render_heatmap
    from .analysis.heatmap import heatmap_from_epoch_samples
    from .tiering import record_run

    rec = record_run(
        _workload(args),
        machine_config=_machine_config(args),
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


def _cmd_sweep(args) -> int:
    from .analysis import DEFAULT_RATIOS, fig6_sweep, format_series

    names = _workload_names(args)
    points = fig6_sweep(
        names,
        epochs=args.epochs,
        seed=args.seed,
        ibs_period=args.ibs_period,
        jobs=args.jobs,
        cache=_cache(args),
        bench_path=args.bench_out,
    )
    labels = [f"1/{int(round(1/r))}" for r in DEFAULT_RATIOS]
    for name in names:
        print(f"Fig. 6 grid for {name}:")
        for policy in ("oracle", "history"):
            for source in ("abit", "trace", "combined"):
                ys = [
                    p.hitrate
                    for p in points
                    if p.workload == name
                    and p.policy == policy
                    and p.source == source
                ]
                print(format_series(f"{policy}/{source}", labels, ys))
    if args.bench_out:
        print(f"runner timings -> {args.bench_out}")
    return 0


def _record_specs(args, names):
    from .runner import RecordSpec

    return [
        RecordSpec(
            name,
            machine_config=_machine_config(args),
            epochs=args.epochs,
            seed=args.seed,
        )
        for name in names
    ]


def _cmd_record(args) -> int:
    from pathlib import Path

    from .runner import record_suite
    from .tiering import save_recorded

    names = _workload_names(args)
    runs = record_suite(
        _record_specs(args, names), jobs=args.jobs, cache=_cache(args)
    )
    include_samples = not args.no_samples
    if len(names) == 1:
        targets = [Path(args.output)]
    else:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        targets = [out_dir / f"{name}.npz" for name in names]
    for rec, target in zip(runs, targets):
        path = save_recorded(rec, target, include_samples=include_samples)
        print(
            f"recorded {rec.workload}: {rec.n_epochs} epochs, "
            f"{rec.n_frames} frames -> {path}"
        )
    return 0


def _cmd_evaluate(args) -> int:
    from pathlib import Path

    from .runner import GridCell, RecordSpec, evaluate_grid, get_or_record
    from .tiering import load_recorded
    from .tiering.policies import POLICIES
    from .workloads import WORKLOAD_NAMES

    policies = args.policy.split(",")
    sources = args.source.split(",")
    try:
        ratios = [float(r) for r in args.ratio.split(",")]
    except ValueError:
        raise SystemExit(
            f"invalid --ratio {args.ratio!r}: expected a float or a "
            "comma-separated list of floats"
        )
    for policy in policies:
        if policy not in POLICIES:
            raise SystemExit(
                f"unknown policy {policy!r}; available: {', '.join(POLICIES)}"
            )

    cache = _cache(args)
    if Path(args.recording).exists():
        rec = load_recorded(args.recording)
    elif args.recording in WORKLOAD_NAMES and cache is not None:
        # Resolve via the cache: load the content-addressed entry for
        # this exact config, recording it on a miss.
        rec = get_or_record(
            RecordSpec(
                args.recording,
                machine_config=_machine_config(args),
                epochs=args.epochs,
                seed=args.seed,
            ),
            cache=cache,
        )
    else:
        raise SystemExit(
            f"recording {args.recording!r} is neither a file nor a workload "
            "name usable with --cache-dir"
        )

    cells = [
        GridCell(policy, source, ratio)
        for policy in policies
        for source in sources
        for ratio in ratios
    ]
    results = evaluate_grid(rec, cells, jobs=args.jobs)
    for cell, res in zip(cells, results):
        print(
            f"{res.workload} / {res.policy} / {res.rank_source} "
            f"@ tier1={cell.ratio:.4g}: hitrate={res.mean_hitrate:.3f} "
            f"migrations={res.total_migrations} runtime={res.total_runtime_s:.2f}s"
        )
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import inspect

    from .obs import log as obs_log
    from .service import ServiceServer

    if args.log_json:
        obs_log.configure(enabled=True)
        # Worker processes read the environment, not our in-process state.
        os.environ["REPRO_LOG_JSON"] = "1"
    if args.metrics_port is None and os.environ.get("REPRO_METRICS_PORT"):
        args.metrics_port = int(os.environ["REPRO_METRICS_PORT"])
    ledger_dir = args.ledger_dir or os.environ.get("REPRO_LEDGER_DIR") or None
    if args.evict_to_disk and not ledger_dir:
        raise SystemExit("--evict-to-disk needs --ledger-dir")
    args.ledger_dir = ledger_dir
    accepted = inspect.signature(ServiceServer).parameters
    options = {k: v for k, v in vars(args).items() if k in accepted}

    async def _serve() -> None:
        server = ServiceServer(**options)
        await server.start()
        if isinstance(server.address, tuple):
            where = "{}:{}".format(*server.address)
        else:
            where = server.address
        print(
            f"repro service listening on {where} "
            f"(max_sessions={args.max_sessions}, idle_ttl={args.idle_ttl_s:g}s, "
            f"workers={server.workers}); SIGTERM drains gracefully",
            flush=True,
        )
        if server.metrics_address is not None:
            print(
                "metrics at http://{}:{}/metrics".format(*server.metrics_address),
                flush=True,
            )
        if ledger_dir:
            print(
                f"telemetry ledger at {ledger_dir} "
                f"(fsync={args.ledger_fsync})",
                flush=True,
            )
        await server.serve_forever()
        print("repro service drained, exiting", flush=True)

    asyncio.run(_serve())
    return 0


def _spawn_command(args, socket_path: str) -> list[str]:
    """The `repro serve` command line `loadtest --spawn` runs.

    The loadtest's own defaults lead and ``args.serve_args`` (what
    followed ``--``) trail verbatim, so a forwarded flag wins.
    """
    return [
        sys.executable, "-m", "repro", "serve",
        "--socket", socket_path,
        "--max-sessions", str(args.sessions),
        "--workers", "0",
        *args.serve_args,
    ]


def _spawn_server(args, socket_path: str):
    """Start a throwaway `repro serve` subprocess on a unix socket.

    Returns the Popen handle once the socket accepts connections.
    """
    import socket as socketlib
    import subprocess
    import time as timelib

    proc = subprocess.Popen(_spawn_command(args, socket_path))
    deadline = timelib.monotonic() + 30.0
    while timelib.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"spawned server exited early (code {proc.returncode})"
            )
        try:
            probe = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            probe.connect(socket_path)
            probe.close()
            return proc
        except OSError:
            timelib.sleep(0.05)
    proc.terminate()
    raise SystemExit("spawned server did not come up within 30s")


def _cmd_loadtest(args) -> int:
    import json
    import signal
    import tempfile

    from .loadgen import LoadTestConfig, run_load_test, write_report

    config = LoadTestConfig(
        sessions=args.sessions,
        arrival_rate=args.arrival_rate,
        steps_per_session=args.steps,
        epochs_per_step=args.step_epochs,
        workload=args.workload,
        workload_kwargs={
            "footprint_pages": args.footprint_pages,
            "accesses_per_epoch": args.accesses_per_epoch,
        },
        connections=args.connections,
        subscribe_fraction=args.subscribe_fraction,
        stats_fraction=args.stats_fraction,
        tenants=args.tenants,
        seed=args.seed,
        timeout_s=args.timeout,
        evict_resume_fraction=args.evict_resume_fraction,
        evict_wait_s=args.evict_wait,
    )
    proc = None
    tmpdir = None
    if args.serve_args and not args.spawn:
        raise SystemExit("arguments after `--` are for --spawn's server")
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"--connect wants HOST:PORT, got {args.connect!r}")
        address = (host, int(port))
    elif args.socket:
        address = args.socket
    elif args.spawn:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        socket_path = os.path.join(tmpdir.name, "serve.sock")
        proc = _spawn_server(args, socket_path)
        address = socket_path
    else:
        raise SystemExit("pick a target: --connect, --socket, or --spawn")
    try:
        report = run_load_test(
            address, config, slo_step_p99_s=args.slo_step_p99
        )
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)  # drain gracefully
            try:
                proc.wait(timeout=15)
            except Exception:
                proc.kill()
                proc.wait()
        if tmpdir is not None:
            tmpdir.cleanup()
    write_report(args.out, report)
    sessions = report["sessions"]
    timed_out = " TIMED OUT" if report.get("timed_out") else ""
    print(
        f"loadtest{timed_out}: {sessions['completed']}/{sessions['target']} "
        f"sessions completed (peak concurrent {sessions['peak_concurrent']}, "
        f"rejected {sum(sessions['rejected'].values())}, "
        f"evicted mid-life {sessions['evicted_midlife']}, "
        f"resumed {sessions['resumed']}) "
        f"in {report['wall_s']:.2f}s -> {args.out}"
    )
    for op, stats in sorted(report["ops"].items()):
        if stats.get("count"):
            print(
                f"  {op:>10}: n={stats['count']:<6} "
                f"p50={stats['p50_s'] * 1e3:.2f}ms "
                f"p99={stats['p99_s'] * 1e3:.2f}ms "
                f"max={stats['max_s'] * 1e3:.2f}ms "
                f"errors={json.dumps(stats['errors'])}"
            )
        else:
            print(f"  {op:>10}: n=0 errors={json.dumps(stats['errors'])}")
    slo = report["slo"]
    if slo["ok"] is False:
        observed = slo["step_p99_s"]
        shown = "n/a" if observed is None else f"{observed * 1e3:.2f}ms"
        print(
            f"SLO FAIL: step p99 {shown} exceeds "
            f"{slo['threshold_s'] * 1e3:.2f}ms"
        )
        return 1
    if slo["ok"]:
        print(
            f"SLO ok: step p99 {slo['step_p99_s'] * 1e3:.2f}ms <= "
            f"{slo['threshold_s'] * 1e3:.2f}ms"
        )
    return 0


def _cmd_ledger(args) -> int:
    import json

    from .ledger import Ledger, replay_result

    ledger = Ledger(args.dir)
    if args.ledger_command == "list":
        sessions = ledger.list_sessions()
        if not sessions:
            print(f"no session ledgers under {args.dir}")
            return 0
        for entry in sessions:
            key = entry.get("config_key") or ""
            print(
                f"{entry['session']}: workload={entry['workload']} "
                f"epochs={entry['epochs']} seq=[{entry['first_seq']}, "
                f"{entry['next_seq']}) segments={entry['segments']} "
                f"bytes={entry['bytes']} key={key[:12]}"
            )
        return 0
    try:
        session_ledger = ledger.open_session(args.session)
    except (FileNotFoundError, ValueError) as exc:  # no such / not an id
        raise SystemExit(str(exc)) from exc
    try:
        if args.ledger_command == "cat":
            for record in session_ledger.read(args.from_seq, args.to_seq):
                print(json.dumps(record, separators=(",", ":")))
            return 0
        result = replay_result(
            session_ledger, meta=ledger.load_meta(args.session)
        )
        print(
            f"{result.workload} / {result.policy} / {result.rank_source} "
            f"@ tier1={result.tier1_ratio:.4g}: "
            f"epochs={len(result.epochs)} "
            f"hitrate={result.mean_hitrate:.3f} "
            f"migrations={result.total_migrations} "
            f"runtime={result.total_runtime_s:.2f}s"
        )
        return 0
    finally:
        session_ledger.close()


if __name__ == "__main__":
    sys.exit(main())
