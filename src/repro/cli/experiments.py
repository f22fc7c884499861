"""``sweep``, ``record``, ``evaluate``: the runner's grids — process-pool
fan-out (``--jobs``) over a content-addressed recording cache
(``--cache-dir``)."""

from pathlib import Path

from ._common import (
    nonnegative_int,
    policy_class,
    record_spec,
    run_cache,
    runner_flags,
    workload_flags,
    workload_names,
)


def sweep_flags(p) -> None:
    workload_flags(p)
    runner_flags(p)
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write per-stage runner timings as JSON (BENCH_runner.json)",
    )


def sweep(args) -> int:
    from ..analysis import DEFAULT_RATIOS, fig6_sweep, format_series

    names = workload_names(args)
    points = fig6_sweep(
        names,
        epochs=args.epochs,
        seed=args.seed,
        ibs_period=args.ibs_period,
        jobs=args.jobs,
        cache=run_cache(args),
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


def record_flags(p) -> None:
    workload_flags(p)
    runner_flags(p)
    p.add_argument(
        "output",
        help="destination .npz path (a directory when workload is `all`)",
    )
    p.add_argument(
        "--no-samples", action="store_true", help="omit raw trace samples (smaller file)"
    )


def record(args) -> int:
    from ..runner import record_suite
    from ..tiering import save_recorded

    names = workload_names(args)
    runs = record_suite(
        [record_spec(args, name) for name in names],
        jobs=args.jobs,
        cache=run_cache(args),
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


def evaluate_flags(p) -> None:
    p.add_argument(
        "recording",
        help=".npz file from `repro record`, or a workload name with "
        "--cache-dir (recorded on miss)",
    )
    runner_flags(p)
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
        "--epochs", type=nonnegative_int, default=8, help="epochs when recording"
    )
    p.add_argument("--seed", type=int, default=0, help="seed when recording")
    p.add_argument(
        "--ibs-period", type=int, default=16, help="trace period when recording"
    )


def evaluate(args) -> int:
    from ..runner import GridCell, evaluate_grid, get_or_record
    from ..tiering import load_recorded
    from ..workloads import WORKLOAD_NAMES

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
        policy_class(policy)

    cache = run_cache(args)
    if Path(args.recording).exists():
        rec = load_recorded(args.recording)
    elif args.recording in WORKLOAD_NAMES and cache is not None:
        # Resolve via the cache: load the content-addressed entry for
        # this exact config, recording it on a miss.
        rec = get_or_record(record_spec(args, args.recording), cache=cache)
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

