"""``loadtest``: open-loop load against a live ``repro serve`` — one
that is already running, or a throwaway one spawned for the run
(``docs/performance.md``)."""

import os
import sys

from ._common import positive_int


def flags(p) -> None:
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
        "--sessions", type=positive_int, default=200,
        help="total sessions to launch",
    )
    p.add_argument(
        "--arrival-rate", type=float, default=100.0, metavar="PER_S",
        help="mean session arrivals per second (Poisson, open loop)",
    )
    p.add_argument(
        "--steps", type=positive_int, default=3, metavar="N",
        help="steps per session",
    )
    p.add_argument(
        "--step-epochs", type=positive_int, default=1, metavar="N",
        help="epochs per step op",
    )
    p.add_argument("--workload", default="gups", help="workload for every session")
    p.add_argument(
        "--footprint-pages", type=positive_int, default=256,
        help="per-session workload footprint (kept small so one box can "
        "host hundreds of concurrent sessions)",
    )
    p.add_argument(
        "--accesses-per-epoch", type=positive_int, default=1000,
        help="per-session accesses simulated each epoch",
    )
    p.add_argument(
        "--connections", type=positive_int, default=4,
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
        "--tenants", type=positive_int, default=1,
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


def run(args) -> int:
    import json
    import signal
    import tempfile

    from ..loadgen import LoadTestConfig, run_load_test, write_report

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

