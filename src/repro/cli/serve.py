"""``serve``: the online multi-session profiling service (JSON lines
over TCP or a unix socket; ``docs/service.md``, ``docs/observability.md``)."""

import os

from ._common import nonnegative_int, positive_int


def flags(p) -> None:
    p.add_argument("--host", default="127.0.0.1", help="bind address (TCP mode)")
    p.add_argument(
        "--port", type=int, default=7790, help="TCP port (0 picks a free one)"
    )
    # dest names are ServiceServer's keyword names: run passes them
    # through by name.
    p.add_argument(
        "--socket", dest="socket_path", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    p.add_argument(
        "--max-sessions", type=positive_int, default=16,
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
        "--step-workers", type=positive_int, default=None, metavar="N",
        help="worker threads executing session steps",
    )
    p.add_argument(
        "--workers", type=nonnegative_int, default=None, metavar="N",
        help="sticky session worker processes (0 = step in-process; "
        "default: $REPRO_SERVICE_WORKERS or the usable CPU count, "
        "0 when that is 1)",
    )
    p.add_argument(
        "--metrics-port", type=nonnegative_int, default=None, metavar="PORT",
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
        "--ledger-retention-bytes", type=positive_int, default=None,
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
        "--tenant-quota", type=positive_int, default=None, metavar="N",
        help="max live sessions per tenant (create_session's tenant param); "
        "over-quota creates are rejected with the `overloaded` error code",
    )
    p.add_argument(
        "--max-inflight-steps", type=positive_int, default=None, metavar="N",
        help="global cap on concurrently executing steps; excess steps are "
        "rejected with `overloaded` instead of queueing (load shedding)",
    )


def run(args) -> int:
    import asyncio
    import inspect

    from ..obs import log as obs_log
    from ..service import ServiceServer

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

    async def serve() -> None:
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

    asyncio.run(serve())
    return 0

