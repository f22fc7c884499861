"""``ledger``: read a service telemetry ledger offline — ``list`` the
sessions under a root, ``cat`` one session's records, ``replay`` them
into its ``SimulationResult`` (``docs/service.md``)."""

from ._common import nonnegative_int


def flags(p) -> None:
    sub = p.add_subparsers(dest="ledger_command", required=True)
    lp = sub.add_parser("list", help="list recorded sessions under a root")
    lp.add_argument("dir", help="ledger root (what serve --ledger-dir got)")
    lp = sub.add_parser("cat", help="print one session's records, JSONL")
    lp.add_argument("dir", help="ledger root")
    lp.add_argument("session", help="session id (see `repro ledger list`)")
    lp.add_argument(
        "--from-seq", type=nonnegative_int, default=0, metavar="N",
        help="first seq to print",
    )
    lp.add_argument(
        "--to-seq", type=nonnegative_int, default=None, metavar="N",
        help="stop before this seq",
    )
    lp = sub.add_parser(
        "replay", help="rebuild and summarize the session's SimulationResult"
    )
    lp.add_argument("dir", help="ledger root")
    lp.add_argument("session", help="session id (see `repro ledger list`)")


def run(args) -> int:
    import json

    from ..ledger import Ledger, replay_result

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

