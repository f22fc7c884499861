"""What the command modules share: argument types, the flag groups
several commands take, and the helpers that turn parsed arguments into
library objects.

Building the parser imports no library package, and so no numpy: the
command modules import the simulator, the runner, the service and the
load generator inside the handlers and helpers that use them.
"""

from __future__ import annotations

import argparse
import os


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def runner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="parallel worker processes (default: $REPRO_JOBS or cpu count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed recorded-run cache (default: $REPRO_CACHE_DIR)",
    )


def workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", help="workload name (see `repro list`)")
    p.add_argument("--epochs", type=nonnegative_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ibs-period", type=int, default=16,
        help="trace sampling period (scaled; 64=default rate, 16=4x, 8=8x)",
    )


def machine_config(args):
    from ..memsim import MachineConfig

    return MachineConfig.scaled(ibs_period=args.ibs_period)


def record_spec(args, name: str):
    from ..runner import RecordSpec

    return RecordSpec(
        name, machine_config=machine_config(args), epochs=args.epochs, seed=args.seed
    )


def workload(args):
    from ..workloads import resolve_workload

    return resolve_workload(args.workload, error=SystemExit)()


def workload_names(args) -> list[str]:
    """Resolve the workload positional, allowing ``all`` for the suite."""
    from ..workloads import WORKLOAD_NAMES, resolve_workload

    if args.workload == "all":
        return list(WORKLOAD_NAMES)
    resolve_workload(args.workload, error=SystemExit, also=("all",))
    return [args.workload]


def policy_class(name: str):
    from ..tiering.policies import resolve_policy

    return resolve_policy(name, error=SystemExit)


def run_cache(args):
    from ..runner import RunCache

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return RunCache(cache_dir) if cache_dir else None
