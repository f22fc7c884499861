"""Command-line interface: ``python -m repro <command>``.

A command is one row of :data:`COMMANDS`; its flags and its handler sit
side by side in its family's module: ``simulate`` (one workload, in this
process), ``experiments`` (the parallel runner; ``--jobs`` / ``--cache-dir``
default to ``$REPRO_JOBS`` / ``$REPRO_CACHE_DIR``, and ``record`` / ``sweep``
take ``all`` for the Table III suite), ``serve`` (the online service),
``loadtest`` (open-loop load against it) and ``ledger`` (its durable
telemetry, offline).  Adding a command is adding a row; ``build_parser``
and ``main`` read nothing else.
"""

from __future__ import annotations

import argparse
from typing import Callable, NamedTuple

from . import experiments, ledger, loadtest, serve, simulate

__all__ = ["COMMANDS", "build_parser", "main"]


class Command(NamedTuple):
    """One row of the command table."""

    name: str
    #: The line ``repro --help`` shows.
    help: str
    #: Takes the parsed arguments, returns the exit code.
    run: Callable[[argparse.Namespace], int]
    #: Adds the command's flags and sub-commands to its parser.
    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None


#: Every sub-command, in ``repro --help`` order.
COMMANDS = (
    Command("list", "list workloads and policies", simulate.list_),
    Command(
        "profile", "profile a workload with TMP",
        simulate.profile, simulate.profile_flags,
    ),
    Command(
        "tier", "run tiered-memory placement", simulate.tier, simulate.tier_flags
    ),
    Command(
        "heatmap", "print Fig. 3/4 heatmaps for a workload",
        simulate.heatmap, simulate.heatmap_flags,
    ),
    Command(
        "sweep", "Fig. 6 grid for one workload (or `all`)",
        experiments.sweep, experiments.sweep_flags,
    ),
    Command(
        "record", "record a run (or `all`) to .npz",
        experiments.record, experiments.record_flags,
    ),
    Command(
        "evaluate", "score policies on a saved recording",
        experiments.evaluate, experiments.evaluate_flags,
    ),
    Command(
        "serve", "run the online profiling service (docs/service.md)",
        serve.run, serve.flags,
    ),
    Command(
        "loadtest",
        "open-loop load test against a live `repro serve` (docs/performance.md)",
        loadtest.run, loadtest.flags,
    ),
    Command(
        "ledger", "inspect a service telemetry ledger (docs/service.md)",
        ledger.run, ledger.flags,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TMP tiered-memory profiling reproduction (IPDPS 2021)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        if command.add_arguments is not None:
            command.add_arguments(p)
        p.set_defaults(run=command.run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)
