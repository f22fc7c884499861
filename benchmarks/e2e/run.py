"""End-to-end benchmark: six workloads, one command.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload and prints every metric by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without ``--workload`` it runs all six, untraced
and then traced, ``--sets`` times, and ``--out`` keeps the numbers
(``BENCH_e2e.json`` is two such sets).

Operation counts are ``rate x --seconds``, not timed, so the simulated
statistics of two runs with one seed are identical; at the default
``--seconds`` a run measures for about that long on the baseline box.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import common

SIM_WORKLOADS = ("sim_sparse", "sim_exact", "sim_multiproc")
SVC_WORKLOADS = ("svc_inproc", "svc_pool", "svc_durable")
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2
EXIT_INVALID = 3
ONION_STEPS_PER_S = 30  # x --seconds, per depth


def load_contract() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(common.HERE, script), *args],
        env=common.child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def run_sim(name: str, seed: int, seconds: float, trace: int, spans_out) -> dict:
    """Fresh children: set-up is timed from spawn to the ready line."""
    setups = []
    args = [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans_out:
        args += ["--spans-out", os.path.abspath(spans_out)]
    repeats = 1 if trace else common.SETUPS
    for i in range(repeats):
        last = i == repeats - 1
        t0 = time.perf_counter()
        child = spawn("sim_child.py", *args, *([] if last else ["--setup-only"]))
        try:
            common.read_json_line(child.stdout)
            setups.append(time.perf_counter() - t0)
            report = common.read_json_line(child.stdout) if last else None
        finally:
            common.stop_process(child)
    if not trace:
        report["metrics"]["setup_s"] = common.metric(
            statistics.median(setups), "s", len(setups)
        )
    return report


def run_svc(name: str, seed: int, seconds: float, trace: int) -> dict:
    import svc  # imports repro and numpy: only when a service runs

    report = svc.run(name, seed, seconds, trace)
    if trace:
        workers = 0 if name == "svc_inproc" else 1
        with common.run_dir() as directory:
            child = spawn(
                "onion.py", "--seed", str(seed), "--workers", str(workers),
                "--steps", str(common.scaled(ONION_STEPS_PER_S, seconds, 30)),
                "--dir", directory,
            )
            try:
                onion = common.read_json_line(child.stdout)
            finally:
                common.stop_process(child)
        report["metrics"].update(onion["metrics"])
        report["checks"].update(onion["checks"])
        report["attempted"] += len(onion["checks"])
        report["failed"] += sum(not ok for ok in onion["checks"].values())
    return report


def run_workload(name, seed, seconds, trace, spans_out=None) -> dict:
    if name in SIM_WORKLOADS:
        report = run_sim(name, seed, seconds, trace, spans_out)
    else:
        report = run_svc(name, seed, seconds, trace)
    report.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return report


def contract_metrics(report: dict, contract: dict) -> dict:
    """Exactly the names BENCHMARK.json lists for this pass; a layer the
    workload never enters reports 0."""
    if report["trace"]:
        listed, default = contract["per_layer"], {"value": 0.0}
    else:
        listed, default = contract["end_to_end"], None
    return {
        m["name"]: {
            "value": (report["metrics"].get(m["name"]) or default)["value"],
            "unit": m["unit"],
        }
        for m in listed
    }


def print_report(report: dict) -> None:
    for name, m in report["metrics"].items():
        spread = (
            f"  blocks {m['block_min']:.6g} / {m['block_median']:.6g} / "
            f"{m['block_max']:.6g}"
            if "block_min" in m
            else ""
        )
        print(
            f"{report['workload']:14s} {name:34s} {m['value']:>14.6g} "
            f"{m['unit']:7s} n={m['n']}{spread}"
        )
    for check, ok in report["checks"].items():
        print(f"{report['workload']:14s} check {check}: {'ok' if ok else 'FAILED'}")
    if "digest" in report:
        print(f"{report['workload']:14s} digest {report['digest']}")
    print(
        f"{report['workload']:14s} ops_attempted={report['attempted']} "
        f"ops_failed={report['failed']}"
    )


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_suite(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    sets = []
    failed = 0
    for _ in range(args.sets):
        results = {}
        for trace in (0, 1):
            for name in names:
                report = run_workload(name, args.seed, args.seconds, trace)
                print_report(report)
                failed += report["failed"]
                entry = results.setdefault(name, {"checks": {}})
                entry["per_layer" if trace else "end_to_end"] = report["metrics"]
                entry["checks"].update(report["checks"])
                entry["traced" if trace else "untraced"] = {
                    k: report[k]
                    for k in ("attempted", "failed", "epochs", "digest")
                    if k in report
                }
        sets.append(results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "environment": environment(),
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "sets": sets,
                },
                fh,
                indent=1,
            )
            fh.write("\n")
    return EXIT_INCORRECT if failed else 0


def terminate(signum, frame):
    raise KeyboardInterrupt  # unwinds through every ``finally``


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SIM_WORKLOADS + SVC_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=common.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans-out", help="dump a sim_* pass's spans (JSON lines)")
    parser.add_argument("--sets", type=int, default=1, help="suite repetitions")
    parser.add_argument("--out", help="suite results file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program to measure: {common.SRC}/repro is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    signal.signal(signal.SIGTERM, terminate)
    contract = load_contract()
    if args.workload is None:
        return run_suite(args, contract)

    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.spans_out
        )
    except common.InvalidRun as exc:
        print(f"INVALID RUN, nothing reported: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print_report(report)
    correct = report["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": contract_metrics(report, contract),
            }
        )
    )
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
