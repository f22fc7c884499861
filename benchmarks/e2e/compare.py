"""Compare two result files of ``run.py --out``, metric by metric.

``compare.py A.json B.json`` takes A as the base and B as the change;
``compare.py A.json`` alone compares the first half of A's sets with
the second half (the repeatability check of the committed baseline).

For every workload and end-to-end metric it prints both medians, the
ratio with its base, how much worse B is as a share of the base, the
bound from ``BENCHMARK.json`` and a verdict:

``ok``          B is no worse than A by more than the bound
``worse``       it is
``unresolved``  the runs of one side spread wider than the bound, and
                not every run of B reads better than every run of A
``changed``     a simulated statistic differs between runs of one seed
                and length, where it must repeat exactly

Exit code 1 when any row is ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_contract

#: Simulated, not timed: identical for one seed and one run length.
SIMULATED = ("tier1_hitrate", "modelled_overhead_pct")


def spread(values) -> float:
    """Quartile distance (the range below four runs) over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    return width / abs(statistics.median(values))


def verdict(base, new, metric: dict, same_inputs: bool) -> dict:
    lower = metric["better"] == "lower"
    a, b = statistics.median(base), statistics.median(new)
    worse_by = (b / a - 1.0) if lower else (1.0 - b / a)
    widest = max(spread(base), spread(new))
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if metric["name"] in SIMULATED and same_inputs:
        status = "ok" if set(base) == set(new) and len(set(base)) == 1 else "changed"
    elif worse_by > metric["bound"]:
        status = "worse"
    elif widest > metric["bound"] and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return {
        "base": a,
        "new": b,
        "ratio": b / a,
        "worse_by": worse_by,
        "spread": widest,
        "status": status,
    }


def values_of(sets, workload: str, name: str) -> list[float]:
    return [s[workload]["end_to_end"][name]["value"] for s in sets]


def compare(a: dict, b: dict, a_sets, b_sets, contract: dict) -> list[dict]:
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            row = verdict(
                values_of(a_sets, workload, metric["name"]),
                values_of(b_sets, workload, metric["name"]),
                metric,
                same_inputs,
            )
            row.update(workload=workload, metric=metric["name"], bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    if len(files) == 1:
        sets = files[0]["sets"]
        if len(sets) < 2:
            print("one file needs at least two sets", file=sys.stderr)
            return 2
        a = b = files[0]
        a_sets, b_sets = sets[: len(sets) // 2], sets[len(sets) // 2 :]
    else:
        a, b = files
        a_sets, b_sets = a["sets"], b["sets"]

    rows = compare(a, b, a_sets, b_sets, load_contract())
    print(
        f"{'workload':14s} {'metric':22s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:14s} {r['metric']:22s} {r['base']:12.5g} "
            f"{r['new']:12.5g} {r['ratio']:9.4f} {r['worse_by']:+9.4f} "
            f"{r['spread']:7.4f} {r['bound']:6.2f}  {r['status']}"
        )
    counts = {s: sum(r["status"] == s for r in rows) for s in
              ("ok", "worse", "unresolved", "changed")}
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["worse"] or counts["changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
