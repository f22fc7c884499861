"""Golden digests: the simulated statistics of five small runs, pinned.

A performance change to ``memsim``/``core``/``tiering`` must leave every
simulated number bit-identical.  Each case hashes every field of every
``EpochMetrics`` of a short seed-0 run (the recipe of
``benchmarks/e2e/sim_child.digest``) and compares it with the value the
commit *before* the once-per-batch rework (PR 14) produced — for the
last two, the shapes the service runs and the huge-page branch of the
batched translation, the commit before the machine-wide VMA index
(PR 18).  A digest only changes when the model changes; say so in the
PR and regenerate with ``python tests/tiering/test_golden_digest.py``.
"""

import hashlib
import json

import pytest

from repro.memsim import MachineConfig
from repro.service.telemetry import epoch_metrics_to_dict
from repro.tiering import TieredSimulator
from repro.tiering.policies import POLICIES
from repro.workloads import make_workload

EPOCHS = 6

CASES = {
    "gups_direct_mapped_pml": dict(
        workload="gups",
        # write-aware ranks by the PML write set, so the log feeds the digest.
        policy="write-aware",
        machine=dict(enable_pml=True),
    ),
    "gups_exact_4way": dict(
        workload="gups",
        machine=dict(exact_assoc=True, tlb_ways=4, cache_ways=4),
    ),
    "web_serving_4_slices": dict(
        workload="web-serving",
        workload_kwargs=dict(accesses_per_epoch=20_000),
        epoch_slices=4,
    ),
    # What every ``svc_*`` session of the e2e benchmark runs.
    "gups_service_session": dict(
        workload="gups",
        workload_kwargs=dict(
            footprint_pages=256, accesses_per_epoch=1000, n_processes=8
        ),
    ),
    "gups_thp": dict(workload="gups", workload_kwargs=dict(thp=True)),
}

GOLDEN = {
    "gups_direct_mapped_pml": "158e55a0e2385578d6901418459350923e7dcfc75361a6c2ab7b2aa7be8ca1d0",
    "gups_exact_4way": "8c9d0841050e890c21172eedcc0f00156c74908199109bd6ebb9bc4278a2176d",
    "web_serving_4_slices": "f71b5fb4d346fbc91e7ac199ce62a6ac9c8b8e98b740cf8b17d44e81eae33c67",
    "gups_service_session": "7cce471342bbccf4bbba52a3150c3351f137ad97f2db68bb81a59f1c22b20d6b",
    "gups_thp": "d169a58c6762815629e13ebdf43610ad5969f09769d4c4739700aa0327c43062",
}


def run_digest(spec: dict) -> str:
    sim = TieredSimulator(
        make_workload(spec["workload"], **spec.get("workload_kwargs", {})),
        POLICIES[spec.get("policy", "history")](),
        machine_config=MachineConfig.scaled(**spec.get("machine", {})),
        seed=0,
        epoch_slices=spec.get("epoch_slices", 1),
    )
    h = hashlib.sha256()
    for m in sim.run(EPOCHS).epochs:
        h.update(json.dumps(epoch_metrics_to_dict(m), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_statistics_unchanged(name):
    assert run_digest(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{run_digest(CASES[case])}",')
