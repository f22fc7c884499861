"""Golden access streams: every generator's bytes, pinned.

``tests/tiering/test_golden_digest.py`` reaches two workloads through a
whole simulator; the column builders (``batch_on_vma``,
``AccessBatch.from_pages``/``concat``/``take``, ``interleave``) sit
under all eight.  Each case hashes the five columns — bytes *and*
dtypes — of the population stream and of epochs 0..2 of a small seed-0
instance, and compares with the value the commit before the
built-once columns (PR 18) produced.  A digest only changes when a
generator draws differently; say so in the PR and regenerate with
``python tests/workloads/test_stream_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.memsim import Machine, MachineConfig
from repro.workloads import WORKLOADS, make_workload

EPOCHS = 3
SMALL = dict(footprint_pages=2048, accesses_per_epoch=6_000)

CASES = {name: dict(workload=name) for name in WORKLOADS}
CASES["gups_thp"] = dict(workload="gups", thp=True)

GOLDEN = {
    "data-analytics": "78724965c8c829c17b7cdc8b50d85860f5223bb59cf3d1eb7f6f0439c900418e",
    "data-caching": "d5d6af63232563d6567c0a00c107f8f011666450397c401ff8b2fd14fc027059",
    "graph-analytics": "eb3f3f27118a616e8efcb19626d4eb6d692dd1cb34d8e56c11dde2c7f593cf5c",
    "graph500": "d40d780852b687b54f09385755772380a4be10bf92076875d234588ee0a26a13",
    "gups": "02e742017eb5488b2bb3ab88af57887981a685ad131111ac16510c180d031197",
    # Huge pages change the mapping, not the virtual stream: same bytes.
    "gups_thp": "02e742017eb5488b2bb3ab88af57887981a685ad131111ac16510c180d031197",
    "lulesh": "1d744a201ef5f5b139597dfddd42a41997dc0328241a9b6baa072c38cc2bf44b",
    "web-serving": "477553d619bc8102a3785d6ed0544a5184744bbbfd783983b4e1d307f43e0f14",
    "xsbench": "abe2ca9ded86a271dfa3d2a826675b35d5e56b4d6c1a0449de1c94756518fecf",
}


def stream_digest(spec: dict) -> str:
    spec = dict(spec)
    workload = make_workload(spec.pop("workload"), **SMALL, **spec)
    workload.attach(Machine(MachineConfig.scaled()))
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    batches = [workload.init_stream(rng)]
    batches += [workload.epoch(e, rng) for e in range(EPOCHS)]
    for batch in batches:
        for column in (batch.vaddr, batch.is_store, batch.pid, batch.cpu, batch.ip):
            h.update(column.dtype.str.encode())
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def test_every_registry_workload_is_pinned():
    assert set(CASES) == set(GOLDEN) == set(WORKLOADS) | {"gups_thp"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_access_stream_unchanged(name):
    assert stream_digest(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{stream_digest(CASES[case])}",')
