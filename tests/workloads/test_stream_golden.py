"""Golden access streams: every generator's bytes, pinned.

``tests/tiering/test_golden_digest.py`` reaches two workloads through a
whole simulator; the column builders and ``interleave`` sit under all
eight.  Each case hashes the five columns — bytes *and* dtypes — of the
population stream and of epochs 0..4 of a small seed-0 instance (five
epochs: every phase of web-serving's load wave and graph500's BFS
levels), and compares with the pinned value.  ``colocation`` pins the
interleave of two tenants' interleaved streams.  ``gups_svc`` is the
service session's shape (125 accesses per process: one interleave piece
per stream, where the small cases have three); it also hashes four
draws made after the last epoch, so a generator that draws the same
values but leaves the ``Generator`` elsewhere fails too.  A digest only
changes when a generator draws differently; say so in the PR and
regenerate with ``python tests/workloads/test_stream_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.memsim import Machine, MachineConfig
from repro.workloads import WORKLOADS, MultiWorkload, make_workload

EPOCHS = 5
SMALL = dict(footprint_pages=2048, accesses_per_epoch=6_000)

CASES = {name: dict(workload=name) for name in WORKLOADS}
CASES["gups_thp"] = dict(workload="gups", thp=True)
CASES["colocation"] = dict(tenants=("gups", "web-serving"))
CASES["gups_svc"] = dict(
    workload="gups", footprint_pages=256, accesses_per_epoch=1000, rng_after=True
)

GOLDEN = {
    "colocation": "43b2ffb2df98f33a5f53ff0196bf0797c99650c577682ba5b28af79da143ac55",
    "data-analytics": "0a93bacdc1e6dd7914a4cedfb883d55c8cf764af03ed89d2b9f648f7e7abc1ec",
    "data-caching": "12cc2f2414ca2ac85a954417a941087d2e9124b6dbd20a86490b0abc60804055",
    "graph-analytics": "0836926e029f1981432c2dcf0b0496d5ef7e1b68721ed20d3639189674619c7f",
    "graph500": "3bdf8ceccb8aeeaf463698f14615b3c7d232ebf3fa78e430d3fdfb684cfa0357",
    "gups": "c2402280e9bebd61a550de9d3852766f878f30736896dac5a955800092addddc",
    "gups_svc": "d5796af99e9b92b60b888d8341a9c6c83139657ed9933e28aec44248bbf7a089",
    # Huge pages change the mapping, not the virtual stream: same bytes.
    "gups_thp": "c2402280e9bebd61a550de9d3852766f878f30736896dac5a955800092addddc",
    "lulesh": "347f159aa249e3f84f0726ef21341dbea4da139449fdb8a2ab253371ad1c0c1e",
    "web-serving": "d0d615cfb52a5729eee030192a6638f753c51e0592fe8f16ce416ad2616c550f",
    "xsbench": "6837fc152203b8873a95a730915e1e2b7d4f3ca48091c0c1f93cd260b8c1eccc",
}


def make(spec: dict):
    if "tenants" in spec:
        return MultiWorkload([make_workload(t, **SMALL) for t in spec["tenants"]])
    return make_workload(spec.pop("workload"), **{**SMALL, **spec})


def stream_digest(spec: dict) -> str:
    spec = dict(spec)
    rng_after = spec.pop("rng_after", False)
    workload = make(spec)
    workload.attach(Machine(MachineConfig.scaled()))
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    batches = [workload.init_stream(rng)]
    batches += [workload.epoch(e, rng) for e in range(EPOCHS)]
    for batch in batches:
        for column in (batch.vaddr, batch.is_store, batch.pid, batch.cpu, batch.ip):
            h.update(column.dtype.str.encode())
            h.update(np.ascontiguousarray(column).tobytes())
    if rng_after:
        h.update(rng.random(4).tobytes())
    return h.hexdigest()


def test_every_registry_workload_is_pinned():
    extra = {"gups_thp", "gups_svc", "colocation"}
    assert set(CASES) == set(GOLDEN) == set(WORKLOADS) | extra


@pytest.mark.parametrize("name", sorted(CASES))
def test_access_stream_unchanged(name):
    assert stream_digest(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{stream_digest(CASES[case])}",')
