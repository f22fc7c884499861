"""Tests for the shared file and JSON helpers (cache + ledger reuse)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.ioutil import atomic_output, atomic_write_bytes, canonical, json_default
from repro.ledger import config_key
from repro.runner import RecordSpec, cache_key


class TestAtomicOutput:
    def test_success_renames_into_place(self, tmp_path):
        target = tmp_path / "out.json"
        with atomic_output(target) as tmp:
            tmp.write_bytes(b"{}")
            assert not target.exists()  # nothing visible mid-write
        assert target.read_bytes() == b"{}"
        assert list(tmp_path.iterdir()) == [target]  # tmp cleaned up

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with atomic_output(target) as tmp:
                tmp.write_bytes(b"partial")
                raise RuntimeError("writer died")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_tmp_name_preserves_suffix(self, tmp_path):
        # np.savez appends its own .npz to suffixless paths, so the
        # temp file must keep the target's suffix.
        with atomic_output(tmp_path / "run.npz") as tmp:
            assert tmp.suffix == ".npz"
            tmp.write_bytes(b"x")

    def test_overwrites_existing_target(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_output(target) as tmp:
            tmp.write_bytes(b"new")
        assert target.read_bytes() == b"new"


class TestAtomicWriteBytes:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_durable_roundtrip(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"hello", durable=True)
        assert target.read_bytes() == b"hello"


class TestOneCanonicalFormOneCoercion:
    """Both content hashes are taken over :func:`canonical`.  The config
    key below was computed at 58f467a, when the run cache and the ledger
    each had their own copy — an entry written then must still be found
    now.  The cache key covers every ``MachineConfig`` field, so it was
    taken again when 0.17.0 removed ``assoc_reference`` (a new key by
    the cache's own rule; until then it was 66a27d31…, also from
    58f467a) and when 0.21.0 removed ``enable_ibs`` / ``enable_pebs`` /
    ``enable_lwp`` (086a26ab… until then)."""

    def test_cache_key_is_pinned(self):
        assert cache_key(RecordSpec("gups", epochs=3, seed=0)) == (
            "15b5a5c450aa6687446f0e5692561cf2fc54302b54fc683a2b7c1bdd87e9550e"
        )

    def test_config_key_is_pinned(self):
        config = {
            "workload": "gups",
            "policy": "history",
            "tier1_ratio": 0.125,
            "rank_source": "combined",
            "seed": 7,
            "epoch_slices": 2,
            "workload_kwargs": {"footprint_pages": 512, "accesses_per_epoch": 2000},
            "tmp": {"trace_sample_period": 8},
            "tenant": "t0",
        }
        assert config_key(config) == (
            "65901f470136468731d8e7f6ad8263a107c12deef997896262d0f8f9d99f75ad"
        )

    def test_canonical_form(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: tuple

        assert canonical(
            {"b": Point(np.int64(1), (2, 3)), "a": np.arange(2), 3: None}
        ) == {"3": None, "a": [0, 1], "b": {"x": 1, "y": [2, 3]}}
        with pytest.raises(TypeError, match="stable cache key or ledger config key"):
            canonical({"callback": object()})

    def test_json_default_coerces_numpy_and_nothing_else(self):
        blob = json.dumps({"n": np.float64(0.5), "v": np.arange(3)}, default=json_default)
        assert json.loads(blob) == {"n": 0.5, "v": [0, 1, 2]}
        with pytest.raises(TypeError, match="not JSON-serializable"):
            json.dumps({"o": object()}, default=json_default)

    def test_there_is_one_of_each(self):
        import repro.ledger.ledger
        import repro.ledger.storage
        import repro.obs.log
        import repro.runner.cache
        import repro.service.protocol

        for module in (repro.ledger.ledger, repro.runner.cache):
            assert module.canonical is canonical
            assert not hasattr(module, "_canonical")
        for module in (repro.ledger.storage, repro.service.protocol, repro.obs.log):
            assert module.json_default is json_default
            assert not hasattr(module, "_json_default")
