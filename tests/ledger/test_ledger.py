"""Tests for the ledger root: provenance, meta, session directories."""

import json

import numpy as np
import pytest

from repro.ledger import Ledger, config_key
from repro.service.protocol import encode_payload


class TestConfigKey:
    def test_stable_across_key_order(self):
        a = config_key({"workload": "gups", "seed": 3})
        b = config_key({"seed": 3, "workload": "gups"})
        assert a == b

    def test_different_configs_differ(self):
        assert config_key({"seed": 1}) != config_key({"seed": 2})

    def test_numpy_scalars_coerce(self):
        assert config_key({"seed": np.int64(3)}) == config_key({"seed": 3})

    def test_non_json_values_are_loud(self):
        with pytest.raises(TypeError):
            config_key({"workload": object()})


class TestSessions:
    def test_create_records_meta(self, tmp_path):
        root = Ledger(tmp_path)
        sl = root.create_session("s1", {"workload": "gups", "seed": 1})
        sl.append_many([("epoch", encode_payload({"epoch": 0}))])
        sl.close()
        meta = root.load_meta("s1")
        assert meta["session"] == "s1"
        assert meta["config"] == {"workload": "gups", "seed": 1}
        assert meta["config_key"] == config_key({"workload": "gups", "seed": 1})

    def test_leftover_directory_is_archived_not_appended(self, tmp_path):
        root = Ledger(tmp_path)
        sl = root.create_session("s1", {"workload": "gups"})
        sl.append_many([("epoch", encode_payload({"epoch": 0}))])
        sl.close()
        # A new server life reuses the id; the fresh ledger starts at 0
        # and the stale records live on under an archived name.
        sl2 = root.create_session("s1", {"workload": "xsbench"})
        assert sl2.next_seq == 0
        sl2.close()
        archived = [
            p for p in tmp_path.iterdir() if p.name.startswith("s1.")
        ]
        assert len(archived) == 1

    def test_open_session_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Ledger(tmp_path).open_session("nope")

    def test_checkpoint_roundtrip_and_clear(self, tmp_path):
        root = Ledger(tmp_path)
        sl = root.create_session("s1", {"workload": "gups", "seed": 1})
        sl.append_many([("epoch", encode_payload({"epoch": 0}))])
        sl.close()
        marker = root.write_checkpoint(
            "s1", {"config_key": "abc", "epochs": 1, "tenant": "acme"}
        )
        assert marker["session"] == "s1"
        loaded = root.load_checkpoint("s1")
        assert loaded["epochs"] == 1
        assert loaded["tenant"] == "acme"
        assert json.loads(root.checkpoint_path("s1").read_text()) == loaded
        assert root.clear_checkpoint("s1") is True
        assert root.load_checkpoint("s1") is None
        assert root.clear_checkpoint("s1") is False  # already gone

    def test_checkpoint_needs_session_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Ledger(tmp_path).write_checkpoint("ghost", {"epochs": 0})

    def test_checkpoint_corrupt_is_none(self, tmp_path):
        root = Ledger(tmp_path)
        root.create_session("s1", {"workload": "gups"}).close()
        root.checkpoint_path("s1").write_text("{not json")
        assert root.load_checkpoint("s1") is None

    def test_load_meta_corrupt_is_none(self, tmp_path):
        root = Ledger(tmp_path)
        sl = root.create_session("s1", {"workload": "gups"})
        sl.close()
        (tmp_path / "s1" / "meta.json").write_text("{not json")
        assert root.load_meta("s1") is None

    def test_list_sessions_summarizes(self, tmp_path):
        root = Ledger(tmp_path)
        for i, name in enumerate(["gups", "xsbench"]):
            sl = root.create_session(f"s{i + 1}", {"workload": name})
            for e in range(i + 1):
                sl.append_many([("epoch", encode_payload({"epoch": e}))])
            sl.close()
        listed = root.list_sessions()
        assert [s["session"] for s in listed] == ["s1", "s2"]
        assert [s["workload"] for s in listed] == ["gups", "xsbench"]
        assert [s["epochs"] for s in listed] == [1, 2]
        # Listing is read-only: no stray segment files appear.
        for entry in listed:
            segs = list((tmp_path / entry["session"]).glob("seg-*.jsonl"))
            assert all(p.stat().st_size > 0 for p in segs)

    def test_meta_is_valid_json_on_disk(self, tmp_path):
        root = Ledger(tmp_path)
        root.create_session("s1", {"workload": "gups"}).close()
        meta = json.loads((tmp_path / "s1" / "meta.json").read_text())
        assert meta["format"] >= 1


#: What a client may put in ``resume_session``'s ``session`` field.
BAD_IDS = ["../x", "/abs", "a/b", "..", ".", "", "s1\x00", "s1\n", 7, ["s1"], None]


class TestSessionIdValidation:
    """Every path under the root is derived from a validated id: an id
    is one well-formed path component or it is refused, before any file
    is touched."""

    @pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
    def test_no_accessor_derives_a_path_from_a_bad_id(self, tmp_path, bad):
        root = Ledger(tmp_path / "root")
        outside = tmp_path / "x"
        outside.mkdir()
        (outside / "meta.json").write_text('{"config": {}}')
        (outside / "checkpoint.json").write_text('{"session": "x"}')
        for access in (
            root.session_dir,
            root.load_meta,
            root.load_checkpoint,
            root.clear_checkpoint,
            root.open_session,
            root.checkpoint_path,
            root.snapshot_path,
            root.clear_snapshot,
            lambda sid: root.create_session(sid, {"workload": "gups"}),
            lambda sid: root.write_checkpoint(sid, {"epochs": 0}),
        ):
            with pytest.raises(ValueError, match="invalid session id"):
                access(bad)
        assert sorted(p.name for p in outside.iterdir()) == [
            "checkpoint.json", "meta.json"
        ]
        assert list((tmp_path / "root").iterdir()) == []

    def test_minted_and_archived_ids_are_accepted(self, tmp_path):
        root = Ledger(tmp_path)
        for sid in ("s1", "s12.1712345678901", "tenant-a_7"):
            assert root.session_dir(sid) == tmp_path / sid

    def test_listing_skips_directories_no_id_could_name(self, tmp_path):
        root = Ledger(tmp_path)
        root.create_session("s1", {"workload": "gups"}).close()
        (tmp_path / ".trash").mkdir()
        assert [s["session"] for s in root.list_sessions()] == ["s1"]

    def test_snapshot_outlives_the_marker_and_clears_on_request(self, tmp_path):
        root = Ledger(tmp_path)
        root.create_session("s1", {"workload": "gups"}).close()
        root.write_checkpoint("s1", {"epochs": 0})
        assert root.snapshot_path("s1").parent == root.checkpoint_path("s1").parent
        root.snapshot_path("s1").write_bytes(b"state")
        assert root.clear_checkpoint("s1") is True
        assert root.snapshot_path("s1").exists()
        assert root.clear_snapshot("s1") is True
        assert root.clear_snapshot("s1") is False


def _tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


class TestReadersWriteNothing:
    def test_listing_reading_and_the_cli_leave_every_byte(self, tmp_path, capsys):
        """A ledger holding a torn tail, an interior segment with a
        stale ``.idx`` an older writer left and a covered segment whose
        unlink never happened: no reader repairs any of it."""
        import shutil

        from repro.cli import main
        from repro.service.session import ProfilingSession

        params = {
            "workload": "gups",
            "seed": 3,
            "workload_kwargs": {"footprint_pages": 512, "accesses_per_epoch": 2000},
        }
        root = Ledger(tmp_path / "root", segment_bytes=768)
        session = ProfilingSession("s1", **params)
        session.attach_ledger(root.create_session("s1", params, info=session.info()))
        session.sim.step(13)
        session.close()
        sdir = tmp_path / "root" / "s1"
        segments = sorted(sdir.glob("seg-*.jsonl"))
        assert len(segments) >= 5 and segments[-1].stat().st_size > 0
        # Retention drops the two oldest segments; restore the second as
        # if the process died between the two unlinks.
        kept = tmp_path / "kept"
        kept.mkdir()
        for path in sdir.glob(segments[1].stem + ".*"):
            shutil.copy(path, kept)
        compacting = Ledger(
            tmp_path / "root",
            segment_bytes=768,
            retention_bytes=sum(p.stat().st_size for p in segments[2:-1]),
        ).open_session("s1")
        assert compacting.compact() == 2
        compacting.close()
        for path in kept.iterdir():
            shutil.copy(path, sdir)
        segments[3].with_suffix(".idx").write_text('{"offsets":[0,7]}')
        with open(segments[-1], "ab") as fh:
            fh.write(b'{"seq":99,"event":"epo')  # killed mid-append
        before = _tree(tmp_path / "root")

        assert [s["epochs"] for s in Ledger(tmp_path / "root").list_sessions()] == [13]
        for reader_root in (
            Ledger(tmp_path / "root"),
            Ledger(tmp_path / "root", segment_bytes=768, retention_bytes=1),
        ):
            reader_root.list_sessions()
            reader = reader_root.open_session("s1")
            records = list(reader.read())
            assert [r["seq"] for r in records] == list(
                range(reader.first_seq, reader.next_seq)
            )
            mid = (reader.first_seq + reader.next_seq) // 2
            assert [seq for seq, _, _ in reader.read_encoded(mid)] == list(
                range(mid, reader.next_seq)
            )
            assert reader.epoch_count == 13
            reader.close()
        for argv in (["list"], ["cat", "s1"], ["replay", "s1"]):
            assert main(["ledger", argv[0], str(tmp_path / "root"), *argv[1:]]) == 0
        assert "epochs=13" in capsys.readouterr().out
        assert _tree(tmp_path / "root") == before
