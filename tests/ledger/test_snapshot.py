"""The snapshot envelope: nothing is handed back unverified."""

import json

import pytest

import repro
from repro.ledger import SnapshotError, read_snapshot, write_snapshot

PAYLOAD = bytes(range(256)) * 8
WRITTEN = dict(config_key="k1", epochs=40, frame_seq=43)
WANTED = dict(config_key="k1", max_epochs=40)


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, PAYLOAD, durable=False, **WRITTEN)
    return path


def _rewrite_header(path, **changes):
    line, _, payload = path.read_bytes().partition(b"\n")
    header = {**json.loads(line), **changes}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _refusal(path, **wanted):
    with pytest.raises(SnapshotError) as exc:
        read_snapshot(path, **{**WANTED, **wanted})
    return exc.value.reason


def test_round_trip_and_self_describing_header(path):
    header, payload = read_snapshot(path, **WANTED)
    assert payload == PAYLOAD
    assert header["repro"] == repro.__version__
    assert {"format", "python", "numpy", "sha256"} <= set(header)
    assert (header["config_key"], header["epochs"], header["frame_seq"]) == (
        "k1", 40, 43
    )
    assert header["payload_bytes"] == len(PAYLOAD)
    # A later target is fine: the snapshot is at or before it.
    assert read_snapshot(path, config_key="k1", max_epochs=45)[1] == PAYLOAD
    assert not list(path.parent.glob(".*"))  # no temp file left behind


def test_missing(tmp_path):
    assert _refusal(tmp_path / "snapshot.bin") == "missing"


def test_truncated_by_one_byte(path):
    path.write_bytes(path.read_bytes()[:-1])
    assert _refusal(path) == "short"


def test_one_payload_byte_flipped(path):
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01
    path.write_bytes(bytes(blob))
    assert _refusal(path) == "corrupt"


def test_trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"x")
    assert _refusal(path) == "corrupt"


@pytest.mark.parametrize(
    "field, value",
    [("repro", "99.0.0"), ("python", "2.7.18"), ("numpy", "0.1"), ("format", 0)],
)
def test_written_by_another_build(path, field, value):
    _rewrite_header(path, **{field: value})
    assert _refusal(path) == "version"


def test_another_sessions_snapshot(path):
    assert _refusal(path, config_key="k2") == "config_key"


def test_taken_after_the_epoch_wanted(path):
    assert _refusal(path, max_epochs=39) == "ahead"


@pytest.mark.parametrize(
    "blob",
    [b"", b"no newline at all", b"not json\nrest", b"[1, 2]\nrest", b"{}\nrest",
     b"x" * 5000 + b"\nrest"],
    ids=["empty", "no-newline", "not-json", "not-an-object", "no-fields", "huge"],
)
def test_unreadable_header(path, blob):
    path.write_bytes(blob)
    assert _refusal(path) == "corrupt"


def test_header_with_a_wrong_typed_field(path):
    _rewrite_header(path, payload_bytes="many")
    assert _refusal(path) == "corrupt"


def test_failed_write_leaves_the_previous_snapshot(path, monkeypatch):
    import repro.ioutil

    def enospc(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(repro.ioutil.os, "replace", enospc)
    with pytest.raises(OSError):
        write_snapshot(path, b"newer", durable=False, **WRITTEN)
    monkeypatch.undo()
    assert read_snapshot(path, **WANTED)[1] == PAYLOAD
    assert not list(path.parent.glob(".*"))
