"""Unit tests for the JSON-lines wire format."""

import numpy as np
import pytest

from repro.service.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ServiceError,
    decode_frame,
    encode_frame,
    encode_payload,
    error_response,
    event_frame,
    ok_response,
    splice_event_frame,
)


class TestEncode:
    def test_roundtrip(self):
        frame = {"id": 7, "op": "step", "params": {"session": "s1", "epochs": 2}}
        assert decode_frame(encode_frame(frame)) == frame

    def test_one_line_per_frame(self):
        data = encode_frame({"id": 1, "op": "ping"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_numpy_scalars_coerced(self):
        frame = {"hit": np.float64(0.5), "n": np.int64(3), "arr": np.arange(2)}
        decoded = decode_frame(encode_frame(frame))
        assert decoded == {"hit": 0.5, "n": 3, "arr": [0, 1]}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            encode_frame({"bad": object()})

    def test_oversized_outbound_frame_rejected(self):
        frame = {"id": 1, "ok": True, "result": {"blob": "x" * MAX_LINE_BYTES}}
        with pytest.raises(ServiceError) as exc:
            encode_frame(frame)
        assert exc.value.code == ErrorCode.BAD_REQUEST
        assert "smaller window" in exc.value.message

    def test_outbound_limit_is_resolved_at_call_time(self, monkeypatch):
        frame = {"id": 1, "ok": True, "result": {"blob": "x" * 256}}
        assert encode_frame(frame)  # fine at the default limit
        monkeypatch.setattr("repro.service.protocol.MAX_LINE_BYTES", 64)
        with pytest.raises(ServiceError):
            encode_frame(frame)

    def test_explicit_max_bytes_overrides_default(self):
        frame = {"id": 1, "op": "ping"}
        assert encode_frame(frame, max_bytes=64)
        with pytest.raises(ServiceError):
            encode_frame(frame, max_bytes=4)


class TestDecode:
    def test_invalid_json(self):
        with pytest.raises(ServiceError) as exc:
            decode_frame(b"{nope")
        assert exc.value.code == ErrorCode.BAD_REQUEST

    def test_non_object(self):
        with pytest.raises(ServiceError) as exc:
            decode_frame(b"[1, 2]")
        assert exc.value.code == ErrorCode.BAD_REQUEST

    def test_oversized_frame(self):
        line = b'"' + b"x" * MAX_LINE_BYTES + b'"'
        with pytest.raises(ServiceError) as exc:
            decode_frame(line)
        assert exc.value.code == ErrorCode.BAD_REQUEST


class TestFrames:
    def test_ok_response(self):
        assert ok_response(3, {"a": 1}) == {"id": 3, "ok": True, "result": {"a": 1}}

    def test_error_response_carries_code(self):
        frame = error_response(4, ErrorCode.UNKNOWN_SESSION, "gone")
        assert frame["ok"] is False
        assert frame["error"] == {"code": "unknown_session", "message": "gone"}

    def test_event_frame_shape(self):
        frame = event_frame("epoch", "s1", "s1.sub1", 5, {"epoch": 5}, dropped=2)
        assert frame["event"] == "epoch"
        assert frame["seq"] == 5
        assert frame["dropped"] == 2
        assert "id" not in frame


class TestSplice:
    def test_splice_matches_whole_frame_encode(self):
        data = {"epoch": 3, "hitrate": 0.875, "latency": {"total_s": 1e-3}}
        payload = encode_payload(data)
        spliced = splice_event_frame("epoch", "s1", "s1.sub2", 9, 4, payload)
        whole = encode_frame(event_frame("epoch", "s1", "s1.sub2", 9, data, dropped=4))
        assert spliced == whole

    def test_splice_survives_hostile_strings(self):
        # Quotes, backslashes, newlines and non-ASCII in ids and data —
        # everything json.dumps escapes must escape identically on both
        # paths or the marker-based ledger splitter would misparse.
        data = {'k"ey': 'v"al\\ue\nwith ,"data": inside', "π": "héllo"}
        sid = 's"1\\'
        sub = 's"1.sub,"seq":'
        payload = encode_payload(data)
        spliced = splice_event_frame("error", sid, sub, 0, 0, payload)
        whole = encode_frame(event_frame("error", sid, sub, 0, data))
        assert spliced == whole
        assert decode_frame(spliced)["data"] == data

    def test_encode_payload_coerces_numpy(self):
        data = {"hit": np.float64(0.25), "arr": np.arange(3)}
        payload = encode_payload(data)
        spliced = splice_event_frame("epoch", "s1", "s1.sub1", 1, 0, payload)
        assert decode_frame(spliced)["data"] == {"hit": 0.25, "arr": [0, 1, 2]}
