"""The service wire protocol: one JSON object per line (UTF-8).

Three frame shapes travel over a connection:

Request (client → server)::

    {"id": 1, "op": "create_session", "params": {...}}

Response (server → client, exactly one per request)::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"code": "unknown_session",
                                     "message": "..."}}

Event (server → client, pushed after a ``subscribe``)::

    {"event": "epoch", "session": "s1", "subscription": "sub1",
     "seq": 4, "dropped": 0, "data": {...}}

``id`` is caller-chosen and echoed verbatim; events carry no ``id``.
A client distinguishes the two by key: frames with ``id`` answer a
request, frames with ``event`` belong to a subscription.  Numpy
scalars are coerced to plain ints/floats on encode so every frame is
vanilla JSON.
"""

from __future__ import annotations

import json

from ..ioutil import json_default

__all__ = [
    "ErrorCode",
    "MAX_LINE_BYTES",
    "ServiceError",
    "decode_frame",
    "encode_frame",
    "encode_payload",
    "error_response",
    "event_frame",
    "ok_response",
    "splice_event_frame",
]

#: Upper bound on one frame's encoded size; longer lines are rejected.
MAX_LINE_BYTES = 1 << 20


class ErrorCode:
    """Stable machine-readable error codes carried in error responses."""

    BAD_REQUEST = "bad_request"      # unparseable / malformed frame
    BAD_PARAMS = "bad_params"        # well-formed but invalid params
    UNKNOWN_OP = "unknown_op"
    UNKNOWN_SESSION = "unknown_session"
    AT_CAPACITY = "at_capacity"      # admission limit reached
    OVERLOADED = "overloaded"        # backpressure: quota or in-flight limit
    SHUTTING_DOWN = "shutting_down"  # server is draining
    WORKER_CRASHED = "worker_crashed"  # session lost to a dead worker
    EVICTED = "evicted"              # session closed by the idle TTL
    SERVER_DRAIN = "server_drain"    # session closed by graceful drain
    INTERNAL = "internal"


class ServiceError(Exception):
    """A protocol-level failure with a stable error code.

    Raised server-side to produce an error response, and client-side
    when a response carries ``ok: false``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(frame: dict, max_bytes: int | None = None) -> bytes:
    """One frame → one newline-terminated UTF-8 JSON line.

    Outbound frames obey the same size bound the receiving side
    enforces in :func:`decode_frame`: an encoded line longer than
    ``max_bytes`` (default :data:`MAX_LINE_BYTES`, resolved at call
    time) raises a structured ``bad_request`` ``ServiceError`` instead
    of emitting a frame the peer's own decoder would refuse.
    """
    line = (
        json.dumps(frame, separators=(",", ":"), default=json_default) + "\n"
    ).encode("utf-8")
    limit = MAX_LINE_BYTES if max_bytes is None else max_bytes
    if len(line) > limit:
        raise ServiceError(
            ErrorCode.BAD_REQUEST,
            f"encoded frame is {len(line)} bytes, over the {limit}-byte "
            f"line limit; request a smaller window",
        )
    return line


def encode_payload(data) -> bytes:
    """Encode one frame's ``data`` dict to compact JSON payload bytes.

    Produces exactly the bytes ``encode_frame`` would place after
    ``"data":`` — same separators, same numpy coercion — so the result
    can be spliced into an envelope (:func:`splice_event_frame`) or a
    ledger record and remain bit-identical to a whole-dict encode.
    """
    return json.dumps(data, separators=(",", ":"), default=json_default).encode(
        "utf-8"
    )


def splice_event_frame(
    event: str,
    session_id: str,
    subscription_id: str,
    seq: int,
    dropped: int,
    payload: bytes,
) -> bytes:
    """Build an encoded event line around pre-encoded payload bytes.

    Bit-identical to ``encode_frame(event_frame(...))`` with the same
    arguments: the envelope keys are written in :func:`event_frame`
    insertion order with compact separators, and ``payload`` must come
    from :func:`encode_payload` (or a ledger record that stored it).
    The whole point is that the payload — the dominant cost — is
    encoded once and shared across every subscriber's envelope.
    """
    return b"".join(
        (
            b'{"event":',
            json.dumps(event).encode("utf-8"),
            b',"session":',
            json.dumps(session_id).encode("utf-8"),
            b',"subscription":',
            json.dumps(subscription_id).encode("utf-8"),
            b',"seq":',
            str(int(seq)).encode("ascii"),
            b',"dropped":',
            str(int(dropped)).encode("ascii"),
            b',"data":',
            payload,
            b"}\n",
        )
    )


def decode_frame(line: bytes | str) -> dict:
    """One received line → frame dict; malformed input is BAD_REQUEST."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, f"frame exceeds {MAX_LINE_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(ErrorCode.BAD_REQUEST, f"invalid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ServiceError(
            ErrorCode.BAD_REQUEST, "frame must be a JSON object"
        )
    return frame


def ok_response(request_id, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def event_frame(
    event: str,
    session_id: str,
    subscription_id: str,
    seq: int,
    data: dict,
    dropped: int = 0,
) -> dict:
    return {
        "event": event,
        "session": session_id,
        "subscription": subscription_id,
        "seq": seq,
        "dropped": dropped,
        "data": data,
    }
