"""Wire protocol of the timing-query service.

Newline-delimited JSON-RPC: every request and every response is exactly
one JSON object on one line.  Requests carry ``id`` (echoed back,
any JSON scalar), ``method`` and ``params``; responses carry either
``result`` or ``error``::

    -> {"id": 1, "method": "open_session", "params": {"netlist": "s27"}}
    <- {"id": 1, "result": {"session": "a3f9...", ...}}
    -> {"id": 2, "method": "analyze", "params": {"session": "bogus"}}
    <- {"id": 2, "error": {"code": 404, "kind": "unknown_session", ...}}

Error objects map the analysis runtime's exception taxonomy
(:mod:`repro.errors`) onto stable codes; where a failure corresponds to
a CLI exit code, ``error.data.exit_code`` carries it so socket clients
and shell pipelines agree on the classification.  A ``busy`` rejection
(the execution layer's backpressure) always carries
``error.data.retry_after`` seconds -- the service never drops a request
without telling the client when to come back.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import (
    EXIT_DEGRADED_OVER_BUDGET,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_FAULT,
    DegradationBudgetError,
    InputError,
    ReproError,
)

PROTOCOL_VERSION = "repro.service/1"
FLEET_PROTOCOL_VERSION = "repro.fleet/1"

# Stable error codes (HTTP-flavoured where a familiar one exists).
ERR_BAD_REQUEST = 400  # malformed request line / envelope
ERR_UNKNOWN_SESSION = 404
ERR_UNKNOWN_METHOD = 405
ERR_DEADLINE = 408  # per-request deadline exceeded
ERR_INPUT = 422  # InputError from the engines (exit code 2)
ERR_BUSY = 429  # backpressure reject; data carries retry_after
ERR_INTERNAL = 500  # internal fault (exit code 4)
ERR_DEGRADED = 503  # degraded-arc budget exceeded (exit code 3)

# error code -> (kind, CLI exit code or None)
ERROR_KINDS = {
    ERR_BAD_REQUEST: ("bad_request", None),
    ERR_UNKNOWN_SESSION: ("unknown_session", None),
    ERR_UNKNOWN_METHOD: ("unknown_method", None),
    ERR_DEADLINE: ("deadline_exceeded", None),
    ERR_INPUT: ("input_error", EXIT_INPUT_ERROR),
    ERR_BUSY: ("busy", None),
    ERR_INTERNAL: ("internal_fault", EXIT_INTERNAL_FAULT),
    ERR_DEGRADED: ("degraded_over_budget", EXIT_DEGRADED_OVER_BUDGET),
}


class ServiceError(ReproError):
    """A structured service-level failure, mappable to a wire error."""

    def __init__(self, code: int, message: str, **data):
        super().__init__(message)
        self.code = code
        self.kind = ERROR_KINDS.get(code, ("internal_fault", None))[0]
        self.data = data


class ServiceTransportError(ReproError):
    """The connection itself failed (refused, reset, closed mid-call) --
    distinct from :class:`ServiceCallError`, which means the server
    *answered* with an error.  Retry layers treat transport failures as
    retryable-after-reconnect; protocol errors are final."""


class ServiceCallError(ReproError):
    """Client-side view of a wire error response."""

    def __init__(self, code: int, kind: str, message: str, data: dict | None = None):
        super().__init__(f"{kind} ({code}): {message}")
        self.code = code
        self.kind = kind
        self.message = message
        self.data = data or {}

    @classmethod
    def from_wire(cls, error: dict) -> "ServiceCallError":
        """Rebuild from a wire error object; a field the object lacks
        takes the internal-fault default."""
        return cls(
            code=error.get("code", ERR_INTERNAL),
            kind=error.get("kind", "internal_fault"),
            message=error.get("message", ""),
            data=error.get("data") or {},
        )

    @property
    def retry_after(self) -> float | None:
        value = self.data.get("retry_after")
        return float(value) if value is not None else None


def error_payload(exc: BaseException) -> dict:
    """Map an exception onto the wire error object."""
    if isinstance(exc, ServiceCallError):
        # A proxied upstream error (the fleet router forwarding a shard's
        # answer): pass it through verbatim, never re-wrap as 500.
        return {
            "code": exc.code,
            "kind": exc.kind,
            "message": exc.message,
            "data": dict(exc.data),
        }
    if isinstance(exc, ServiceError):
        code, data = exc.code, dict(exc.data)
    elif isinstance(exc, DegradationBudgetError):
        code, data = ERR_DEGRADED, {"degraded": exc.degraded, "budget": exc.budget}
    elif isinstance(exc, InputError):
        code, data = ERR_INPUT, {}
    elif isinstance(exc, ReproError):
        # The taxonomy class name lets clients (and the fleet router)
        # distinguish e.g. a rejected handoff (CheckpointError) from a
        # generic internal fault without parsing messages.
        code, data = ERR_INTERNAL, {"exception": type(exc).__name__}
    else:
        code, data = ERR_INTERNAL, {"exception": type(exc).__name__}
    kind, exit_code = ERROR_KINDS[code]
    if exit_code is not None:
        data.setdefault("exit_code", exit_code)
    return {"code": code, "kind": kind, "message": str(exc), "data": data}


def encode_request(request_id: Any, method: str, params: dict | None = None) -> bytes:
    line = json.dumps(
        {"id": request_id, "method": method, "params": params or {}},
        separators=(",", ":"),
    )
    return line.encode() + b"\n"


def decode_request(line: bytes | str) -> tuple[Any, str, dict]:
    """Parse one request line; raises :class:`ServiceError` (400) on any
    shape violation so the server can answer instead of disconnecting."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ServiceError(ERR_BAD_REQUEST, f"request is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ServiceError(ERR_BAD_REQUEST, "request must be a JSON object")
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise ServiceError(ERR_BAD_REQUEST, "request needs a string 'method'")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError(ERR_BAD_REQUEST, "'params' must be a JSON object")
    return payload.get("id"), method, params


def encode_response(request_id: Any, result: dict) -> bytes:
    return (
        json.dumps({"id": request_id, "result": result}, separators=(",", ":")).encode()
        + b"\n"
    )


def encode_error(request_id: Any, exc: BaseException) -> bytes:
    return (
        json.dumps(
            {"id": request_id, "error": error_payload(exc)}, separators=(",", ":")
        ).encode()
        + b"\n"
    )


def decode_response(line: bytes | str) -> tuple[Any, dict]:
    """Parse one response line into ``(id, result)``; raises
    :class:`ServiceCallError` when the line carries an error object."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ServiceCallError(ERR_BAD_REQUEST, "bad_request", "response is not an object")
    error = payload.get("error")
    if error is not None:
        raise ServiceCallError.from_wire(error)
    return payload.get("id"), payload.get("result", {})
