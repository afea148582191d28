"""Wire protocol of the query service: framing, envelopes, error codes.

The service speaks plain HTTP/1.1 with JSON bodies. Crucially, the JSON
*payloads* are not a new dialect: a query request body is exactly
:meth:`repro.api.spec.GraphQuery.to_dict`, a query response is exactly
:meth:`repro.api.result.ResultSet.to_dict`, and a mutation body is
exactly one :mod:`repro.api.ops` payload — the formats the library
already round-trips and the testkit already fuzzes. The only
server-specific shape is the error envelope::

    {"error": {"code": "queue-full", "message": "...", ...}}

with a stable machine-readable ``code`` per failure class (mapped to an
HTTP status by :data:`ERROR_STATUS`), so clients never parse prose.

HTTP framing is deliberately minimal — request line, headers,
``Content-Length`` bodies, keep-alive — read off a connection's blocking
``socket.makefile("rb")`` stream. Watch streams answer with no
``Content-Length`` and ``Connection: close``: events are newline-
delimited JSON and the stream ends when either side hangs up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, BinaryIO

#: Machine-readable error codes -> HTTP status.
ERROR_STATUS: dict[str, int] = {
    "bad-request": 400,
    "unauthorized": 401,
    "not-found": 404,
    "method-not-allowed": 405,
    "conflict": 409,
    "stale-handle": 409,
    "payload-too-large": 413,
    "queue-full": 429,
    "query-error": 400,
    "deadline-exceeded": 504,
    "watch-limit": 429,
    "connection-limit": 429,
    "internal": 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: Hard cap on request bodies (one graph payload is a few KB; anything
#: near this is abuse, and unbounded reads are a trivial memory DoS).
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_COUNT = 64
MAX_LINE_BYTES = 16 * 1024


class ProtocolError(Exception):
    """A request the server refuses, carrying its structured error."""

    def __init__(self, code: str, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.code = code
        self.extra = extra

    @property
    def status(self) -> int:
        return ERROR_STATUS.get(self.code, 500)

    def payload(self) -> dict[str, Any]:
        return error_payload(self.code, str(self), **self.extra)


def error_payload(code: str, message: str, **extra: Any) -> dict[str, Any]:
    """The structured error envelope every failure path returns."""
    body: dict[str, Any] = {"code": code, "message": message}
    body.update(extra)
    return {"error": body}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool

    def json(self) -> Any:
        """The decoded JSON body (raises :class:`ProtocolError`)."""
        if not self.body:
            raise ProtocolError("bad-request", "request body must be JSON")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                "bad-request", f"malformed JSON body: {exc}"
            ) from exc


def _parse_target(target: str) -> tuple[str, dict[str, str]]:
    """Split a request target into path + query-string dict."""
    path, _, query_string = target.partition("?")
    query: dict[str, str] = {}
    for pair in query_string.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return path, query


def read_request(stream: BinaryIO) -> Request | None:
    """Parse one request off a blocking binary stream; ``None`` on a
    connection closed before or inside it.

    Raises :class:`ProtocolError` on malformed framing or oversized
    payloads — the caller answers with the structured error and closes.
    """
    request_line = stream.readline(MAX_LINE_BYTES + 1)
    if not request_line:
        return None
    if len(request_line) > MAX_LINE_BYTES:
        raise ProtocolError("bad-request", "request line too long")
    try:
        method, target, version = request_line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(
            "bad-request", f"malformed request line: {exc}"
        ) from exc

    headers: dict[str, str] = {}
    while True:
        line = stream.readline(MAX_LINE_BYTES + 1)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_COUNT or len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                "bad-request", "too many headers or a header line too long"
            )
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                "bad-request", f"malformed header: {exc}"
            ) from exc
        headers[name.strip().lower()] = value.strip()

    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError as exc:
        raise ProtocolError(
            "bad-request", f"malformed Content-Length {length_header!r}"
        ) from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(
            "payload-too-large",
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
        )
    body = stream.read(length) if length else b""
    if len(body) < length:
        return None

    connection = headers.get("connection", "").lower()
    keep_alive = version.upper() != "HTTP/1.0"
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True
    path, query = _parse_target(target)
    return Request(
        method=method.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def encode_response(
    status: int, payload: Any, keep_alive: bool = True
) -> bytes:
    """One complete JSON response (headers + body) as bytes."""
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        "",
        "",
    ]
    return "\r\n".join(headers).encode("ascii") + body


def encode_stream_header() -> bytes:
    """Response head of an NDJSON watch stream (framed by connection
    close, so no ``Content-Length``)."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def encode_event(payload: dict[str, Any]) -> bytes:
    """One newline-delimited JSON event of a watch stream."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
