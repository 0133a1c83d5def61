"""Minimal HTTP/1.1 plumbing on asyncio streams — stdlib only.

Just enough protocol for the service's five endpoints: request-line +
headers + ``Content-Length`` body parsing with hard size limits, and
JSON responses with ``Connection: close`` (one request per connection
keeps the server trivially correct under drain; the
:class:`~repro.serve.client.Client` opens a connection per call).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import asyncio

#: Upper bounds keeping a misbehaving peer from ballooning memory.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Protocol-level failure that should produce an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    path = target.split("?", 1)[0]

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers") from None
        if line in (b"\r\n", b"\n"):
            break
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    return Request(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialise one complete response (``Connection: close``)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON body (sorted keys, trailing newline) — the same
    convention as :func:`repro.serve.protocol.canonical_payload`."""
    return (json.dumps(dict(payload), sort_keys=True) + "\n").encode()


__all__ = [
    "HttpError",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_REQUEST_LINE",
    "REASONS",
    "Request",
    "json_body",
    "read_request",
    "render_response",
]
