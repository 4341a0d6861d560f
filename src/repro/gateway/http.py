"""Minimal HTTP/1.1 primitives over asyncio streams.

Just enough protocol for the gateway: request-line + header parsing,
``Content-Length`` bodies, and two response shapes — a complete
response, and a *deferred* streaming response whose status line is held
back until the first scheduler frame arrives (so an early in-band error
can still pick its HTTP status).  Every response closes the connection:
one request per connection keeps disconnect detection trivial (reader
EOF == client gone), which is what ties a dropped SSE consumer to
cooperative job cancellation.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

#: Largest accepted request body (a wire graph is tiny; 16 MiB matches
#: the TCP server's frame limit).
MAX_BODY_BYTES = 16 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """A request the parser refuses; ``status`` picks the response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def accepts(self, content_type: str) -> bool:
        return content_type in self.headers.get("accept", "")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on immediate EOF.

    Raises :class:`BadRequest` on malformed heads, oversized payloads,
    or bodies without a length (chunked request bodies are not needed
    by any gateway operation and are rejected explicitly).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise BadRequest(413, f"request head exceeds {MAX_HEAD_BYTES} bytes")
    if len(head) > MAX_HEAD_BYTES:
        raise BadRequest(413, f"request head exceeds {MAX_HEAD_BYTES} bytes")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        raise BadRequest(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise BadRequest(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    body = b""
    if "transfer-encoding" in headers:
        raise BadRequest(411, "chunked request bodies are not supported")
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequest(400, "malformed Content-Length")
        if length < 0:
            raise BadRequest(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise BadRequest(400, "body shorter than Content-Length")
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, headers: list[tuple[str, str]]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers]
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
) -> None:
    """One complete, length-delimited response."""
    writer.write(
        _head(
            status,
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
            ],
        )
    )
    writer.write(body)
    await writer.drain()


class StreamingResponse:
    """A chunked response whose status line waits for the first write.

    The gateway holds the HTTP status until the first scheduler frame:
    a job that fails validation inside the scheduler emits its in-band
    ``error`` frame first, and that frame should pick the status code —
    but once any answer bytes went out the status is committed to 200
    and errors travel in-band exactly as on the TCP transport.
    """

    def __init__(
        self, writer: asyncio.StreamWriter, content_type: str
    ) -> None:
        self._writer = writer
        self._content_type = content_type
        self.committed_status: int | None = None
        # The committed head, until the first write sends it.
        self._head = b""

    def commit(self, status: int) -> None:
        """Fix the head once (the next write sends it); later calls are
        no-ops."""
        if self.committed_status is not None:
            return
        self.committed_status = status
        self._head = _head(
            status,
            [
                ("Content-Type", self._content_type),
                ("Cache-Control", "no-store"),
                ("Transfer-Encoding", "chunked"),
            ],
        )

    async def write(self, *payloads: bytes, last: bool = False) -> None:
        """One chunk per payload, and the terminating empty chunk if
        ``last``, all in one write (commits a 200 head if none was
        committed yet)."""
        self.commit(200)
        body = b"".join(
            b"%x\r\n" % len(payload) + payload + b"\r\n"
            for payload in payloads
            if payload
        )
        if last:
            body += b"0\r\n\r\n"
        if body:
            self._writer.write(self._head + body)
            self._head = b""
            await self._writer.drain()
