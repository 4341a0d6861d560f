"""A small blocking HTTP client for the gateway (tests + benchmarks).

Deliberately byte-level: the differential tests need the *exact* bytes
of each streamed frame, so this client de-chunks the response body
itself and hands SSE events back as ``(event, data_bytes)`` pairs
rather than routing through a high-level HTTP library that may
normalize whitespace or decode eagerly.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field


class GatewayError(Exception):
    """A non-2xx, non-streaming gateway response."""

    def __init__(self, status: int, payload: object) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


class _Connection:
    """One request/response exchange (the gateway closes after each)."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def send_request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> None:
        lines = [f"{method} {path} HTTP/1.1", "Host: gateway"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body:
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)

    def read_head(self) -> tuple[int, dict[str, str]]:
        status_line = self.file.readline().decode("latin-1")
        parts = status_line.split(" ", 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = self.file.readline().decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def read_body(self, headers: dict[str, str]) -> bytes:
        if headers.get("transfer-encoding") == "chunked":
            return b"".join(self.iter_chunks())
        length = headers.get("content-length")
        if length is not None:
            return self.file.read(int(length))
        return self.file.read()

    def iter_chunks(self):
        while True:
            size_line = self.file.readline()
            if not size_line:
                return  # connection died mid-stream
            size = int(size_line.strip(), 16)
            if size == 0:
                self.file.readline()  # trailing CRLF
                return
            chunk = self.file.read(size)
            self.file.readline()  # chunk CRLF
            yield chunk

    def close(self) -> None:
        try:
            self.file.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class GatewayStream:
    """One streaming submission: status, headers, frame iterator.

    Iterating yields ``(event_type, frame_line)`` pairs where
    ``frame_line`` is the NDJSON frame bytes (newline included) —
    identical across both stream encodings, which is the differential
    hook.  ``answer_lines`` accumulates the raw answer frames seen.
    """

    status: int
    headers: dict[str, str]
    _conn: _Connection
    _sse: bool
    answer_lines: list[bytes] = field(default_factory=list)
    terminal: dict | None = None

    def __iter__(self):
        buffer = b""
        for chunk in self._conn.iter_chunks():
            buffer += chunk
            if self._sse:
                while b"\n\n" in buffer:
                    event_block, buffer = buffer.split(b"\n\n", 1)
                    yield self._parse_sse(event_block)
            else:
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    frame_line = line + b"\n"
                    frame = json.loads(frame_line)
                    yield self._note(frame.get("type", ""), frame_line, frame)

    def _parse_sse(self, block: bytes):
        event = ""
        data_lines = []
        for line in block.split(b"\n"):
            if line.startswith(b"event: "):
                event = line[len(b"event: "):].decode("ascii")
            elif line.startswith(b"data: "):
                data_lines.append(line[len(b"data: "):])
        frame_line = b"\n".join(data_lines) + b"\n"
        return self._note(event, frame_line, json.loads(frame_line))

    def _note(self, event: str, frame_line: bytes, frame: dict):
        if event == "answer":
            self.answer_lines.append(frame_line)
        from ..service.protocol import TERMINAL_TYPES

        if event in TERMINAL_TYPES:
            self.terminal = frame
        return event, frame_line

    def collect(self) -> "GatewayStream":
        """Drain the stream through its terminal frame; returns self."""
        for _event, _line in self:
            pass
        self.close()
        return self

    def abort(self) -> None:
        """Drop the connection mid-stream (simulates a lost client)."""
        self.close()

    def close(self) -> None:
        self._conn.close()


class GatewayClient:
    """Blocking driver of one gateway address."""

    def __init__(
        self, host: str, port: int = 8738, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plain endpoints -----------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: object | None = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        payload = b""
        send_headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
        conn = _Connection(self.host, self.port, self.timeout)
        try:
            conn.send_request(method, path, payload, send_headers)
            status, response_headers = conn.read_head()
            data = conn.read_body(response_headers)
        finally:
            conn.close()
        return HttpResponse(status, response_headers, data)

    def get_json(self, path: str) -> object:
        response = self.request("GET", path)
        if response.status >= 400:
            raise GatewayError(response.status, response.body.decode())
        return response.json()

    def health(self) -> HttpResponse:
        return self.request("GET", "/health")

    def metrics(self) -> str:
        response = self.request("GET", "/metrics")
        if response.status != 200:
            raise GatewayError(response.status, response.body.decode())
        return response.body.decode("utf-8")

    def cancel(self, job_id: int) -> HttpResponse:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel")

    # -- submission ----------------------------------------------------
    def submit(self, body: dict, *, sse: bool = False) -> GatewayStream:
        """POST one job; returns the live stream (caller iterates).

        Raises :class:`GatewayError` for pre-stream rejections (no
        chunked body): malformed JSON, request-contract refusals,
        shutdown.
        """
        payload = json.dumps(body).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Accept": (
                "text/event-stream" if sse else "application/x-ndjson"
            ),
        }
        conn = _Connection(self.host, self.port, self.timeout)
        try:
            conn.send_request("POST", "/v1/jobs", payload, headers)
            status, response_headers = conn.read_head()
        except BaseException:
            conn.close()
            raise
        if response_headers.get("transfer-encoding") != "chunked":
            data = conn.read_body(response_headers)
            conn.close()
            raise GatewayError(status, data.decode("utf-8", "replace"))
        return GatewayStream(
            status=status,
            headers=response_headers,
            _conn=conn,
            _sse=sse,
        )
