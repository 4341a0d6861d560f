"""The asyncio HTTP gateway: the second door over the enumeration scheduler.

:class:`GatewayServer` is a :class:`~repro.service.server.Door`, like
the TCP door: it streams the jobs of a scheduler its host built and
closes (``repro serve --http``, :class:`~repro.service.ServerThread`),
and keeps only its HTTP framing, its refusals and its disconnect
watcher.

Routes
------
``POST /v1/jobs``
    Submit one job (a JSON object held to the TCP request frame's one
    contract, :func:`repro.service.protocol.parse_request`; a body with
    ``token`` resumes a checkpoint).  Answers stream back as
    Server-Sent Events when the client sends
    ``Accept: text/event-stream``, otherwise as chunked NDJSON whose
    bytes are *identical* to the TCP transport's frames.  The HTTP
    status line is deferred until the first frame: a job that dies on
    validation maps its in-band error code onto a real status
    (``bad-request`` → 400, ``token_key_mismatch`` → 401,
    ``shutting-down`` → 503, otherwise 500); once answers are flowing
    the status is 200 and later errors stay in-band, as on TCP.
``GET /v1/jobs`` / ``GET /v1/jobs/{id}``
    Live-job registry (status, kind, emitted counts).
``POST /v1/jobs/{id}/cancel``
    Cooperative cancellation of a streaming job.
``GET /v1/status``
    The scheduler's cheap counters as JSON.
``GET /metrics``
    Prometheus exposition (:mod:`repro.gateway.metrics`); the expensive
    per-worker/cache rows run on an executor, never the event loop.
``GET /health``
    Liveness: one execution-backend probe round trip (a real worker
    seat ping on the process backend); 503 when it fails.

SSE framing is chosen so the answer payloads are the NDJSON frames::

    event: answer
    data: {...canonical json...}

— the ``data:`` bytes plus a newline are exactly
:func:`repro.service.protocol.encode_frame` of the same frame, which is
what the differential tests assert against the TCP byte stream.
"""

from __future__ import annotations

import asyncio
import json

from ..service.protocol import ProtocolError, encode_frame, parse_request
from ..service.scheduler import EnumerationScheduler, ScheduledJob
from ..service.server import Door
from . import metrics as metrics_mod
from .http import (
    BadRequest,
    HttpRequest,
    StreamingResponse,
    read_request,
    send_response,
)

__all__ = ["GatewayServer"]

#: In-band error code → HTTP status, applied only before the first
#: answer byte is on the wire.
ERROR_STATUS = {
    "bad-request": 400,
    "token_key_mismatch": 401,
    "shutting-down": 503,
    "internal": 500,
}

SSE_CONTENT_TYPE = "text/event-stream"
NDJSON_CONTENT_TYPE = "application/x-ndjson"


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class GatewayServer(Door):
    """The HTTP door over a scheduler it neither builds nor closes.

    ``repro serve --http`` runs it beside the TCP door on one scheduler,
    so HTTP and TCP clients share sessions, caches and worker seats.
    """

    label = "repro http gateway"

    def __init__(
        self,
        scheduler: EnumerationScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(scheduler, host, port)
        #: Live streaming jobs by scheduler id (the /v1/jobs registry).
        self._live: dict[int, ScheduledJob] = {}

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
        except BadRequest as exc:
            await send_response(
                writer, exc.status, _json_body({"error": str(exc)})
            )
            return
        if request is not None:
            await self._dispatch(request, reader, writer)

    async def _dispatch(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/v1/jobs" and method == "POST":
            await self._handle_submit(request, reader, writer)
        elif path == "/v1/jobs" and method == "GET":
            await self._handle_jobs_index(writer)
        elif path.startswith("/v1/jobs/") and path.endswith("/cancel") \
                and method == "POST":
            await self._handle_cancel(path, writer)
        elif path.startswith("/v1/jobs/") and method == "GET":
            await self._handle_job_status(path, writer)
        elif path == "/v1/status" and method == "GET":
            await send_response(
                writer, 200, _json_body(self.scheduler.metrics_snapshot())
            )
        elif path == "/metrics" and method == "GET":
            await self._handle_metrics(writer)
        elif path == "/health" and method == "GET":
            await self._handle_health(writer)
        elif path in ("/v1/jobs", "/v1/status", "/metrics", "/health"):
            await send_response(
                writer,
                405,
                _json_body({"error": f"{method} not allowed on {path}"}),
            )
        else:
            await send_response(
                writer, 404, _json_body({"error": f"no route for {path}"})
            )

    # -- observability endpoints ---------------------------------------
    async def _handle_metrics(self, writer: asyncio.StreamWriter) -> None:
        snapshot = self.scheduler.metrics_snapshot()
        service = None
        try:
            # Worker introspection blocks on pipe round trips; off-loop.
            service = await asyncio.get_running_loop().run_in_executor(
                None, self.scheduler.service_stats
            )
        except Exception:
            pass  # a scrape must not fail because a worker is wedged
        page = metrics_mod.render_metrics(snapshot, service)
        await send_response(
            writer,
            200,
            page.encode("utf-8"),
            content_type=metrics_mod.CONTENT_TYPE,
        )

    async def _handle_health(self, writer: asyncio.StreamWriter) -> None:
        try:
            healthy = await asyncio.get_running_loop().run_in_executor(
                None, self.scheduler.probe
            )
        except Exception:
            healthy = False
        snapshot = self.scheduler.metrics_snapshot()
        await send_response(
            writer,
            200 if healthy else 503,
            _json_body(
                {
                    "healthy": bool(healthy),
                    "backend": snapshot["backend"],
                    "active_jobs": snapshot["active"],
                }
            ),
        )

    # -- job registry ---------------------------------------------------
    @staticmethod
    def _job_row(job: ScheduledJob) -> dict:
        return {
            "id": job.id,
            "op": job.request.op,
            "status": job.status,
            "emitted": job.emitted,
            "cancelled": job.cancelled,
        }

    async def _handle_jobs_index(self, writer: asyncio.StreamWriter) -> None:
        rows = [self._job_row(job) for job in self._live.values()]
        await send_response(writer, 200, _json_body({"jobs": rows}))

    def _job_from_path(self, path: str) -> ScheduledJob | None:
        tail = path[len("/v1/jobs/"):].split("/", 1)[0]
        try:
            return self._live.get(int(tail))
        except ValueError:
            return None

    async def _handle_job_status(
        self, path: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self._job_from_path(path)
        if job is None:
            await send_response(
                writer, 404, _json_body({"error": "no such live job"})
            )
            return
        await send_response(writer, 200, _json_body(self._job_row(job)))

    async def _handle_cancel(
        self, path: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self._job_from_path(path)
        if job is None:
            await send_response(
                writer, 404, _json_body({"error": "no such live job"})
            )
            return
        self.scheduler.cancel(job)
        await send_response(
            writer, 202, _json_body({"id": job.id, "cancelling": True})
        )

    # -- submission / streaming ----------------------------------------
    async def _handle_submit(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await send_response(
                writer,
                400,
                _json_body({"error": f"request body is not JSON: {exc}"}),
            )
            return
        if not isinstance(body, dict):
            await send_response(
                writer,
                400,
                _json_body({"error": "request body must be a JSON object"}),
            )
            return
        try:
            service_request = parse_request({"type": "request", **body})
        except ProtocolError as exc:
            await send_response(writer, 400, _json_body({"error": str(exc)}))
            return
        try:
            job = await self.scheduler.submit(service_request)
        except RuntimeError as exc:
            await send_response(writer, 503, _json_body({"error": str(exc)}))
            return

        sse = request.accepts(SSE_CONTENT_TYPE)
        response = StreamingResponse(
            writer, SSE_CONTENT_TYPE if sse else NDJSON_CONTENT_TYPE
        )

        async def send(frame: dict) -> None:
            if frame["type"] == "error":
                # Picks the status only while none is committed, i.e.
                # when the error is the first frame.
                response.commit(ERROR_STATUS.get(frame.get("code"), 500))
            line = encode_frame(frame)
            if sse:
                # data bytes + "\n" == the NDJSON frame, by construction.
                line = (
                    b"event: " + frame["type"].encode("ascii")
                    + b"\ndata: " + line[:-1] + b"\n\n"
                )
            await response.write(line)

        self._live[job.id] = job
        watcher = asyncio.create_task(self._watch_disconnect(reader, job))
        try:
            if await self.stream(job, send):
                await response.finish()
        finally:
            watcher.cancel()
            self._live.pop(job.id, None)

    async def _watch_disconnect(
        self, reader: asyncio.StreamReader, job: ScheduledJob
    ) -> None:
        """EOF on the request socket == the client is gone: cancel."""
        while True:
            try:
                chunk = await reader.read(4096)
            except (ConnectionError, OSError):
                chunk = b""
            if not chunk:
                self.scheduler.cancel(job)
                return
