"""The asyncio HTTP gateway over the enumeration scheduler.

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
import threading

from ..service.protocol import (
    TERMINAL_TYPES,
    ProtocolError,
    encode_frame,
    parse_request,
)
from ..service.scheduler import (
    DEFAULT_SLICE_ANSWERS,
    EnumerationScheduler,
    ScheduledJob,
)
from . import metrics as metrics_mod
from .http import (
    BadRequest,
    HttpRequest,
    StreamingResponse,
    read_request,
    send_response,
)

__all__ = ["GatewayServer", "GatewayThread"]

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


class GatewayServer:
    """HTTP front-end sharing a scheduler with (or owning) the service.

    Pass ``scheduler=`` to ride on an existing scheduler (``repro serve
    --http`` does: TCP and HTTP clients then share sessions, caches and
    worker seats); otherwise one is built from the remaining kwargs and
    owned — :meth:`stop` only closes a scheduler it built.
    """

    def __init__(
        self,
        *,
        scheduler: EnumerationScheduler | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 2,
        slice_answers: int = DEFAULT_SLICE_ANSWERS,
        max_pending_frames: int = 64,
        token_key: bytes | None = None,
        backend: str | None = None,
        worker_processes: int | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self._owns_scheduler = scheduler is None
        self.scheduler = scheduler or EnumerationScheduler(
            max_workers=max_workers,
            slice_answers=slice_answers,
            max_pending_frames=max_pending_frames,
            token_key=token_key,
            backend=backend,
            worker_processes=worker_processes,
            cache_dir=cache_dir,
        )
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self.address: tuple[str, int] | None = None
        #: Live streaming jobs by scheduler id (the /v1/jobs registry).
        self._live: dict[int, ScheduledJob] = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() before serve_forever()"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting; close the scheduler only if this owns it."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if self._owns_scheduler:
            await self.scheduler.close()
        else:
            # A shared scheduler is the service's to close; just cancel
            # the jobs this gateway is streaming so handlers wind down.
            for job in list(self._live.values()):
                self.scheduler.cancel(job)
        if server is not None:
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:
                pass

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                await send_response(
                    writer,
                    exc.status,
                    _json_body({"error": str(exc)}),
                )
                return
            if request is None:
                return
            await self._dispatch(request, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

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
        self._live[job.id] = job
        watcher = asyncio.create_task(self._watch_disconnect(reader, job))
        try:
            await self._stream_job(job, response, sse)
        finally:
            watcher.cancel()
            self._live.pop(job.id, None)

    async def _stream_job(
        self, job: ScheduledJob, response: StreamingResponse, sse: bool
    ) -> None:
        first = True
        while True:
            frame = await job.next_frame()
            if first:
                first = False
                if frame["type"] == "error":
                    response.commit(
                        ERROR_STATUS.get(frame.get("code"), 500)
                    )
            line = encode_frame(frame)
            if sse:
                # data bytes + "\n" == the NDJSON frame, by construction.
                payload = (
                    b"event: " + frame["type"].encode("ascii")
                    + b"\ndata: " + line[:-1] + b"\n\n"
                )
            else:
                payload = line
            try:
                await response.write(payload)
            except (ConnectionError, OSError):
                # Mid-stream disconnect: release the slot cooperatively,
                # exactly like the TCP transport.
                self.scheduler.cancel(job)
                if frame["type"] not in TERMINAL_TYPES:
                    await job.drain()
                return
            if frame["type"] in TERMINAL_TYPES:
                break
        try:
            await response.finish()
        except (ConnectionError, OSError):
            pass

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


class GatewayThread:
    """A gateway (plus optionally the TCP service) on a daemon thread.

    The blocking harness for tests and benchmarks::

        with GatewayThread(backend="process", tcp=True) as handle:
            http = GatewayClient(*handle.address)
            tcp = ServiceClient(*handle.tcp_address)

    With ``tcp=True`` both servers share one scheduler on one loop —
    the deployment shape of ``repro serve --http`` — so the SSE/NDJSON
    differential runs against genuinely shared sessions and workers.
    """

    def __init__(self, *, tcp: bool = False, **kwargs: object) -> None:
        self._kwargs = kwargs
        self._tcp = tcp
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None
        self.tcp_address: tuple[str, int] | None = None
        self.gateway: GatewayServer | None = None

    def start(self) -> "GatewayThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-gateway",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _main(self) -> None:
        from ..service.server import EnumerationServer

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        gateway = GatewayServer(**self._kwargs)
        tcp_server = None
        try:
            self.address = await gateway.start()
            if self._tcp:
                tcp_server = EnumerationServer(scheduler=gateway.scheduler)
                self.tcp_address = await tcp_server.start()
            self.gateway = gateway
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            # ``gateway.stop`` closes the shared scheduler (it built
            # it); the TCP server's stop is then a no-op close on an
            # already-wound-down scheduler, kept for its listener.
            await gateway.stop()
            if tcp_server is not None:
                await tcp_server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def scheduler_stats(self) -> dict[str, int]:
        assert self.gateway is not None
        return self.gateway.scheduler.stats()

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()
