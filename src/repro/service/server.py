"""The TCP door of the enumeration service, and the one host of both doors.

One connection carries one job: the client sends a single ``request``
frame, the server streams ``answer`` frames as the scheduler produces
them and finishes with one terminal frame (``stats`` / ``deadline`` /
``cancelled`` / ``error``).  While a job streams, the server keeps
reading the connection: an in-band ``{"type": "cancel"}`` frame — or
the client closing its end — triggers cooperative cancellation through
the scheduler, which releases the job's worker slot at the next answer
boundary.  A malformed opening frame is answered with an in-band
``error`` frame on that connection only; the server keeps serving.

Pause/resume is connection-independent: any terminal frame carrying a
``checkpoint`` token can be resumed by a *new* connection (a new
request frame with ``token`` instead of ``graph``), continuing the
exact ranked sequence — the cross-process checkpoint machinery is the
reconnection story.

Both doors — :class:`EnumerationServer` here and the HTTP
:class:`~repro.gateway.server.GatewayServer` — are a :class:`Door`: a
listener over a scheduler it neither builds nor closes.  One host
routine builds the scheduler, starts the doors and tears them down;
:func:`serve` (``repro serve``) runs it in the foreground and
:class:`ServerThread` on a daemon thread (tests, host applications).
"""

from __future__ import annotations

import asyncio
import signal
import threading
from collections.abc import Awaitable, Callable

from .protocol import (
    ProtocolError,
    TERMINAL_TYPES,
    decode_frame,
    encode_frame,
    parse_request,
)
from .scheduler import EnumerationScheduler, ScheduledJob

__all__ = ["EnumerationServer", "ServerThread", "serve"]

#: Upper bound on one incoming TCP frame line (asyncio's stream limit,
#: read when the door starts): far above any realistic request graph.  A
#: longer frame is answered with an in-band ``error`` frame, not a
#: dropped connection.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Seconds the host waits for connection handlers once the scheduler is
#: closed: a stalled client socket must not wedge shutdown.
HANDLER_GRACE_SECONDS = 5.0


class Door:
    """A listener streaming one scheduler's jobs to its connections.

    ``host``/``port`` is the bind address (port ``0`` picks a free one,
    read back from :attr:`address` after :meth:`start`).  The door never
    builds or closes the scheduler; the host does both.  A subclass
    supplies ``_serve(reader, writer)`` for one connection: its framing,
    its refusals and its disconnect watcher.
    """

    #: The name the host announces the door under.
    label: str

    def __init__(
        self,
        scheduler: EnumerationScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self.address: tuple[str, int] | None = None

    async def start(self, **stream_options: object) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, **stream_options
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    def close(self) -> None:
        """Stop accepting; open connections keep running."""
        if self._server is not None:
            self._server.close()

    async def wait_closed(self) -> None:
        """Wait for the connection handlers (all of them on Python >= 3.12.1)."""
        if self._server is not None:
            await self._server.wait_closed()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve(reader, writer)
        except (OSError, asyncio.IncompleteReadError):
            pass  # the client went away; its job (if any) was cancelled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def stream(
        self, job: ScheduledJob, send: Callable[[dict], Awaitable[None]]
    ) -> bool:
        """Send ``job``'s frames through the terminal one.

        ``send`` raises ``OSError`` once the client is gone; the job is
        then cancelled and drained, so its slot frees cooperatively.
        Returns whether every frame went out.
        """
        while True:
            frame = await job.next_frame()
            try:
                await send(frame)
            except OSError:
                self.scheduler.cancel(job)
                if frame["type"] not in TERMINAL_TYPES:
                    await job.drain()
                return False
            if frame["type"] in TERMINAL_TYPES:
                return True


class EnumerationServer(Door):
    """The NDJSON TCP door: one request frame in, the job's frames out."""

    label = "repro service"

    async def start(self) -> tuple[str, int]:
        return await super().start(limit=MAX_FRAME_BYTES)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
        except ValueError:
            # Opening frame exceeded the stream limit: still an in-band
            # protocol violation, answered as one.
            await self._refuse(
                writer,
                "bad-request",
                f"request frame exceeds the server's {MAX_FRAME_BYTES}"
                "-byte frame limit",
            )
            return
        if not line:
            return
        try:
            request = parse_request(decode_frame(line))
        except ProtocolError as exc:
            # In-band error; this connection ends, the server lives on.
            await self._refuse(writer, "bad-request", str(exc))
            return
        try:
            job = await self.scheduler.submit(request)
        except RuntimeError as exc:
            # Raced with shutdown: still an in-band answer, not a dead socket.
            await self._refuse(writer, "shutting-down", str(exc))
            return
        watcher = asyncio.create_task(self._watch_client(reader, job))
        try:
            await self.stream(job, lambda frame: self._send(writer, frame))
        finally:
            watcher.cancel()

    async def _watch_client(
        self, reader: asyncio.StreamReader, job: ScheduledJob
    ) -> None:
        """Watch for in-band cancel frames and for the client hanging up."""
        while True:
            try:
                line = await reader.readline()
            except (ValueError, OSError):
                # Oversized garbage mid-stream, or a reset: a lost client.
                line = b""
            if not line:  # EOF: the client disconnected mid-stream
                self.scheduler.cancel(job)
                return
            try:
                frame = decode_frame(line)
            except ProtocolError:
                continue  # garbage mid-stream is ignored, not fatal
            if frame.get("type") == "cancel":
                self.scheduler.cancel(job)
                return

    @classmethod
    async def _refuse(
        cls, writer: asyncio.StreamWriter, code: str, message: str
    ) -> None:
        await cls._send(
            writer, {"type": "error", "code": code, "message": message}
        )

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()


def _announce(line: str) -> None:
    # Flushed: ``repro serve`` is read through pipes, which buffer.
    print(line, flush=True)


async def _host(
    stop: asyncio.Event,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    http_port: int | None = None,
    announce: Callable[[str], None] = _announce,
    listening: Callable[[EnumerationScheduler, list], None] | None = None,
    **scheduler_options: object,
) -> None:
    """Serve one scheduler through the TCP door (and the HTTP door when
    ``http_port`` is given) until ``stop`` is set.

    Teardown has one order: stop both listeners, close the scheduler
    once — which cancels live jobs, so their handlers deliver a
    ``cancelled`` frame with a token, then joins worker seats and
    closes sessions and the store — and last give the handlers a bounded
    window to finish.  Jobs must be cancelled *before* that wait,
    because on Python >= 3.12.1 ``Server.wait_closed`` blocks until
    every handler returns.
    """
    scheduler = EnumerationScheduler(**scheduler_options)
    doors: list[Door] = [EnumerationServer(scheduler, host, port)]
    if http_port is not None:
        from ..gateway.server import GatewayServer

        doors.append(GatewayServer(scheduler, host, http_port))
    try:
        for door in doors:
            bound_host, bound_port = await door.start()
            announce(f"{door.label} listening on {bound_host}:{bound_port}")
        if listening is not None:
            listening(scheduler, [door.address for door in doors])
        await stop.wait()
    finally:
        announce("repro service shutting down")
        for door in doors:
            door.close()
        await scheduler.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(door.wait_closed() for door in doors)),
                timeout=HANDLER_GRACE_SECONDS,
            )
        except asyncio.TimeoutError:
            pass  # stalled handlers die with the event loop


class ServerThread:
    """Both doors over one scheduler, on a daemon thread's event loop.

    The blocking harness for tests and for host applications that are
    not themselves async; keyword arguments go to the
    :class:`~repro.service.scheduler.EnumerationScheduler`::

        with ServerThread(backend="process", workers=2) as handle:
            tcp = ServiceClient(*handle.address)
            http = GatewayClient(*handle.http_address)

    Both doors listen on free ports of ``127.0.0.1``; ``address`` (TCP),
    ``http_address`` and ``scheduler`` are set once :meth:`start` (or
    the context manager) returns.
    """

    def __init__(self, **scheduler_options: object) -> None:
        self._options = scheduler_options
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None
        self.scheduler: EnumerationScheduler | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _listening(self, scheduler: EnumerationScheduler, addresses) -> None:
        self.scheduler = scheduler
        self.address, self.http_address = addresses
        self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await _host(
                self._stop,
                http_port=0,
                announce=lambda _line: None,
                listening=self._listening,
                **self._options,
            )
        except BaseException as exc:
            if self._ready.is_set():
                raise
            self._startup_error = exc
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Shut both doors and the scheduler down; join the thread.  Idempotent."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed by an earlier stop()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    http_port: int | None = None,
    **scheduler_options: object,
) -> None:
    """Run the service in the foreground until SIGINT or SIGTERM (``repro serve``).

    The TCP door binds ``host:port``, the HTTP door ``host:http_port``
    when that is given; keyword arguments go to the
    :class:`~repro.service.scheduler.EnumerationScheduler`.

    The signals are turned into an *orderly* stop via
    ``loop.add_signal_handler`` rather than left to propagate as
    :class:`KeyboardInterrupt`: the exception path interrupts teardown
    at an arbitrary await point, which can exit before the worker seats
    are joined and the shared artifact store is closed (orphaned
    children, hot sqlite WAL).  With the handler, a signal — a second
    one too — merely sets the stop event and the one teardown runs to
    completion.
    """

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        hooked: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread or platform without support
            hooked.append(signum)
        try:
            await _host(
                stop,
                host=host,
                port=port,
                http_port=http_port,
                **scheduler_options,
            )
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # signal arrived where no handler could be installed
