"""HTTP front-end of the enumeration service.

A thin asyncio gateway over the same
:class:`~repro.service.scheduler.EnumerationScheduler` the NDJSON TCP
server drives: REST-ish job submission held to the TCP request
contract (:func:`repro.service.protocol.parse_request`), answers
streamed over SSE or chunked NDJSON (byte-identical to the TCP frames),
plus ``/metrics`` (Prometheus text) and ``/health`` (a worker-seat round
trip).  Stdlib only — no web framework.  It runs beside the TCP door
under one host: ``repro serve --http`` or
:class:`~repro.service.ServerThread`.
"""

from .client import GatewayClient, GatewayError, GatewayStream
from .metrics import render_metrics
from .server import GatewayServer

__all__ = [
    "GatewayClient",
    "GatewayError",
    "GatewayStream",
    "GatewayServer",
    "render_metrics",
]
