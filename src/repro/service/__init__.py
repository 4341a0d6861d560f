"""``repro.service`` — the concurrent enumeration service.

The serving tier over :mod:`repro.api`: an asyncio TCP server that
multiplexes many concurrent clients over a shared
:class:`~repro.api.Session` pool, streaming ranked answers as the
Lawler–Murty loop emits them — the paper's incremental-delay guarantee
turned into a wire protocol.

* :mod:`~repro.service.protocol` — the newline-delimited-JSON frame
  format (request → ``answer``* → one terminal frame), canonical
  encoding, typed frames, resume tokens;
* :mod:`~repro.service.scheduler` — fair-share slicing of any number of
  admitted jobs over a bounded worker pool, with deadlines, answer
  budgets and cooperative cancellation;
* :mod:`~repro.service.workers` — the multi-process execution backend
  (``backend="process"``): long-lived worker processes owning warm
  kernel-keyed sessions, graph-fingerprint affinity routing, and crash
  re-dispatch from the last acknowledged slice checkpoint;
* :mod:`~repro.service.server` — the TCP door
  (:class:`EnumerationServer`) and the one host of both doors (TCP and
  the HTTP gateway, :mod:`repro.gateway`): it builds the scheduler,
  starts the doors and closes the scheduler once, in the foreground
  (:func:`serve`, ``repro serve``) or on a daemon thread
  (:class:`ServerThread`);
* :mod:`~repro.service.client` — :class:`ServiceClient`, the typed
  blocking client used by the tests, the throughput benchmark, and
  ``repro submit``.

Correctness contract, enforced by ``tests/service/``: the ``answer``
frame bytes any client receives are bit-identical to the serialization
of the results a serial ``Session.stream`` run produces for the same
request — under arbitrary concurrency, and across a mid-stream
disconnect-and-resume via checkpoint token.
"""

from __future__ import annotations

from .client import ServiceClient, ServiceError, ServiceResult, ServiceStream
from .protocol import (
    AnswerFrame,
    CancelledFrame,
    DeadlineFrame,
    ErrorFrame,
    ProtocolError,
    ServiceRequest,
    ServiceStatsFrame,
    StatsFrame,
    serialize_answers,
)
from .scheduler import (
    EnumerationScheduler,
    ExecutionBackend,
    InProcessBackend,
    ScheduledJob,
)
from .server import EnumerationServer, ServerThread, serve
from .workers import ProcessWorkerBackend, WorkerPool

__all__ = [
    "AnswerFrame",
    "CancelledFrame",
    "DeadlineFrame",
    "EnumerationScheduler",
    "EnumerationServer",
    "ErrorFrame",
    "ExecutionBackend",
    "InProcessBackend",
    "ProcessWorkerBackend",
    "ProtocolError",
    "ScheduledJob",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceRequest",
    "ServiceResult",
    "ServiceStatsFrame",
    "ServiceStream",
    "StatsFrame",
    "WorkerPool",
    "serialize_answers",
    "serve",
]
