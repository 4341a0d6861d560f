"""``repro.api`` — the unified session layer (the public entry point).

Everything the library can do — ranked enumeration of minimal
triangulations, diverse top-k, proper tree decompositions — is served
through one surface:

* :class:`~repro.api.session.Session` — builds the expensive
  initialization (:class:`~repro.core.context.TriangulationContext`)
  once per graph fingerprint behind an LRU cache and exposes
  ``stream()`` / ``top()`` / ``diverse()`` / ``decompositions()``.
* :class:`~repro.api.request.EnumerationRequest` /
  :class:`~repro.api.response.EnumerationResponse` — the typed
  request/response pair behind :meth:`Session.execute`.
* :class:`~repro.api.checkpoint.StreamCheckpoint` — a serialized
  priority-queue frontier; :meth:`Session.resume` continues the exact
  ranked sequence where a prior call stopped (paginated top-k).

Quick start::

    from repro.api import Session

    session = Session()
    page = session.top(graph, "fill", k=5)
    for result in page.results:
        print(result.rank, result.cost)
    more = session.resume(page.checkpoint, k=5)   # ranks 5..9
"""

from __future__ import annotations

from ..preprocess.recompose import ComposedCheckpoint, ComposedRankedStream
from .checkpoint import FrontierEntry, StreamCheckpoint, load_checkpoint
from .fingerprint import graph_fingerprint
from .request import EnumerationRequest
from .response import EnumerationResponse, EnumerationStats
from .session import Session
from .stream import RankedStream

__all__ = [
    "Session",
    "EnumerationRequest",
    "EnumerationResponse",
    "EnumerationStats",
    "RankedStream",
    "ComposedRankedStream",
    "StreamCheckpoint",
    "ComposedCheckpoint",
    "FrontierEntry",
    "graph_fingerprint",
    "load_checkpoint",
]
