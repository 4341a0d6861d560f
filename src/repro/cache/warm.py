"""Pre-populating the artifact store from a graph list.

``repro cache warm g1.txt g2.txt`` (and :func:`warm_graphs` under it)
runs each graph × cost-spec pair through a store-attached
:class:`~repro.api.session.Session` far enough to force every artifact
the serving path would build — the triangulation context, the prepared
DP table for the cost, and the preprocessing plan when it applies — so
a fleet pointed at the directory afterwards starts warm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..graphs.graph import Graph
from ..graphs.io import read_graph
from ..preprocess.recompose import ComposedRankedStream

__all__ = ["WarmReport", "warm_graphs"]


@dataclass
class WarmReport:
    """What one warming pass accomplished.

    ``warmed`` has one row per successful (graph, cost) pair —
    ``{"graph", "fingerprint", "cost", "seconds", "preprocessed"}`` —
    ``errors`` one per failed pair (``{"graph", "cost", "error"}``) or
    unreadable file (its ``cost`` is ``None``), and
    ``store`` is the store's :meth:`~repro.cache.store.ArtifactStore
    .stats` snapshot taken after the pass.
    """

    warmed: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    store: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every graph was read and every (graph, cost) pair
        warmed cleanly."""
        return not self.errors


def _label(graph: "Graph | str", index: int) -> str:
    if isinstance(graph, str):
        return graph
    return f"graph[{index}]"


def warm_graphs(
    graphs,
    *,
    costs=("width", "fill"),
    cache_dir=None,
    kernel: str = "bitset",
    width_bound: int | None = None,
    top: int | None = None,
    announce=None,
) -> WarmReport:
    """Warm the store for every graph × cost pair; returns a report.

    ``graphs`` is an iterable of :class:`~repro.graphs.graph.Graph`
    objects or file paths, each path read once for all the costs.
    ``cache_dir`` or the ``REPRO_CACHE_DIR`` environment variable must
    resolve to a store — warming without one is an error, not a silent
    no-op.  A file that cannot be read is reported once (one error row
    with ``cost`` ``None``), a failing (graph, cost) pair once per pair,
    and neither aborts the rest of the pass.
    ``top`` (``repro cache warm --top K``) additionally enumerates and
    stores the top-K *answer prefix* per pair, so repeat ``top``/
    ``enumerate`` requests are later served straight from disk.
    ``announce`` (if given) is called with one progress line per pair
    and per unreadable file.
    """
    from ..api.session import Session

    session = Session(kernel=kernel, cache_dir=cache_dir)
    if session.store is None:
        raise ValueError(
            "warming needs a cache directory: pass cache_dir= or set "
            "REPRO_CACHE_DIR"
        )
    report = WarmReport()

    def failed(label: str, cost, exc: Exception) -> None:
        report.errors.append({"graph": label, "cost": cost, "error": str(exc)})
        if announce is not None:
            where = label if cost is None else f"{label} cost={cost}"
            announce(f"warm FAILED {where}: {exc}")

    try:
        for index, graph in enumerate(graphs):
            label = _label(graph, index)
            if isinstance(graph, str):
                try:
                    graph = read_graph(graph)
                except (OSError, ValueError) as exc:
                    failed(label, None, exc)
                    continue
            for cost in costs:
                started = time.perf_counter()
                try:
                    if top is not None:
                        # A full top-K collect both forces every init
                        # artifact through the store *and* publishes the
                        # ranked answer prefix with its checkpoint at K.
                        response = session.top(
                            graph, cost, k=top, width_bound=width_bound
                        )
                        fingerprint = response.stats.fingerprint
                        preprocessed = response.stats.preprocessed
                    else:
                        stream = session.stream(
                            graph, cost, width_bound=width_bound
                        )
                        try:
                            # One answer forces the full pipeline —
                            # contexts, prepared DP tables and (for
                            # composed streams) every atom — through the
                            # store-backed caches.
                            next(iter(stream), None)
                            fingerprint = stream.fingerprint
                            preprocessed = isinstance(
                                stream, ComposedRankedStream
                            )
                        finally:
                            stream.close()
                except Exception as exc:
                    failed(label, cost, exc)
                    continue
                row = {
                    "graph": label,
                    "fingerprint": fingerprint,
                    "cost": cost,
                    "seconds": time.perf_counter() - started,
                    "preprocessed": preprocessed,
                }
                report.warmed.append(row)
                if announce is not None:
                    announce(
                        f"warm ok {label} cost={cost} "
                        f"({row['seconds']:.3f}s)"
                    )
        report.store = session.store.stats()
    finally:
        session.close()
    return report
