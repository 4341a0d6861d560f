"""Build-once, serve-many session layer over the ranked enumerator.

The paper's implementation amortizes the expensive initialization step —
minimal separators, PMCs, full blocks (Section 7.1) — across all
``MinTriang`` calls for one graph.  :class:`Session` lifts that discipline
to the public surface: it keeps an LRU cache of
:class:`~repro.core.context.TriangulationContext` objects keyed by graph
*content fingerprint* (plus width bound), caches the unconstrained DP
table per cost spec, and answers every request — ranked, diverse, or tree
decompositions — through one typed request/response pair.

The serving primitives::

    from repro.api import Session

    session = Session()
    page = session.top(graph, "fill", k=10)          # ranks 0..9
    token = page.checkpoint.to_bytes()               # opaque resume token
    ...
    more = session.resume(token, k=10)               # ranks 10..19,
                                                     # bit-identical to an
                                                     # uninterrupted run

Sessions are cheap; create one per process (or per tenant) and reuse it.
Cache operations are lock-protected, so a session may serve concurrent
threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from itertools import islice

from ..cache.answers import AnswerCache, AnswerPage, preprocess_applies_for
from ..core.context import TriangulationContext
from ..core.diversity import _fill_set
from ..core.mintriang import min_triangulation_and_table
from ..core.proper import RankedDecomposition
from ..core.spanning import clique_trees
from ..costs.registry import resolve_cost
from ..graphs.graph import Graph
from ..graphs.kernels import KernelSpec
from ..preprocess.recompose import (
    ComposedCheckpoint,
    ComposedRankedStream,
    PreprocessPlan,
    composition_for,
)
from .checkpoint import StreamCheckpoint, load_checkpoint
from .fingerprint import graph_fingerprint
from .request import EnumerationRequest
from .response import EnumerationResponse, EnumerationStats
from .stream import RankedStream

__all__ = ["Session"]


def _diverse_selection(
    stream,
    k: int,
    min_distance: int,
    scan_limit: int | None = None,
    should_stop=None,
):
    """Greedy quality/diversity selection over a ranked stream.

    Scans (at most ``scan_limit``, default ``25 * k``) results in ranked
    order and yields the triangulations that are >= ``min_distance``
    fill edges away from every previously kept one, stopping after
    ``k`` keeps.  The one selection rule — including the scan-window
    default — behind :meth:`Session.diverse` and the service
    scheduler's sliceable diverse jobs; both surfaces stay identical by
    construction.  ``should_stop`` (if given) is polled once per scanned
    result so callers can impose time budgets.
    """
    if scan_limit is None:
        scan_limit = 25 * k
    kept_fills: list[frozenset] = []
    for result in islice(stream, scan_limit):
        fill = _fill_set(result.triangulation)
        if all(
            len(fill ^ other) >= min_distance for other in kept_fills
        ):
            kept_fills.append(fill)
            yield result.triangulation
            if len(kept_fills) >= k:
                return
        if should_stop is not None and should_stop():
            return


def _expand_decompositions(stream, per_triangulation: int | None):
    """Proposition 6.1: expand a ranked triangulation stream into its
    clique trees, preserving cost order (the one shared implementation
    behind ``decomposition_stream`` and ``decompositions``)."""
    rank = 0
    for result in stream:
        trees = clique_trees(result.triangulation.chordal_graph)
        if per_triangulation is not None:
            trees = islice(trees, per_triangulation)
        for td in trees:
            yield RankedDecomposition(
                decomposition=td,
                cost=result.cost,
                triangulation=result.triangulation,
                rank=rank,
            )
            rank += 1


class _CacheEntry:
    """One cached context plus its per-cost-spec prepared DP tables."""

    __slots__ = ("context", "prepared")

    def __init__(self, context: TriangulationContext) -> None:
        self.context = context
        # cost spec (registry name) -> (first, unconstrained table)
        self.prepared: dict[str, tuple] = {}


class Session:
    """A build-once context cache plus the typed enumeration entry points.

    Parameters
    ----------
    max_contexts:
        LRU capacity of the context cache (per ``(fingerprint,
        width_bound)`` key).
    kernel:
        Graph kernel used when this session builds a context: a
        registered kernel name, a :class:`~repro.graphs.kernels
        .KernelSpec`, or the default ``"auto"`` (an alias of
        ``"bitset"``, the mask-level kernel).  ``"auto"`` is resolved
        here at construction, so cache keys and reported stats always
        carry a concrete kernel name.  All kernels serve bit-identical
        enumeration sequences — see the README "Performance" section for
        how to choose or register one.
    preprocess:
        Default for requests that do not say: ``True`` (default) routes
        eligible requests through the preprocessing pipeline — safe
        reductions plus clique-separator atom decomposition with exact
        ranked recomposition (:mod:`repro.preprocess`).  It applies only
        to registry-name costs with a declared composition (``width``,
        ``fill``, ``sum-exp-bags``; notably *not* ``lex-width-fill``)
        on graphs that actually decompose, and falls back to the direct
        pipeline otherwise — both routes rank over the full graph and
        agree on every cost and every answer set.  ``False`` disables
        it session-wide.
    cache_dir:
        Directory of a persistent :class:`~repro.cache.store
        .ArtifactStore`.  When set (or when the ``REPRO_CACHE_DIR``
        environment variable is), every in-memory cache miss — context
        build, prepared DP table, preprocessing plan — first consults
        the store, and every fill publishes back, so the expensive
        initialization survives the process and is shared with every
        other session on the same directory.  Answers served from the
        store are byte-identical to cold builds (CI proves this
        differentially on the golden corpus).
    store:
        An already-open :class:`~repro.cache.store.ArtifactStore` to
        attach instead of opening one from ``cache_dir``; the caller
        keeps ownership (``close()`` will not close it).
    """

    def __init__(
        self,
        max_contexts: int = 8,
        kernel: "str | KernelSpec" = "auto",
        preprocess: bool = True,
        cache_dir: "str | None" = None,
        store: "object | None" = None,
    ) -> None:
        from ..graphs.kernels import resolve_kernel

        if max_contexts < 1:
            raise ValueError(f"max_contexts must be >= 1, got {max_contexts}")
        self._max_contexts = max_contexts
        self._kernel_spec = resolve_kernel(kernel)
        self._kernel = self._kernel_spec.name
        self._preprocess = bool(preprocess)
        if store is not None:
            self._store = store
            self._owns_store = False
        else:
            from ..cache.store import open_store

            self._store = open_store(cache_dir)
            self._owns_store = self._store is not None
        self._contexts: OrderedDict[tuple[str, int | None], _CacheEntry] = (
            OrderedDict()
        )
        self._plans: OrderedDict[tuple[str, bool], PreprocessPlan] = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._builds = 0

    # ------------------------------------------------------------------
    # Context cache
    # ------------------------------------------------------------------
    def context(
        self,
        graph: Graph,
        width_bound: int | None = None,
    ) -> TriangulationContext:
        """The shared initialization for ``graph``, built at most once.

        Identical-content graphs (same labels, same edges) share one
        context regardless of object identity; a mutated graph has a new
        fingerprint and misses the cache instead of serving stale state.
        """
        entry, _fp, _cached = self._entry_for(graph, width_bound)
        return entry.context

    def adopt_context(self, context: TriangulationContext) -> str:
        """Register a prebuilt context; returns its graph fingerprint.

        The context (including ``context.graph``) is cached as given —
        do not mutate the graph afterwards, or the cache entry will no
        longer match its fingerprint key.
        """
        _entry, fp, _cached = self._entry_for(
            context.graph, context.width_bound, prebuilt=context
        )
        return fp

    def _entry_for(
        self,
        graph: Graph,
        width_bound: int | None,
        prebuilt: TriangulationContext | None = None,
        fp: str | None = None,
    ) -> tuple[_CacheEntry, str, bool]:
        """The cache entry of ``graph``; ``fp`` is its fingerprint when
        the caller has already computed it."""
        if prebuilt is not None:
            width_bound = prebuilt.width_bound
        fp = fp or graph_fingerprint(graph)
        key = (fp, width_bound)
        with self._lock:
            entry = self._contexts.get(key)
            if entry is not None:
                self._contexts.move_to_end(key)
                if prebuilt is not None and entry.context is not prebuilt:
                    entry = _CacheEntry(prebuilt)
                    self._contexts[key] = entry
                    return entry, fp, False
                self._hits += 1
                return entry, fp, True
            self._misses += 1
        if prebuilt is not None:
            context = prebuilt
        else:
            context = self._stored_context(fp, width_bound)
            if context is None:
                # Build outside the lock: initialization is the slow
                # part.  Snapshot the graph first — the cache key is
                # content-based, so a caller mutating their graph object
                # afterwards must not be able to poison the entry it was
                # fingerprinted under.
                context = TriangulationContext.build(
                    graph.copy(), width_bound=width_bound, kernel=self._kernel
                )
                with self._lock:
                    self._builds += 1
                self._publish_context(fp, context)
        entry = _CacheEntry(context)
        with self._lock:
            existing = self._contexts.get(key)
            if existing is not None and prebuilt is None:
                # Lost a benign build race; serve the incumbent.
                self._contexts.move_to_end(key)
                return existing, fp, True
            self._contexts[key] = entry
            self._contexts.move_to_end(key)
            while len(self._contexts) > self._max_contexts:
                self._contexts.popitem(last=False)
        return entry, fp, False

    def _stored_context(
        self, fp: str, width_bound: int | None
    ) -> TriangulationContext | None:
        """This session's kernel-keyed context from the disk store, if any."""
        if self._store is None:
            return None
        from ..cache.store import context_key

        obj = self._store.get(
            "context", context_key(fp, width_bound, self._kernel)
        )
        if (
            isinstance(obj, TriangulationContext)
            and obj.kernel == self._kernel
            and obj.width_bound == width_bound
        ):
            return obj
        return None

    def _publish_context(self, fp: str, context: TriangulationContext) -> None:
        if self._store is None:
            return
        from ..cache.store import context_key

        self._store.put(
            "context",
            context_key(fp, context.width_bound, context.kernel),
            context,
        )

    def _prepared(
        self,
        entry: _CacheEntry,
        spec: str | None,
        cost: object,
        fingerprint: str | None = None,
    ) -> tuple | None:
        """Cached ``(first, unconstrained table)`` for a registry cost.

        Lock-protected for concurrent callers (the service scheduler
        opens streams from several executor threads at once): the slow
        DP runs outside the lock, and when two threads race on the same
        spec the first insert wins, so every stream sees one canonical
        table.  With a disk store attached (and a fingerprint to key
        by), a memory miss consults the store before running the DP and
        publishes the pair it computed.
        """
        if spec is None:
            return None
        with self._lock:
            pair = entry.prepared.get(spec)
        if pair is not None:
            return pair
        key = None
        computed = None
        if self._store is not None and fingerprint is not None:
            from ..cache.store import prepared_key

            key = prepared_key(
                fingerprint,
                spec,
                entry.context.width_bound,
                entry.context.kernel,
            )
            obj = self._store.get("prepared", key)
            if isinstance(obj, tuple) and len(obj) == 2:
                computed = obj
        loaded = computed is not None
        if computed is None:
            computed = min_triangulation_and_table(entry.context, cost)
        with self._lock:
            pair = entry.prepared.setdefault(spec, computed)
        if key is not None and not loaded and pair is computed:
            self._store.put("prepared", key, computed)
        return pair

    @property
    def kernel(self) -> "KernelSpec":
        """The resolved :class:`~repro.graphs.kernels.KernelSpec` this
        session builds contexts with (``"auto"`` never survives
        construction, so this is always a concrete registered spec)."""
        return self._kernel_spec

    @property
    def kernel_name(self) -> str:
        """The resolved kernel's registry name (what cache keys carry)."""
        return self._kernel

    @property
    def preprocess(self) -> bool:
        """This session's default for the per-request ``preprocess`` flag."""
        return self._preprocess

    @property
    def store(self):
        """The attached :class:`~repro.cache.store.ArtifactStore`, or
        ``None`` when this session runs memory-only."""
        return self._store

    def cache_info(self) -> dict:
        """Context-cache counters (hits/misses/builds/current size).

        With a disk store attached, the ``"disk"`` key carries the
        store's :meth:`~repro.cache.store.ArtifactStore.stats` snapshot
        (per-kind hit/miss/eviction/byte counters).
        """
        with self._lock:
            info: dict = {
                "contexts": len(self._contexts),
                "max_contexts": self._max_contexts,
                "hits": self._hits,
                "misses": self._misses,
                "builds": self._builds,
                "plans": len(self._plans),
                "prepared_tables": sum(
                    len(entry.prepared) for entry in self._contexts.values()
                ),
            }
        if self._store is not None:
            info["disk"] = self._store.stats()
        return info

    def warm_fingerprints(self) -> list[str]:
        """Fingerprints of the contexts currently warm, coldest first.

        The observability hook behind the service's ``stats`` job kind:
        a worker whose warm set contains a request's fingerprint serves
        it without rebuilding the initialization (affinity routing aims
        requests at exactly that worker).
        """
        with self._lock:
            return [fp for fp, _width_bound in self._contexts]

    def close(self) -> None:
        """Drop every cached context, prepared table and preprocess plan.

        A store this session opened itself (via ``cache_dir`` or the
        environment) is closed too; a caller-supplied ``store=`` stays
        open — the caller owns it.
        """
        with self._lock:
            self._contexts.clear()
            self._plans.clear()
        if self._owns_store and self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def plan_for(
        self, graph: Graph, *, duplicate_sensitive: bool = False
    ) -> PreprocessPlan:
        """The (cached) preprocessing plan for ``graph``.

        Exposed for inspection and benchmarking; the enumeration entry
        points call this internally when preprocessing applies.  Plans
        are cached per ``(fingerprint, duplicate_sensitive)`` alongside
        the context LRU.
        """
        return self._plan_for(graph, graph_fingerprint(graph), duplicate_sensitive)

    def _plan_for(
        self, graph: Graph, fp: str, duplicate_sensitive: bool
    ) -> PreprocessPlan:
        key = (fp, duplicate_sensitive)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        # Build outside the lock; losing a race just wastes one build.
        plan = self._stored_plan(fp, duplicate_sensitive)
        if plan is None:
            plan = PreprocessPlan.build(
                graph, duplicate_sensitive=duplicate_sensitive
            )
            self._publish_plan(fp, duplicate_sensitive, plan)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._max_contexts:
                self._plans.popitem(last=False)
        return plan

    def _stored_plan(
        self, fp: str, duplicate_sensitive: bool
    ) -> PreprocessPlan | None:
        if self._store is None:
            return None
        from ..cache.store import plan_key

        obj = self._store.get("plan", plan_key(fp, duplicate_sensitive))
        return obj if isinstance(obj, PreprocessPlan) else None

    def _publish_plan(
        self, fp: str, duplicate_sensitive: bool, plan: PreprocessPlan
    ) -> None:
        if self._store is not None:
            from ..cache.store import plan_key

            self._store.put("plan", plan_key(fp, duplicate_sensitive), plan)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def stream(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        *,
        width_bound: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
    ) -> "RankedStream | ComposedRankedStream":
        """Open a resumable cost-ranked stream over ``graph``.

        ``context`` overrides the cache with a prebuilt initialization
        (it is adopted into the cache; its own ``width_bound`` wins, and
        preprocessing is bypassed).  ``preprocess=None`` defers to the
        session default; when preprocessing applies, the returned stream
        is a :class:`~repro.preprocess.recompose.ComposedRankedStream`
        with the same iteration/checkpoint surface.
        """
        stream, _meta = self._open(
            graph, cost, width_bound=width_bound,
            context=context, preprocess=preprocess,
        )
        return stream

    def _preprocess_applies(
        self,
        spec: str | None,
        context: TriangulationContext | None,
        preprocess: bool | None,
    ) -> bool:
        """Whether this request is eligible for the composed pipeline.

        Preprocessing needs a registry-name cost with a declared
        composition (per-atom values must combine exactly) and no
        caller-supplied prebuilt context.  The same rule
        (:func:`~repro.cache.answers.preprocess_applies_for`) picks the
        keys of the request's :class:`~repro.cache.answers.AnswerCache`;
        the service scheduler, which probes before any session exists,
        calls it directly.
        """
        effective = self._preprocess if preprocess is None else preprocess
        return (
            context is None
            and spec is not None
            and preprocess_applies_for(spec, effective)
        )

    def _open(
        self,
        graph: Graph | str,
        cost: "str | object",
        *,
        width_bound: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
        fp: str | None = None,
    ) -> "tuple[RankedStream | ComposedRankedStream, dict]":
        if isinstance(graph, str):
            from ..graphs.io import read_graph

            graph = read_graph(graph)
        # One fingerprint per request: the plan, the context entry and
        # the stream all key on it.
        fp = fp or graph_fingerprint(graph)
        spec = cost if isinstance(cost, str) else None
        if graph.num_vertices() == 0:
            stream = RankedStream.start(None, None, cost_spec=spec, fingerprint=fp)
            return stream, {"context_cached": False, "init_seconds": 0.0}
        if self._preprocess_applies(spec, context, preprocess):
            assert spec is not None
            composition = composition_for(spec)
            assert composition is not None
            plan = self._plan_for(graph, fp, composition.duplicate_sensitive)
            if not plan.trivial:
                return self._open_composed(
                    plan, spec, composition, fp, width_bound=width_bound
                )
        if context is None and not graph.is_connected():
            raise ValueError(
                "ranked enumeration requires a connected graph; "
                "enumerate per component instead (or enable preprocess "
                "with a composable cost, which splits components "
                "automatically)"
            )
        entry, fp, cached = self._entry_for(
            graph, width_bound, prebuilt=context, fp=fp
        )
        cost_obj = resolve_cost(cost, entry.context.graph)
        prepared = self._prepared(entry, spec, cost_obj, fp)
        stream = RankedStream.start(
            entry.context,
            cost_obj,
            cost_spec=spec,
            fingerprint=fp,
            prepared=prepared,
        )
        meta = {
            "context_cached": cached,
            "init_seconds": entry.context.init_seconds,
        }
        return stream, meta

    def _open_composed(
        self,
        plan: PreprocessPlan,
        spec: str,
        composition,
        plan_fp: str,
        *,
        width_bound: int | None,
    ) -> tuple[ComposedRankedStream, dict]:
        """Start a composed stream, one cached context per variable atom."""
        cached_flags: list[bool] = []
        init_seconds = [0.0]

        def open_piece(atom_graph: Graph):
            entry, fp, cached = self._entry_for(atom_graph, width_bound)
            cached_flags.append(cached)
            init_seconds[0] += entry.context.init_seconds
            cost_obj = resolve_cost(spec, entry.context.graph)
            prepared = self._prepared(entry, spec, cost_obj, fp)
            return RankedStream.start(
                entry.context,
                cost_obj,
                cost_spec=spec,
                fingerprint=fp,
                prepared=prepared,
            )

        stream = ComposedRankedStream.start(
            plan,
            resolve_cost(spec, plan.graph),
            composition,
            cost_spec=spec,
            fingerprint=plan_fp,
            width_bound=width_bound,
            open_piece=open_piece,
        )
        meta = {
            "context_cached": bool(cached_flags) and all(cached_flags),
            "init_seconds": init_seconds[0],
        }
        return stream, meta

    def decomposition_stream(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        *,
        per_triangulation: int | None = None,
        width_bound: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
    ):
        """Proper tree decompositions by increasing cost (Proposition 6.1).

        Expands each enumerated triangulation into its clique trees,
        optionally capped at ``per_triangulation`` trees each
        (``1`` = bag-distinct results only).  Returns a generator;
        closing it closes the underlying stream.
        """
        stream = self.stream(
            graph, cost, width_bound=width_bound,
            context=context, preprocess=preprocess,
        )

        def _closing():
            try:
                yield from _expand_decompositions(stream, per_triangulation)
            finally:
                stream.close()

        return _closing()

    # ------------------------------------------------------------------
    # Typed request execution
    # ------------------------------------------------------------------
    def execute(
        self,
        request: EnumerationRequest,
        *,
        context: TriangulationContext | None = None,
    ) -> EnumerationResponse:
        """Serve one :class:`~repro.api.request.EnumerationRequest`."""
        started = time.perf_counter()
        graph = request.resolve_graph()
        if request.mode == "ranked":
            return self._execute_ranked(request, graph, started, context)
        if request.mode == "diverse":
            return self._execute_diverse(request, graph, started, context)
        return self._execute_decompositions(request, graph, started, context)

    def _empty_response(
        self,
        request: EnumerationRequest,
        graph: Graph,
        started: float,
    ) -> EnumerationResponse:
        """A zero-answer response that never touches the context cache."""
        stats = EnumerationStats(
            fingerprint=graph_fingerprint(graph),
            mode=request.mode,
            cost_spec=request.cost_spec,
            emitted=0,
            expansions=0,
            init_seconds=0.0,
            context_cached=False,
            elapsed_seconds=time.perf_counter() - started,
            engine="none",
            exhausted=False,
            timed_out=False,
            kernel=self._kernel,
        )
        return EnumerationResponse(results=(), stats=stats, checkpoint=None)

    def _execute_ranked(
        self,
        request: EnumerationRequest,
        graph: Graph,
        started: float,
        context: TriangulationContext | None,
    ) -> EnumerationResponse:
        limit = request.result_limit
        if limit == 0:
            return self._empty_response(request, graph, started)
        if (
            self._store is not None
            and context is None
            and isinstance(request.cost, str)
            and graph.num_vertices() > 0
        ):
            return self._ranked_with_answers(request, graph, started, limit)
        stream, meta = self._open(
            graph,
            request.cost,
            width_bound=request.width_bound,
            context=context,
            preprocess=request.preprocess,
        )
        return self._collect_ranked(
            stream, meta, limit, request.time_budget, started
        )

    # ------------------------------------------------------------------
    # The "answers" artifact kind: ranked prefixes served from disk
    # ------------------------------------------------------------------
    def _ranked_with_answers(
        self,
        request: EnumerationRequest,
        graph: Graph,
        started: float,
        limit: int | None,
    ) -> EnumerationResponse:
        """Ranked execution through the answer-prefix cache.

        Covered request → replay from disk.  Longer request over a
        non-exhausted record → resume from the stored frontier at the
        prefix tip, enumerate only the missing tail, write the longer
        prefix back.  Miss → live run, then publish the prefix.
        """
        fp = graph_fingerprint(graph)
        answers = AnswerCache(
            self._store,
            fp,
            request.cost,
            request.width_bound,
            applies=self._preprocess_applies(
                request.cost, None, request.preprocess
            ),
        )
        record = answers.load()
        page = answers.replay(record, graph, 0, limit)
        if page is not None:
            return self._replayed(answers, page, started)
        n = len(record.answers) if record is not None else 0
        if n > 0 and (limit is None or limit > n):
            # Not covered, so the record is not exhausted; a head page
            # exists exactly when a checkpoint is stored at its tip.
            head = answers.replay(record, graph, 0, n)
            tip = load_checkpoint(head.checkpoint) if head is not None else None
            if tip is not None and not tip.exhausted:
                stream, meta = self._reopen(tip)
                remaining = None if limit is None else limit - n
                tail = self._collect_ranked(
                    stream, meta, remaining, request.time_budget, started
                )
                self._write_back(answers, n, tail)
                return EnumerationResponse(
                    results=head.results + tail.results,
                    stats=replace(tail.stats, emitted=n + tail.stats.emitted),
                    checkpoint=tail.checkpoint,
                )
        stream, meta = self._open(
            graph,
            request.cost,
            width_bound=request.width_bound,
            context=None,
            preprocess=request.preprocess,
            fp=fp,
        )
        response = self._collect_ranked(
            stream, meta, limit, request.time_budget, started
        )
        self._write_back(answers, 0, response)
        return response

    def _replayed(
        self, answers: AnswerCache, page: AnswerPage, started: float
    ) -> EnumerationResponse:
        """The response of a page served from the answers tier: results
        identical to a live run's, with ``elapsed_seconds`` 0.0 and
        ``engine="cache"`` marking the path."""
        stats = EnumerationStats(
            fingerprint=answers.fingerprint,
            mode="ranked",
            cost_spec=answers.cost_spec,
            emitted=len(page.results),
            expansions=0,
            init_seconds=0.0,
            context_cached=False,
            elapsed_seconds=time.perf_counter() - started,
            engine="cache",
            exhausted=page.exhausted,
            timed_out=False,
            preprocessed=page.preprocessed,
            kernel=self._kernel,
        )
        return EnumerationResponse(
            results=page.results,
            stats=stats,
            checkpoint=load_checkpoint(page.checkpoint),
        )

    @staticmethod
    def _write_back(
        answers: AnswerCache, start: int, response: EnumerationResponse
    ) -> None:
        """Publish a live collect that started at position ``start``."""
        answers.publish(
            start,
            response.results,
            response.checkpoint.to_bytes(),
            exhausted=response.stats.exhausted,
            preprocessed=response.stats.preprocessed,
        )

    def _collect_ranked(
        self,
        stream: RankedStream,
        meta: dict,
        limit: int | None,
        time_budget: float | None,
        started: float,
    ) -> EnumerationResponse:
        results = []
        timed_out = False
        try:
            while limit is None or len(results) < limit:
                try:
                    results.append(next(stream))
                except StopIteration:
                    break
                if (
                    time_budget is not None
                    and time.perf_counter() - started > time_budget
                ):
                    timed_out = True
                    break
            checkpoint = stream.checkpoint()
            stats = EnumerationStats(
                fingerprint=stream.fingerprint,
                mode="ranked",
                cost_spec=stream.cost_spec,
                emitted=len(results),
                expansions=stream.expansions,
                init_seconds=meta["init_seconds"],
                context_cached=meta["context_cached"],
                elapsed_seconds=time.perf_counter() - started,
                engine=stream.engine_name,
                exhausted=stream.exhausted,
                timed_out=timed_out,
                preprocessed=isinstance(stream, ComposedRankedStream),
                kernel=self._kernel,
            )
        finally:
            stream.close()
        return EnumerationResponse(
            results=tuple(results), stats=stats, checkpoint=checkpoint
        )

    def _execute_diverse(
        self,
        request: EnumerationRequest,
        graph: Graph,
        started: float,
        context: TriangulationContext | None,
    ) -> EnumerationResponse:
        if request.k is None:
            raise ValueError("diverse mode requires k")
        limit = request.result_limit
        if limit == 0:
            return self._empty_response(request, graph, started)
        assert limit is not None
        stream, meta = self._open(
            graph,
            request.cost,
            width_bound=request.width_bound,
            context=context,
            preprocess=request.preprocess,
        )
        kept = []
        timed_out = False

        def over_budget() -> bool:
            nonlocal timed_out
            if (
                request.time_budget is not None
                and time.perf_counter() - started > request.time_budget
            ):
                timed_out = True
            return timed_out

        try:
            kept = list(
                _diverse_selection(
                    stream,
                    limit,
                    request.min_distance,
                    request.scan_limit,
                    should_stop=over_budget,
                )
            )
            stats = EnumerationStats(
                fingerprint=stream.fingerprint,
                mode="diverse",
                cost_spec=stream.cost_spec,
                emitted=len(kept),
                expansions=stream.expansions,
                init_seconds=meta["init_seconds"],
                context_cached=meta["context_cached"],
                elapsed_seconds=time.perf_counter() - started,
                engine=stream.engine_name,
                exhausted=stream.exhausted,
                timed_out=timed_out,
                preprocessed=isinstance(stream, ComposedRankedStream),
                kernel=self._kernel,
            )
        finally:
            stream.close()
        return EnumerationResponse(
            results=tuple(kept), stats=stats, checkpoint=None
        )

    def _execute_decompositions(
        self,
        request: EnumerationRequest,
        graph: Graph,
        started: float,
        context: TriangulationContext | None,
    ) -> EnumerationResponse:
        limit = request.result_limit
        if limit == 0:
            return self._empty_response(request, graph, started)
        stream, meta = self._open(
            graph,
            request.cost,
            width_bound=request.width_bound,
            context=context,
            preprocess=request.preprocess,
        )
        results: list[RankedDecomposition] = []
        timed_out = False
        truncated = False
        try:
            for ranked in _expand_decompositions(
                stream, request.per_triangulation
            ):
                results.append(ranked)
                if limit is not None and len(results) >= limit:
                    truncated = True
                    break
                if (
                    request.time_budget is not None
                    and time.perf_counter() - started > request.time_budget
                ):
                    timed_out = True
                    break
            stats = EnumerationStats(
                fingerprint=stream.fingerprint,
                mode="decompositions",
                cost_spec=stream.cost_spec,
                emitted=len(results),
                expansions=stream.expansions,
                init_seconds=meta["init_seconds"],
                context_cached=meta["context_cached"],
                elapsed_seconds=time.perf_counter() - started,
                engine=stream.engine_name,
                exhausted=stream.exhausted and not truncated and not timed_out,
                timed_out=timed_out,
                preprocessed=isinstance(stream, ComposedRankedStream),
                kernel=self._kernel,
            )
        finally:
            stream.close()
        return EnumerationResponse(
            results=tuple(results), stats=stats, checkpoint=None
        )

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def top(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        k: int | None = 10,
        *,
        width_bound: int | None = None,
        time_budget: float | None = None,
        answer_budget: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
    ) -> EnumerationResponse:
        """The ``k`` cheapest minimal triangulations, with a resume token."""
        request = EnumerationRequest(
            graph=graph,
            cost=cost,
            k=k,
            mode="ranked",
            width_bound=width_bound,
            time_budget=time_budget,
            answer_budget=answer_budget,
            preprocess=preprocess,
        )
        return self.execute(request, context=context)

    def diverse(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        k: int = 10,
        *,
        min_distance: int = 1,
        scan_limit: int | None = None,
        width_bound: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
    ) -> EnumerationResponse:
        """Up to ``k`` low-cost, pairwise-``min_distance``-separated results."""
        request = EnumerationRequest(
            graph=graph,
            cost=cost,
            k=k,
            mode="diverse",
            min_distance=min_distance,
            scan_limit=scan_limit,
            width_bound=width_bound,
            preprocess=preprocess,
        )
        return self.execute(request, context=context)

    def decompositions(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        k: int | None = 10,
        *,
        per_triangulation: int | None = None,
        width_bound: int | None = None,
        context: TriangulationContext | None = None,
        preprocess: bool | None = None,
    ) -> EnumerationResponse:
        """The ``k`` cheapest proper tree decompositions."""
        request = EnumerationRequest(
            graph=graph,
            cost=cost,
            k=k,
            mode="decompositions",
            per_triangulation=per_triangulation,
            width_bound=width_bound,
            preprocess=preprocess,
        )
        return self.execute(request, context=context)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def resume_stream(
        self,
        checkpoint: "StreamCheckpoint | ComposedCheckpoint | bytes",
        *,
        cost: "str | object | None" = None,
    ) -> "RankedStream | ComposedRankedStream":
        """Reopen a paused stream; continues the exact emission sequence.

        Accepts either checkpoint kind: tokens from direct streams and
        from preprocessed (composed) streams both resume here, each with
        its own pipeline, each continuing bit-for-bit.
        """
        stream, _meta = self._reopen(checkpoint, cost=cost)
        return stream

    def _reopen_composed(
        self,
        checkpoint: ComposedCheckpoint,
        *,
        cost: "str | object | None" = None,
    ) -> tuple[ComposedRankedStream, dict]:
        graph = checkpoint.restore_graph()
        if graph_fingerprint(graph) != checkpoint.fingerprint:
            raise ValueError(
                "checkpoint fingerprint does not match its embedded graph; "
                "the token is corrupted"
            )
        spec = checkpoint.cost_spec
        if (
            cost is not None
            and isinstance(cost, str)
            and cost != spec
        ):
            raise ValueError(
                f"checkpoint was taken under cost {spec!r} "
                f"but resume requested {cost!r}"
            )
        composition = composition_for(spec)
        if composition is None:
            raise ValueError(
                f"cost {spec!r} no longer declares a composition; "
                "cannot resume a preprocessed checkpoint"
            )
        cached_flags: list[bool] = []
        init_seconds = [0.0]

        def resume_piece(atom_graph: Graph, piece_checkpoint):
            entry, fp, cached = self._entry_for(
                atom_graph, checkpoint.width_bound
            )
            if fp != piece_checkpoint.fingerprint:
                raise ValueError(
                    "a piece checkpoint does not match its atom's graph; "
                    "the token is corrupted"
                )
            cached_flags.append(cached)
            init_seconds[0] += entry.context.init_seconds
            cost_obj = resolve_cost(spec, entry.context.graph)
            prepared = self._prepared(entry, spec, cost_obj, fp)
            return RankedStream.from_checkpoint(
                entry.context,
                cost_obj,
                piece_checkpoint,
                prepared=prepared,
            )

        stream = ComposedRankedStream.from_checkpoint(
            checkpoint,
            resolve_cost(spec, graph),
            composition,
            resume_piece=resume_piece,
        )
        meta = {
            "context_cached": bool(cached_flags) and all(cached_flags),
            "init_seconds": init_seconds[0],
        }
        return stream, meta

    def _reopen(
        self,
        checkpoint: "StreamCheckpoint | ComposedCheckpoint | bytes",
        *,
        cost: "str | object | None" = None,
    ) -> "tuple[RankedStream | ComposedRankedStream, dict]":
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = load_checkpoint(bytes(checkpoint))
        if isinstance(checkpoint, ComposedCheckpoint):
            return self._reopen_composed(checkpoint, cost=cost)
        if checkpoint.exhausted:
            stream = RankedStream.from_checkpoint(None, None, checkpoint)
            return stream, {"context_cached": False, "init_seconds": 0.0}
        entry, fp, cached = self._entry_for_checkpoint(checkpoint)
        spec: str | None
        if cost is None:
            spec = checkpoint.cost_spec
            if spec is None:
                raise ValueError(
                    "checkpoint was created from a BagCost object and carries "
                    "no cost registry name; pass cost= to resume"
                )
            cost_obj = resolve_cost(spec, entry.context.graph)
        else:
            spec = cost if isinstance(cost, str) else None
            if (
                spec is not None
                and checkpoint.cost_spec is not None
                and spec != checkpoint.cost_spec
            ):
                raise ValueError(
                    f"checkpoint was taken under cost {checkpoint.cost_spec!r} "
                    f"but resume requested {spec!r}"
                )
            cost_obj = resolve_cost(cost, entry.context.graph)
        prepared = self._prepared(entry, spec, cost_obj, fp)
        stream = RankedStream.from_checkpoint(
            entry.context,
            cost_obj,
            checkpoint,
            prepared=prepared,
        )
        meta = {
            "context_cached": cached,
            "init_seconds": entry.context.init_seconds,
        }
        return stream, meta

    def _entry_for_checkpoint(
        self, checkpoint: StreamCheckpoint
    ) -> tuple[_CacheEntry, str, bool]:
        """The cache entry a direct checkpoint resumes on.

        A warm entry for the token's ``(fingerprint, width bound)`` whose
        graph encodes to the token's graph section is looked up again
        under its own graph: the encoding is canonical, so equal bytes are
        the same graph, and nothing is rebuilt or re-hashed.  Otherwise (a
        cold resume) the graph is restored from the token and must hash
        to its fingerprint.
        """
        fp = checkpoint.fingerprint
        with self._lock:
            entry = self._contexts.get((fp, checkpoint.width_bound))
        # Compared outside the lock: the first checkpoint or resume on a
        # context encodes its graph section.
        if entry is not None and entry.context.token_graph() == checkpoint.graph:
            graph = entry.context.graph
        else:
            graph = checkpoint.restore_graph()
            if graph_fingerprint(graph) != fp:
                raise ValueError(
                    "checkpoint fingerprint does not match its embedded graph; "
                    "the token is corrupted"
                )
        return self._entry_for(graph, checkpoint.width_bound, fp=fp)

    def resume(
        self,
        checkpoint: "StreamCheckpoint | ComposedCheckpoint | bytes",
        *,
        k: int | None = None,
        cost: "str | object | None" = None,
        time_budget: float | None = None,
    ) -> EnumerationResponse:
        """Serve the next ``k`` answers after a checkpoint (all if ``None``).

        The concatenation of the emitting call's results and this call's
        results is bit-identical to one uninterrupted run; the response
        carries the next checkpoint, so pagination chains indefinitely.

        With a disk store attached, a checkpoint whose position is
        already covered by a cached answer prefix replays the cached
        frames (skipping the delivered ones) instead of re-running the
        enumeration; live continuations publish their stretch back.
        """
        started = time.perf_counter()
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = load_checkpoint(bytes(checkpoint))
        answers = AnswerCache.for_checkpoint(self._store, checkpoint)
        # A cost mismatch skips the replay: the live path raises it.
        if (
            answers is not None
            and not checkpoint.exhausted
            and not (isinstance(cost, str) and cost != checkpoint.cost_spec)
        ):
            page = answers.replay(
                answers.load(), checkpoint.restore_graph, checkpoint.next_rank, k
            )
            if page is not None:
                return self._replayed(answers, page, started)
        stream, meta = self._reopen(checkpoint, cost=cost)
        response = self._collect_ranked(stream, meta, k, time_budget, started)
        if answers is not None:
            self._write_back(answers, checkpoint.next_rank, response)
        return response
