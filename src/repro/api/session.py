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
from types import SimpleNamespace

from ..cache.answers import AnswerCache, preprocess_applies_for
from ..cache.store import context_key, open_store, plan_key, prepared_key
from ..core.context import TriangulationContext
from ..core.mintriang import min_triangulation_and_table
from ..costs.registry import resolve_cost
from ..graphs.graph import Graph
from ..graphs.io import read_graph
from ..graphs.kernels import validate_kernel
from ..preprocess.recompose import (
    ComposedCheckpoint,
    ComposedRankedStream,
    PreprocessPlan,
    composition_for,
)
from .checkpoint import StreamCheckpoint, load_checkpoint
from .fingerprint import graph_fingerprint
from .job import Job, _expand_decompositions, replayed_stats
from .request import EnumerationRequest, check_bounds
from .response import EnumerationResponse
from .stream import RankedStream

__all__ = ["Session"]


def _meta(opened: list) -> dict:
    """The open record :class:`~repro.api.job.Job` reports: warm when
    the stream opened at least one cache entry and every one was warm;
    the init seconds of the entries it opened, warm or not, summed."""
    return {
        "context_cached": bool(opened) and all(warm for warm, _ in opened),
        "init_seconds": sum((seconds for _, seconds in opened), 0.0),
    }


def _check_connected(graph: Graph) -> None:
    """The direct pipeline's refusal of a disconnected graph."""
    if not graph.is_connected():
        raise ValueError(
            "ranked enumeration requires a connected graph; "
            "enumerate per component instead (or enable preprocess "
            "with a composable cost, which splits components "
            "automatically)"
        )


def _check_decomposable(graph: Graph) -> None:
    """Decompositions mode's refusal of a disconnected graph (clique
    forests, not trees), made before any plan or context is built."""
    if not graph.is_connected():
        raise ValueError("decompositions mode requires a connected graph; "
                         "decompose each component separately")


class _CacheEntry:
    """One cached context plus its per-cost-spec prepared DP tables."""

    __slots__ = ("context", "prepared")

    def __init__(self, context: TriangulationContext) -> None:
        self.context = context
        # cost spec (registry name) -> (first, unconstrained table)
        self.prepared: dict[str, tuple] = {}


class Session:
    """A build-once context cache plus the typed enumeration entry points.

    Every context the cache holds was built by the session itself, over
    a private snapshot of the request graph, and is filed under that
    snapshot's fingerprint.  To stream over a context built elsewhere,
    call :meth:`RankedStream.start <repro.api.stream.RankedStream.start>`
    on it directly.

    Parameters
    ----------
    max_contexts:
        LRU capacity of the context cache (per ``(fingerprint,
        width_bound)`` key).
    kernel:
        Graph kernel used when this session builds a context:
        ``"bitset"`` (default, the mask-level kernel) or ``"sets"`` (the
        label-level reference).  Both serve bit-identical enumeration
        sequences — see the README "Performance" section.
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
        other session on the same directory (they all open its one
        sqlite file).  The session opens its own handle on the store
        and :meth:`close` closes it.  Answers served from the store are
        byte-identical to cold builds (CI proves this differentially on
        the golden corpus).
    """

    def __init__(
        self,
        max_contexts: int = 8,
        kernel: str = "bitset",
        preprocess: bool = True,
        cache_dir: "str | None" = None,
    ) -> None:
        if max_contexts < 1:
            raise ValueError(f"max_contexts must be >= 1, got {max_contexts}")
        self._max_contexts = max_contexts
        self._kernel = validate_kernel(kernel)
        self._preprocess = bool(preprocess)
        self._store = open_store(cache_dir)
        self._contexts: OrderedDict[tuple[str, int | None], _CacheEntry] = (
            OrderedDict()
        )
        self._plans: OrderedDict[tuple[str, bool], PreprocessPlan] = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        # Keys being built, and the condition their waiters wait on.
        self._building: set[tuple] = set()
        self._built = threading.Condition(self._lock)
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

    def _entry_for(
        self,
        graph: Graph,
        width_bound: int | None,
        fp: str | None = None,
        separator_masks: frozenset[int] | None = None,
    ) -> tuple[_CacheEntry, str, bool]:
        """The cache entry of ``graph`` under ``(fp, width_bound)``, ``fp``
        being its fingerprint (hashed here unless the caller has it).

        This is the one way into the context cache: a miss builds the
        context over a private snapshot of ``graph`` (or takes the disk
        store's), and concurrent misses on one key share that build,
        which reuses ``separator_masks`` (``MinSep(G)`` over ``graph``'s
        vertex order) if given.
        """
        fp = fp or graph_fingerprint(graph)
        key = (fp, width_bound)

        def lookup():
            entry = self._recall(self._contexts, key)
            if entry is not None:
                self._hits += 1
                return entry, fp, True
            return None

        def build():
            with self._lock:
                self._misses += 1

            def compute():
                # Snapshot the graph first — the cache key is
                # content-based, so a caller mutating their graph object
                # afterwards must not be able to poison the entry it was
                # fingerprinted under.
                context = TriangulationContext.build(
                    graph.copy(),
                    width_bound=width_bound,
                    kernel=self._kernel,
                    separator_masks=separator_masks,
                )
                with self._lock:
                    self._builds += 1
                return context

            context = self._through_store(
                "context",
                context_key(fp, width_bound, self._kernel),
                lambda obj: isinstance(obj, TriangulationContext)
                and obj.kernel == self._kernel
                and obj.width_bound == width_bound,
                compute,
            )
            with self._lock:
                entry = self._remember(self._contexts, key, _CacheEntry(context))
            return entry, fp, False

        return self._single_flight(("context", key), lookup, build)

    def _single_flight(self, key: tuple, lookup, build):
        """``lookup()``'s hit, or else ``build()``'s result, with one build
        per key at a time: the first thread to miss builds with no lock
        held; the others wait for it and look again, so they are served
        its result (or one of them builds in its place, if it raised)."""
        with self._lock:
            found = lookup()
            while found is None and key in self._building:
                self._built.wait()
                found = lookup()
            if found is not None:
                return found
            self._building.add(key)
        try:
            return build()
        finally:
            with self._lock:
                self._building.discard(key)
                self._built.notify_all()

    @staticmethod
    def _recall(cache: OrderedDict, key):
        """``cache[key]`` marked most recent, or ``None`` (lock held)."""
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value

    def _remember(self, cache: OrderedDict, key, value):
        """Store ``value`` as newest; evict the oldest past ``max_contexts``."""
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self._max_contexts:
            cache.popitem(last=False)
        return value

    def _through_store(self, kind: str, key: str, accept, compute):
        """The ``kind`` artifact the disk store holds under ``key`` when
        ``accept`` takes it; otherwise ``compute()``'s, published back.
        Without a store, ``compute()``'s."""
        if self._store is None:
            return compute()
        stored = self._store.get(kind, key)
        if accept(stored):
            return stored
        value = compute()
        self._store.put(kind, key, value)
        return value

    def _prepared(
        self,
        entry: _CacheEntry,
        spec: str | None,
        cost: object,
        fingerprint: str,
    ) -> tuple | None:
        """Cached ``(first, unconstrained table)`` for a registry cost.

        The service scheduler opens streams from several executor threads
        at once: threads that miss on one spec together share one DP run,
        which holds no lock, so every stream sees one canonical table.
        A memory miss goes through the disk store, if one is attached.
        """
        if spec is None:
            return None

        def build():
            context = entry.context
            pair = self._through_store(
                "prepared",
                prepared_key(fingerprint, spec, context.width_bound, context.kernel),
                lambda obj: isinstance(obj, tuple) and len(obj) == 2,
                lambda: min_triangulation_and_table(context, cost),
            )
            with self._lock:
                entry.prepared[spec] = pair
            return pair

        return self._single_flight(
            ("prepared", entry, spec), lambda: entry.prepared.get(spec), build
        )

    @property
    def kernel_name(self) -> str:
        """The kernel this session builds contexts with (what cache keys carry)."""
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
        """Drop every cached context, prepared table and preprocess plan,
        and close the store handle (opened from ``cache_dir`` or the
        environment), if any."""
        with self._lock:
            self._contexts.clear()
            self._plans.clear()
        if self._store is not None:
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

        def build():
            plan = self._through_store(
                "plan",
                plan_key(fp, duplicate_sensitive),
                lambda obj: isinstance(obj, PreprocessPlan),
                lambda: PreprocessPlan.build(
                    graph, duplicate_sensitive=duplicate_sensitive
                ),
            )
            with self._lock:
                return self._remember(self._plans, key, plan)

        return self._single_flight(
            ("plan", key), lambda: self._recall(self._plans, key), build
        )

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def stream(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        *,
        width_bound: int | None = None,
        preprocess: bool | None = None,
    ) -> "RankedStream | ComposedRankedStream":
        """Open a resumable cost-ranked stream over ``graph``.

        ``preprocess=None`` defers to the session default; when
        preprocessing applies, the returned stream is a
        :class:`~repro.preprocess.recompose.ComposedRankedStream` with
        the same iteration/checkpoint surface.
        """
        return self._open(
            graph, cost, width_bound=width_bound, preprocess=preprocess
        )[0]

    def _preprocess_flag(self, preprocess: bool | None) -> bool:
        """A request's ``preprocess`` flag, the session default filled in.

        With a registry-name cost it decides both the pipeline and the
        keys of the request's :class:`~repro.cache.answers.AnswerCache`,
        through the one rule
        :func:`~repro.cache.answers.preprocess_applies_for` (the service
        scheduler applies it too, before any session exists).
        """
        return self._preprocess if preprocess is None else preprocess

    def _open(
        self,
        graph: Graph | str,
        cost: "str | object",
        *,
        width_bound: int | None = None,
        preprocess: bool | None = None,
        fp: str | None = None,
    ) -> "tuple[RankedStream | ComposedRankedStream, list]":
        """A fresh stream over ``graph``, and its open record: one
        ``(warm, init seconds)`` pair per cache entry it opened."""
        if isinstance(graph, str):
            graph = read_graph(graph)
        # One fingerprint per request: the plan, the context entry and
        # the stream all key on it.
        fp = fp or graph_fingerprint(graph)
        spec = cost if isinstance(cost, str) else None
        opened: list = []
        if graph.num_vertices() == 0:
            return RankedStream.start(None, None, cost_spec=spec, fingerprint=fp), opened
        separator_masks = None
        if spec is not None and preprocess_applies_for(
            spec, self._preprocess_flag(preprocess)
        ):
            composition = composition_for(spec)
            plan = self._plan_for(graph, fp, composition.duplicate_sensitive)
            if not plan.trivial:
                # One cached context per variable atom.
                stream = ComposedRankedStream.start(
                    plan,
                    resolve_cost(spec, plan.graph),
                    composition,
                    cost_spec=spec,
                    fingerprint=fp,
                    width_bound=width_bound,
                    open_piece=lambda atom: self._piece(
                        self._entry_for(atom, width_bound), spec, spec, opened
                    ),
                )
                return stream, opened
            # The plan's masks follow its snapshot's vertex order, which
            # the fingerprint ignores.
            if plan.separator_masks is not None and list(
                plan.graph.vertices
            ) == list(graph.vertices):
                separator_masks = plan.separator_masks
        _check_connected(graph)
        found = self._entry_for(
            graph, width_bound, fp=fp, separator_masks=separator_masks
        )
        return self._piece(found, cost, spec, opened), opened

    def _check_open(
        self, graph: Graph, cost: "str | object", preprocess: bool | None
    ) -> None:
        """Raise what :meth:`_open` raises for ``graph`` and ``cost``
        before a first answer, building nothing: a disconnected graph on
        the direct pipeline, then a cost that does not resolve."""
        if graph.num_vertices() == 0:
            return
        if not (
            isinstance(cost, str)
            and preprocess_applies_for(cost, self._preprocess_flag(preprocess))
        ):
            _check_connected(graph)
        resolve_cost(cost, graph)

    def _piece(
        self,
        found: "tuple[_CacheEntry, str, bool]",
        cost: "str | object",
        spec: str | None,
        opened: list,
        checkpoint: StreamCheckpoint | None = None,
    ) -> RankedStream:
        """A ranked stream over one cache entry: the whole graph's, or
        one variable atom's.

        ``found`` is the ``(entry, fingerprint, warm)`` triple of
        :meth:`_entry_for`.  Resolves ``cost`` on the entry's graph,
        fetches the prepared table of ``spec`` (its registry name, if
        any), and starts at rank 0 or resumes from ``checkpoint``;
        appends ``(warm, init seconds)`` to ``opened``.
        """
        entry, fp, cached = found
        context = entry.context
        opened.append((cached, context.init_seconds))
        cost_obj = resolve_cost(cost, context.graph)
        prepared = self._prepared(entry, spec, cost_obj, fp)
        if checkpoint is None:
            return RankedStream.start(
                context, cost_obj, cost_spec=spec, fingerprint=fp,
                prepared=prepared,
            )
        return RankedStream.from_checkpoint(
            context, cost_obj, checkpoint, prepared=prepared
        )

    def decomposition_stream(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        *,
        per_triangulation: int | None = None,
        width_bound: int | None = None,
        preprocess: bool | None = None,
    ):
        """Proper tree decompositions by increasing cost (Proposition 6.1).

        Expands each enumerated triangulation into its clique trees,
        optionally capped at ``per_triangulation`` trees each
        (``1`` = bag-distinct results only; a cap below 1 raises
        :class:`ValueError`, and so does a disconnected graph).  Returns
        a generator; closing it closes the underlying stream.
        """
        check_bounds(SimpleNamespace(per_triangulation=per_triangulation))
        if isinstance(graph, str):
            graph = read_graph(graph)
        _check_decomposable(graph)
        stream = self.stream(
            graph, cost, width_bound=width_bound, preprocess=preprocess
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
    def job(
        self,
        request=None,
        *,
        graph: Graph | None = None,
        fingerprint: str | None = None,
        checkpoint: "StreamCheckpoint | ComposedCheckpoint | bytes | None" = None,
        cost: "str | object | None" = None,
        emitted: int = 0,
        limit: int | None = None,
        deadline: float | None = None,
        cancel: "threading.Event | None" = None,
    ) -> Job:
        """Open one request's :class:`~repro.api.job.Job`.

        ``request`` is an :class:`~repro.api.request.EnumerationRequest`
        or a service request (both name their fields alike); ``None``
        means a plain ranked continuation of ``checkpoint``.  With a
        ``checkpoint`` the job reopens it (``cost`` as in
        :meth:`resume`), and ``emitted`` counts the answers delivered
        before it; otherwise it opens the request on ``graph`` (default:
        the request's own; ``fingerprint`` is its hash, if the caller
        has it) through this session's caches, and a ranked request
        gets the answers tier of its keys.  A fresh request for zero
        answers opens nothing, but refuses what a request for one would
        refuse before its answer (:meth:`_check_open`).  The page's stop
        rule: ``cancel`` (a :class:`threading.Event`), ``deadline`` (a
        :func:`time.monotonic` instant) and ``limit`` (a cap on
        ``emitted``), checked in that order before every answer
        (:meth:`Job.take <repro.api.job.Job.take>`).
        """
        started = time.monotonic()
        stream = answers = None
        opened: list = []
        if checkpoint is not None:
            if isinstance(checkpoint, (bytes, bytearray)):
                checkpoint = load_checkpoint(bytes(checkpoint))
            stream, opened = self._reopen(checkpoint, cost=cost)
            answers = AnswerCache.for_checkpoint(self._store, checkpoint)
        else:
            if graph is None:
                graph = request.graph
            if isinstance(graph, str):
                graph = read_graph(graph)
            fingerprint = fingerprint or graph_fingerprint(graph)
            if request.mode == "diverse" and request.k is None:
                raise ValueError("diverse mode requires k")
            if request.mode == "decompositions":
                _check_decomposable(graph)
            if request.k == 0:
                self._check_open(graph, request.cost, request.preprocess)
            else:
                stream, opened = self._open(
                    graph,
                    request.cost,
                    width_bound=request.width_bound,
                    preprocess=request.preprocess,
                    fp=fingerprint,
                )
                if request.mode == "ranked":
                    answers = AnswerCache.for_request(
                        self._store, fingerprint, request.cost,
                        request.width_bound,
                        self._preprocess_flag(request.preprocess),
                    )
        if stream is not None:
            fingerprint, cost_spec = stream.fingerprint, stream.cost_spec
        else:
            cost_spec = request.cost if isinstance(request.cost, str) else None
        return Job(
            request, stream, meta=_meta(opened), answers=answers,
            kernel=self._kernel, fingerprint=fingerprint, cost_spec=cost_spec,
            started=started, emitted=emitted,
            limit=limit, deadline=deadline, cancel=cancel,
        )

    def execute(self, request: EnumerationRequest) -> EnumerationResponse:
        """Serve one :class:`~repro.api.request.EnumerationRequest`.

        With a disk store attached, a ranked request first replays the
        longest head of its page the answers tier holds; a live job runs
        the rest from the head's stored frontier and writes the longer
        prefix back.
        """
        started = time.monotonic()
        graph = request.resolve_graph()
        fp = graph_fingerprint(graph)
        answers = None
        if request.mode == "ranked":
            answers = AnswerCache.for_request(
                self._store, fp, request.cost, request.width_bound,
                self._preprocess_flag(request.preprocess),
            )
        return self._serve(
            request, answers, graph, 0, request.k,
            request.time_budget, started,
            graph=graph, fingerprint=fp,
        )

    def _serve(
        self,
        request,
        answers: AnswerCache | None,
        head_graph,
        start: int,
        limit: int | None,
        time_budget: float | None,
        started: float,
        **job_kwargs,
    ) -> EnumerationResponse:
        """One page from position ``start``: the head ``answers`` can
        replay (over ``head_graph``, a graph or a callable returning
        one), then a live :class:`~repro.api.job.Job` (opened with
        ``job_kwargs``, or on the head's end) that takes the rest up to
        ``limit`` answers, under a deadline ``time_budget`` seconds
        after ``started`` (a :func:`time.monotonic` instant)."""
        head = None
        if answers is not None:
            head = answers.replay(answers.load(), head_graph, start, limit)
        if head is not None:
            replayed = head.results()
            if head.serves(limit):
                stats = replayed_stats(
                    answers, head, kernel=self._kernel, started=started
                )
                return EnumerationResponse(
                    replayed, stats, load_checkpoint(head.checkpoint)
                )
            job_kwargs.update(
                checkpoint=head.checkpoint, emitted=len(replayed)
            )
        deadline = None if time_budget is None else started + time_budget
        job = self.job(request, limit=limit, deadline=deadline, **job_kwargs)
        try:
            results = job.take()
            checkpoint = job.checkpoint()
            stats = job.finish()
        finally:
            job.close()
        if head is not None:
            results = [*replayed, *results]
        return EnumerationResponse(
            results=tuple(results), stats=stats, checkpoint=checkpoint
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
            preprocess=preprocess,
        )
        return self.execute(request)

    def diverse(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        k: int = 10,
        *,
        min_distance: int = 1,
        scan_limit: int | None = None,
        width_bound: int | None = None,
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
        return self.execute(request)

    def decompositions(
        self,
        graph: Graph | str,
        cost: "str | object" = "width",
        k: int | None = 10,
        *,
        per_triangulation: int | None = None,
        width_bound: int | None = None,
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
        return self.execute(request)

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
        return self._reopen(checkpoint, cost=cost)[0]

    def _reopen(
        self,
        checkpoint: "StreamCheckpoint | ComposedCheckpoint | bytes",
        *,
        cost: "str | object | None" = None,
    ) -> "tuple[RankedStream | ComposedRankedStream, list]":
        """The stream a checkpoint continues, and its open record (see
        :meth:`_open`).  A registry ``cost`` must be the token's own,
        whichever kind of token it is and even when it is exhausted."""
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = load_checkpoint(bytes(checkpoint))
        taken = checkpoint.cost_spec
        if isinstance(cost, str) and taken is not None and cost != taken:
            raise ValueError(
                f"checkpoint was taken under cost {taken!r} "
                f"but resume requested {cost!r}"
            )
        opened: list = []
        if isinstance(checkpoint, ComposedCheckpoint):
            graph = self._restore(checkpoint)
            composition = composition_for(taken)
            if composition is None:
                raise ValueError(
                    f"cost {taken!r} no longer declares a composition; "
                    "cannot resume a preprocessed checkpoint"
                )
            stream = ComposedRankedStream.from_checkpoint(
                checkpoint,
                resolve_cost(taken, graph),
                composition,
                resume_piece=lambda piece: self._piece(
                    self._entry_for_checkpoint(piece), taken, taken, opened, piece
                ),
                graph=graph,
            )
            return stream, opened
        if checkpoint.exhausted:
            return RankedStream.from_checkpoint(None, None, checkpoint), opened
        found = self._entry_for_checkpoint(checkpoint)
        if cost is None:
            if taken is None:
                raise ValueError(
                    "checkpoint was created from a BagCost object and carries "
                    "no cost registry name; pass cost= to resume"
                )
            cost = taken
        spec = cost if isinstance(cost, str) else None
        return self._piece(found, cost, spec, opened, checkpoint), opened

    @staticmethod
    def _restore(checkpoint: "StreamCheckpoint | ComposedCheckpoint") -> Graph:
        """The token's graph, restored; it must hash to the token's
        fingerprint."""
        graph = checkpoint.restore_graph()
        if graph_fingerprint(graph) != checkpoint.fingerprint:
            raise ValueError(
                "checkpoint fingerprint does not match its embedded graph; "
                "the token is corrupted"
            )
        return graph

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
            graph = self._restore(checkpoint)
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

        With a disk store attached, the longest head of the page that a
        cached answer prefix holds replays from disk; a live job runs the
        rest from the head's stored frontier (or from the checkpoint) and
        publishes its stretch back.
        """
        started = time.monotonic()
        if isinstance(checkpoint, (bytes, bytearray)):
            checkpoint = load_checkpoint(bytes(checkpoint))
        answers = None
        # A cost mismatch skips the replay: the live job raises it.
        if not checkpoint.exhausted and not (
            isinstance(cost, str) and cost != checkpoint.cost_spec
        ):
            answers = AnswerCache.for_checkpoint(self._store, checkpoint)
        return self._serve(
            None, answers, checkpoint.restore_graph, checkpoint.next_rank,
            k, time_budget, started, checkpoint=checkpoint, cost=cost,
        )
