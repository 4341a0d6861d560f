"""In-memory spans around the library's public calls, for traced runs.

Wrappers are installed from here, at the names the callers look up
(``repro.engine.strategy.expand_job`` rather than its defining module),
and removed afterwards.  Each span records its name, start, end, parent
span and the request ID the benchmark assigned.  ``ConstrainedCost.evaluate``
runs ~10^5-10^6 times per run, so its calls are folded into running totals
(count, time, feasible) instead of one span each; every span records the
evaluate time spent inside it, so self times still subtract it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from .common import median

#: Span names that count as time of each per-layer metric.
CONTEXT_BUILD = "context.build"
MINSEPS = "context.minseps"
PMCS = "context.pmcs"
PLAN = "preprocess.plan"
BASE_DP = "base_dp"
EXPAND = "expand"
STREAM_NEXT = "stream.next"
SESSION_OPEN = "session.open"
CHECKPOINT = "api.checkpoint"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent, request, evaluate seconds inside]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None
        # evaluate calls, seconds, feasible results: a list, so the hot
        # wrapper updates it without attribute lookups
        self.evaluate = [0, 0.0, 0]
        self.expand_useful = 0
        self.pmcs_found = 0
        self.opened = 0
        self.opened_composed = 0
        self.token_sizes: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active = False

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.request, self.evaluate[1]]
        )
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = self.evaluate[1] - span[5]
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call (when tracing is on)."""
        index = self.open(name) if self.active else None
        try:
            yield
        finally:
            if index is not None:
                self.close(index)

    # -- wrappers ------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = functools.wraps(original)(make(original))
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self._restore.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if note is not None:
                    note(result)
                return result

            return traced

        self._patch(owner, attr, make)

    def wrap_evaluate(self, owner) -> None:
        from repro.costs.base import INFEASIBLE

        tracer = self
        totals = self.evaluate
        clock = time.perf_counter

        def make(original):
            def traced(cost, graph, bags):
                if not tracer.active:
                    return original(cost, graph, bags)
                started = clock()
                value = original(cost, graph, bags)
                totals[1] += clock() - started
                totals[0] += 1
                if value < INFEASIBLE:
                    totals[2] += 1
                return value

            return traced

        self._patch(owner, "evaluate", make)

    def install_library(self) -> None:
        """Wrap every library layer the per-layer table names."""
        import repro.api.session as session_mod
        import repro.core.context as context_mod
        import repro.engine.strategy as strategy_mod
        from repro.api.stream import RankedStream
        from repro.core.context import TriangulationContext
        from repro.costs.constrained import ConstrainedCost
        from repro.preprocess.recompose import ComposedRankedStream, PreprocessPlan

        def count_pmcs(result) -> None:
            self.pmcs_found += len(result)

        def count_useful(result) -> None:
            if result is not None:
                self.expand_useful += 1

        def count_open(result) -> None:
            self.opened += 1
            if isinstance(result, ComposedRankedStream):
                self.opened_composed += 1

        self.wrap(TriangulationContext, "build", CONTEXT_BUILD)
        self.wrap(context_mod, "minimal_separator_masks", MINSEPS)
        self.wrap(context_mod, "potential_maximal_clique_masks", PMCS, note=count_pmcs)
        self.wrap(PreprocessPlan, "build", PLAN)
        self.wrap(session_mod, "min_triangulation_and_table", BASE_DP)
        self.wrap(strategy_mod, "expand_job", EXPAND, note=count_useful)
        self.wrap(RankedStream, "__next__", STREAM_NEXT)
        self.wrap(session_mod.Session, "stream", SESSION_OPEN, note=count_open)
        self.wrap(session_mod.Session, "resume_stream", SESSION_OPEN)
        self.wrap_evaluate(ConstrainedCost)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        self.active = False

    # -- results -------------------------------------------------------
    def _children_time(self) -> dict[int, float]:
        """Per span: time covered by its direct child spans and by the
        evaluate calls made directly in it (not inside a child span)."""
        covered: dict[int, float] = {}
        for index, (_name, start, end, parent, _request, inside) in enumerate(self.spans):
            covered[index] = covered.get(index, 0.0) + inside
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start) - inside
        return covered

    def layer_metrics(self) -> dict[str, tuple[float, str, int]]:
        """Per-layer metrics as ``name -> (value, unit, samples)``."""
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        self_time: dict[str, float] = {}
        covered = self._children_time()
        for index, (name, start, end, _parent, _request, _inside) in enumerate(self.spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            count[name] = count.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration - covered.get(index, 0.0)

        def ms(name: str) -> float:
            return 1000.0 * total.get(name, 0.0)

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        expand_calls = count.get(EXPAND, 0)
        evaluate_calls, evaluate_seconds, feasible = self.evaluate
        return {
            "context.builds": (count.get(CONTEXT_BUILD, 0), "count", count.get(CONTEXT_BUILD, 0)),
            "context.build_ms": (ms(CONTEXT_BUILD), "ms", count.get(CONTEXT_BUILD, 0)),
            "context.minseps_ms": (ms(MINSEPS), "ms", count.get(MINSEPS, 0)),
            "context.pmcs_ms": (ms(PMCS), "ms", count.get(PMCS, 0)),
            "context.pmcs_found": (self.pmcs_found, "count", count.get(PMCS, 0)),
            "preprocess.plan_ms": (ms(PLAN), "ms", count.get(PLAN, 0)),
            "preprocess.composed_share": (
                share(self.opened_composed, self.opened), "share", self.opened,
            ),
            "base_dp.calls": (count.get(BASE_DP, 0), "count", count.get(BASE_DP, 0)),
            "base_dp.ms": (ms(BASE_DP), "ms", count.get(BASE_DP, 0)),
            "expand.calls": (expand_calls, "count", expand_calls),
            "expand.ms": (ms(EXPAND), "ms", expand_calls),
            "expand.useful_share": (share(self.expand_useful, expand_calls), "share", expand_calls),
            "evaluate.calls": (evaluate_calls, "count", evaluate_calls),
            "evaluate.ms": (1000.0 * evaluate_seconds, "ms", evaluate_calls),
            "evaluate.feasible_share": (
                share(feasible, evaluate_calls), "share", evaluate_calls,
            ),
            "stream.self_ms": (
                1000.0 * self_time.get(STREAM_NEXT, 0.0), "ms", count.get(STREAM_NEXT, 0),
            ),
            "session.open_self_ms": (
                1000.0 * self_time.get(SESSION_OPEN, 0.0), "ms", count.get(SESSION_OPEN, 0),
            ),
            "api.checkpoint_ms": (ms(CHECKPOINT), "ms", count.get(CHECKPOINT, 0)),
            "api.token_bytes_p50": (
                median(self.token_sizes), "bytes", len(self.token_sizes),
            ),
        }

    def stream_ms(self) -> float:
        """Total time inside ``RankedStream.__next__``."""
        return 1000.0 * sum(s[2] - s[1] for s in self.spans if s[0] == STREAM_NEXT)

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, request, and the
        evaluate seconds spent inside the span."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
