"""The CKK baseline: unranked complete enumeration of minimal triangulations.

Reimplementation of the observable contract of Carmeli, Kenig and Kimelfeld
(PODS 2017), the comparison baseline of the paper's Table 2 and Figures
8–9:

* **complete** — every minimal triangulation is eventually produced;
* **incremental polynomial time** — per-result work grows with the number
  of results, with *no up-front initialization*: the first result is one
  black-box ``LB_TRIANG`` call away;
* **order-oblivious** — no cost guarantee on the output order.

Mechanism (the succinct-MIS view the paper itself uses to state
Theorem 4.2): minimal triangulations correspond to maximal sets of
pairwise-parallel minimal separators (Parra–Scheffler).  The enumerator
runs Johnson–Papadimitriou–Yannakakis-style expansion over that
correspondence, with the separator universe produced **lazily** by the
Berry–Bordat–Cogis stream instead of being precomputed (this is the
succinctness that gives CKK its instant start):

* *maximalization*: a pairwise-parallel seed ``A`` is completed to a
  maximal set by saturating ``A`` in ``G`` and running the black-box
  minimal triangulator on the result — by CKK's lemma, a minimal
  triangulation of ``G_A`` is a minimal triangulation of ``G`` whose
  separator set contains ``A``;
* *expansion*: for an emitted set ``M`` and any known separator ``S ∉ M``,
  the seed ``{T ∈ M : T ∥ S} ∪ {S}`` is maximalized.  For any target set
  ``J``, expanding the emitted set maximizing ``|M ∩ J|`` with any
  ``S ∈ J \\ M`` strictly increases that overlap, so every maximal set is
  eventually reached once every (emitted, separator) pair is tried — the
  completeness argument is insensitive to which maximal extension the
  black box picks.

Total work per emitted result grows with the number of results and
separators seen so far (incremental polynomial), and no work happens
before the first result.

What we deliberately do **not** reproduce: CKK's succinct data structures
for the beyond-poly-MS regime — neither competitor is benchmarked there.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

from ..graphs.cliquetree import minimal_separators_chordal
from ..graphs.graph import Graph, Vertex
from ..separators.berry import iter_minimal_separators
from ..separators.crossing import SeparatorFamily
from ..triangulation.lb_triang import lb_triang
from ..triangulation.saturate import saturate_separators

Separator = frozenset[Vertex]
Triangulator = Callable[[Graph], Graph]

__all__ = ["CKKResult", "ckk_enumeration"]


@dataclass(frozen=True)
class CKKResult:
    """One triangulation emitted by the CKK baseline."""

    triangulation: Graph
    separators: frozenset[Separator]
    rank: int
    elapsed_seconds: float


def ckk_enumeration(
    graph: Graph,
    triangulator: Triangulator | None = None,
    chunk: int | None = None,
) -> Iterator[CKKResult]:
    """Enumerate all minimal triangulations of ``graph``, unranked.

    Parameters
    ----------
    graph:
        A connected graph.
    triangulator:
        Black-box minimal triangulator (default: LB_TRIANG with the
        min-degree order, the paper's choice for CKK).
    chunk:
        How many separators to pull from the lazy Berry–Bordat–Cogis
        stream per expansion round (default ``max(4, |V|)``); only a
        pacing knob, not a correctness one.

    Yields
    ------
    :class:`CKKResult` in discovery (FIFO) order.
    """
    started = time.perf_counter()
    if graph.num_vertices() == 0:
        return
    if not graph.is_connected():
        raise ValueError("CKK enumeration requires a connected graph")
    if triangulator is None:
        triangulator = lb_triang
    if chunk is None:
        chunk = max(4, graph.num_vertices())

    family = SeparatorFamily(graph)
    separator_stream = iter_minimal_separators(graph)
    pool: list[Separator] = []
    pool_set: set[Separator] = set()

    def pull_separators(count: int) -> bool:
        pulled = False
        for s in islice(separator_stream, count):
            if s not in pool_set:
                pool_set.add(s)
                pool.append(s)
                family.add(s)
            pulled = True
        return pulled

    def admit_to_pool(separators: frozenset[Separator]) -> None:
        # Separators of emitted triangulations enter the pool immediately;
        # the BBC stream will eventually produce them too (set-deduped).
        for s in separators:
            if s not in pool_set:
                pool_set.add(s)
                pool.append(s)
                family.add(s)

    first = triangulator(graph)
    first_key = frozenset(minimal_separators_chordal(first))
    seen: set[frozenset[Separator]] = {first_key}
    results: list[tuple[Graph, frozenset[Separator]]] = [(first, first_key)]
    admit_to_pool(first_key)
    # next_pivot[i]: index into `pool` of the next expansion to try for
    # results[i].  The pool is append-only, so cursors never miss a pair.
    next_pivot: list[int] = [0]

    emitted = 0
    stream_done = False
    while True:
        if emitted < len(results):
            current, key = results[emitted]
            yield CKKResult(
                triangulation=current,
                separators=key,
                rank=emitted,
                elapsed_seconds=time.perf_counter() - started,
            )
            emitted += 1
            continue

        # Try pending (result, separator) expansions.
        progressed = False
        for i in range(len(results)):
            start_at = next_pivot[i]
            if start_at >= len(pool):
                continue
            next_pivot[i] = len(pool)
            _graph_i, key_i = results[i]
            for pivot in pool[start_at:]:
                if pivot in key_i:
                    continue
                seed = {s for s in key_i if not family.crosses(s, pivot)}
                seed.add(pivot)
                saturated = saturate_separators(graph, seed)
                candidate = triangulator(saturated)
                candidate_key = frozenset(minimal_separators_chordal(candidate))
                if candidate_key not in seen:
                    seen.add(candidate_key)
                    admit_to_pool(candidate_key)
                    results.append((candidate, candidate_key))
                    next_pivot.append(0)
            progressed = True
            break  # re-enter the loop so fresh results are yielded promptly
        if progressed:
            continue

        if not stream_done:
            if pull_separators(chunk):
                continue
            stream_done = True
            continue
        break
