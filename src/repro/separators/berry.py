"""Enumeration of all minimal separators (Berry, Bordat and Cogis, 1999).

A vertex set ``S`` is a *minimal (u,v)-separator* if ``u`` and ``v`` lie in
different components of ``G \\ S`` and no proper subset of ``S`` separates
them; ``S`` is a *minimal separator* if it is a minimal (u,v)-separator for
some pair.  Equivalently (and this is the workhorse predicate): ``S`` is a
minimal separator iff ``G \\ S`` has at least two *full* components — ones
whose neighborhood is exactly ``S``.

The Berry–Bordat–Cogis (BBC) algorithm starts from the separators "close to"
each vertex ``v`` (neighborhoods of the components of ``G \\ N[v]``) and
closes the set under the expansion step: for ``S`` already found and
``x ∈ S``, the neighborhoods of the components of ``G \\ (S ∪ N(x))`` are
minimal separators too.  Total time is ``O(n^3)`` per separator; the paper
uses this as the initialization step of ``RankedTriang``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from ..graphs.bitgraph import BitGraph, iter_bits
from ..graphs.graph import Graph, Vertex
from ..graphs.kernels import validate_kernel

Separator = frozenset[Vertex]

__all__ = [
    "is_minimal_separator",
    "is_minimal_uv_separator",
    "minimal_separators",
    "iter_minimal_separators",
    "iter_minimal_separator_masks",
    "minimal_separator_masks",
    "is_minimal_separator_mask",
    "full_components",
]


def full_components(graph: Graph, separator: Separator) -> list[set[Vertex]]:
    """The components of ``G \\ S`` whose neighborhood is all of ``S``."""
    full = []
    for comp in graph.components_without(separator):
        if graph.neighborhood_of_set(comp) == separator:
            full.append(comp)
    return full


def is_minimal_separator(graph: Graph, candidate: frozenset[Vertex]) -> bool:
    """Whether ``candidate`` is a minimal separator of ``graph``.

    Uses the full-component characterization: ``S`` is a minimal separator
    iff at least two components of ``G \\ S`` see all of ``S``.  The empty
    set is not considered a minimal separator (the library operates on
    connected graphs; disconnected inputs are decomposed upstream).
    """
    if not candidate:
        return False
    count = 0
    for comp in graph.components_without(candidate):
        if graph.neighborhood_of_set(comp) == candidate:
            count += 1
            if count >= 2:
                return True
    return False


def is_minimal_uv_separator(
    graph: Graph, candidate: frozenset[Vertex], u: Vertex, v: Vertex
) -> bool:
    """Whether ``candidate`` is a minimal (u,v)-separator.

    True iff ``u`` and ``v`` lie in different components of ``G \\ S`` and
    both of their components are full.
    """
    if u in candidate or v in candidate:
        return False
    comp_u = graph.component_of(u, removed=candidate)
    if v in comp_u:
        return False
    comp_v = graph.component_of(v, removed=candidate)
    return (
        graph.neighborhood_of_set(comp_u) == candidate
        and graph.neighborhood_of_set(comp_v) == candidate
    )


def _close_separators(graph: Graph, removed: set[Vertex]) -> Iterator[Separator]:
    """Neighborhoods of the components of ``G \\ removed``.

    Every such neighborhood that is non-empty and yields a full component on
    the *other* side is a minimal separator; BBC shows that filtering with
    :func:`is_minimal_separator` keeps exactly the right ones.
    """
    for comp in graph.components_without(removed):
        yield frozenset(graph.neighborhood_of_set(comp))


def iter_minimal_separators(
    graph: Graph, kernel: str = "bitset"
) -> Iterator[Separator]:
    """Yield every minimal separator of ``graph`` exactly once (BBC).

    The graph need not be connected: separators are found per component
    (the empty set is never yielded).  Yields in no particular order.
    ``kernel`` selects the execution substrate: ``"bitset"`` (default)
    runs the loop over dense bitmasks and converts each separator to a
    label frozenset on emission; ``"sets"`` is the original label-level
    path.  Both kernels emit exactly the same set of separators.
    """
    validate_kernel(kernel)
    if kernel == "bitset" and graph.num_vertices():
        bitgraph = BitGraph.from_graph(graph)
        labels_of = bitgraph.indexer.labels_of
        for mask in iter_minimal_separator_masks(bitgraph):
            yield labels_of(mask)
        return

    seen: set[Separator] = set()
    queue: deque[Separator] = deque()

    def admit(candidate: Separator) -> Iterator[Separator]:
        if candidate and candidate not in seen and is_minimal_separator(graph, candidate):
            seen.add(candidate)
            queue.append(candidate)
            yield candidate

    # Initialization: separators close to each vertex.
    for v in graph.vertices:
        for candidate in _close_separators(graph, graph.closed_neighborhood(v)):
            yield from admit(candidate)

    # Closure under the BBC expansion step.
    while queue:
        separator = queue.popleft()
        # Hoisted out of the ``x`` loop: one base set per separator, not
        # one conversion chain per member (and ``Graph.adj`` already is a
        # set, so the union below copies nothing extra).
        base = set(separator)
        for x in separator:
            removed = base | graph.adj(x)
            removed.add(x)
            for candidate in _close_separators(graph, removed):
                yield from admit(candidate)


# ---------------------------------------------------------------------------
# Bitset (mask-level) kernel
# ---------------------------------------------------------------------------
def is_minimal_separator_mask(bitgraph: BitGraph, candidate: int) -> bool:
    """Mask-level :func:`is_minimal_separator` (≥ 2 full components)."""
    if not candidate:
        return False
    count = 0
    for _comp, nbh in bitgraph.components_with_neighborhoods(
        bitgraph.full_mask & ~candidate
    ):
        if nbh == candidate:
            count += 1
            if count >= 2:
                return True
    return False


def iter_minimal_separator_masks(bitgraph: BitGraph) -> Iterator[int]:
    """Mask-level BBC enumeration: every minimal separator, once each.

    The logic is line-for-line the set-kernel loop with vertex sets
    replaced by int masks; the ``seen`` set hashes machine ints instead
    of frozensets, and components/neighborhoods are word-parallel.
    """
    adj = bitgraph.adj
    full = bitgraph.full_mask
    seen: set[int] = set()
    queue: deque[int] = deque()

    def admit(candidate: int) -> Iterator[int]:
        if (
            candidate
            and candidate not in seen
            and is_minimal_separator_mask(bitgraph, candidate)
        ):
            seen.add(candidate)
            queue.append(candidate)
            yield candidate

    for v in iter_bits(full):
        closed = adj[v] | (1 << v)
        for _comp, nbh in bitgraph.components_with_neighborhoods(full & ~closed):
            yield from admit(nbh)

    while queue:
        separator = queue.popleft()
        for x in iter_bits(separator):
            removed = separator | adj[x] | (1 << x)
            for _comp, nbh in bitgraph.components_with_neighborhoods(
                full & ~removed
            ):
                yield from admit(nbh)


def minimal_separator_masks(
    bitgraph: BitGraph,
    limit: int | None = None,
    deadline: float | None = None,
) -> set[int]:
    """Mask-level :func:`minimal_separators` (same budget semantics).

    On a tripped budget the raised :class:`SeparatorLimitExceeded`
    carries the partial result converted to label frozensets, so callers
    see the same exception payload under either kernel.
    """
    import time

    out: set[int] = set()
    labels_of = bitgraph.indexer.labels_of
    for sep in iter_minimal_separator_masks(bitgraph):
        out.add(sep)
        if limit is not None and len(out) > limit:
            raise SeparatorLimitExceeded(
                f"more than {limit} minimal separators",
                partial={labels_of(m) for m in out},
            )
        if deadline is not None and time.monotonic() > deadline:
            raise SeparatorLimitExceeded(
                "minimal separator enumeration hit its time budget",
                partial={labels_of(m) for m in out},
            )
    return out


def minimal_separators(
    graph: Graph,
    limit: int | None = None,
    deadline: float | None = None,
    kernel: str = "bitset",
) -> set[Separator]:
    """All minimal separators of ``graph`` (``MinSep(G)``).

    Parameters
    ----------
    graph:
        Input graph.
    kernel:
        ``"bitset"`` (default) enumerates over dense bitmasks and
        converts to label frozensets once per separator; ``"sets"`` is
        the original label-level path.  Identical output under both.
    limit:
        If given, raise :class:`SeparatorLimitExceeded` as soon as more than
        ``limit`` separators have been produced.  This implements the
        "poly-MS gate" the experiments use (Section 7.2): datasets where
        minimal-separator generation blows up are reported as intractable
        rather than looping forever.
    deadline:
        Optional :func:`time.monotonic` instant; passing it raises
        :class:`SeparatorLimitExceeded` too (the wall-clock budget of the
        Figure 5 tractability study).
    """
    import time

    out: set[Separator] = set()
    for sep in iter_minimal_separators(graph, kernel=kernel):
        out.add(sep)
        if limit is not None and len(out) > limit:
            raise SeparatorLimitExceeded(
                f"more than {limit} minimal separators", partial=out
            )
        if deadline is not None and time.monotonic() > deadline:
            raise SeparatorLimitExceeded(
                "minimal separator enumeration hit its time budget", partial=out
            )
    return out


class SeparatorLimitExceeded(RuntimeError):
    """Raised when a separator/PMC budget is exceeded.

    Attributes
    ----------
    partial:
        The (incomplete) set generated before the budget tripped.
    """

    def __init__(self, message: str, partial: set[Separator] | None = None) -> None:
        super().__init__(message)
        self.partial = partial if partial is not None else set()
