"""Listing all potential maximal cliques (Bouchitté and Todinca, 2002).

The enumeration processes the vertices ``v_1, …, v_n`` in BFS order (so that
prefixes of a connected graph stay connected) and maintains ``PMC(G_i)`` for
the growing induced prefix graphs ``G_i = G[{v_1..v_i}]``.  The step from
``G' = G_i`` to ``G = G_{i+1}`` (new vertex ``a``) relies on the
ONE_MORE_VERTEX theorem: every PMC ``Ω`` of ``G`` is of one of four forms,

1. ``Ω`` is a PMC of ``G'`` (or the singleton ``{a}``);
2. ``Ω = Ω' ∪ {a}`` for a PMC ``Ω'`` of ``G'``;
3. ``Ω = S ∪ {a}`` for a minimal separator ``S`` of ``G``;
4. ``Ω = S ∪ (T ∩ C)`` or ``Ω = S ∪ C`` where ``S`` is a minimal separator
   of ``G`` with ``a ∉ S``, ``C`` is **any** component of ``G \\ S``, and
   ``T`` is a minimal separator of ``G'``.

Case 4 is deliberately wider than the form usually quoted, which takes
only the component containing ``a``.  The narrow family misses PMCs: in
the 4-cycle ``0-1-2-3`` (BFS order 0, 1, 3, 2) the PMC ``{0, 1, 3}``
arises only as ``S ∪ C`` for ``S = {1, 3}`` and the component ``{0}``,
which does not hold ``a = 2``.  The brute-force cross-check on
``cycle_graph(4)`` catches the narrow family.

The label-level :func:`one_more_vertex` runs every candidate through
:func:`~repro.pmc.predicate.is_pmc` and stays the reference.  The
mask-level :func:`one_more_vertex_masks` gives each candidate form the
exact test its structure allows, over components it already holds, and
hands back each PMC ``Ω`` with the ``(C, N(C))`` components of
``G \\ Ω`` in ascending order of lowest member: all
:class:`~repro.core.context.TriangulationContext` needs to compile the
full blocks and the block DP's candidate lists, and all the next step
needs.  The rules rest on the PMC test (no component of ``G \\ Ω`` is
full, and every non-adjacent pair of ``Ω`` lies in some ``N(C)``) and on
one fact: a minimal separator has at least two full components.

* **``Ω'`` and ``Ω' ∪ {a}``, for ``Ω' ∈ PMC(G')``.**  The previous step
  stored the components of ``G' \\ Ω'``.  In ``G`` they are the
  components of ``G \\ (Ω' ∪ {a})``, with ``a`` added to the
  neighbourhood of each one that touches ``N(a)``.  None becomes full
  (none was full for ``Ω'``) and pairs inside ``Ω'`` stay covered, so
  ``Ω' ∪ {a}`` is a PMC iff ``Ω' \\ N(a) ⊆ ⋃{N(C) : C touches N(a)}``.
  In ``G \\ Ω'``, ``a`` merges with the components it touches into one
  component ``M`` with ``N(M) = (N(a) ∩ Ω') ∪ ⋃ N(C)``; coverage only
  grows and the other components keep their neighbourhoods, so ``Ω'``
  is a PMC iff ``N(M) ≠ Ω'``.  Both tests compare ``N(M)`` with ``Ω'``,
  so exactly one of the two is a PMC of ``G``.
* **``S ∪ X`` with ``X ⊆ C``, ``C`` a component of ``G \\ S``.**  Cases
  3 (``C ∋ a``, ``X = {a}``) and 4 (``X = C`` or ``T ∩ C``) both take
  this shape.  The other components of ``G \\ S`` stay components of
  ``G \\ (S ∪ X)`` with neighbourhoods inside ``S``, so none is full,
  none sees ``X``, and another full component of ``S`` covers the pairs
  inside ``S``.  What is new are the pieces ``D`` of ``C \\ X``, found
  by one search inside ``C``: ``S ∪ X`` is a PMC iff no piece has
  ``N(D) = S ∪ X`` and, for each ``x ∈ X``, the pieces that see ``x``
  cover its non-neighbours in ``S ∪ X``.  For ``X = C`` there are no
  pieces: every ``c ∈ C`` must be adjacent to all of
  ``(S ∪ C) \\ {c}``.
* **Candidates that cannot pass are never built.**  ``S ∪ {a}`` with
  ``a ∈ S`` is ``S``, which has two full components.  Case 4 runs only
  over full components: if ``c ∈ C`` and ``s ∈ S \\ N(C)``, a component
  of ``G \\ Ω`` that sees ``c`` lies in ``C`` and cannot see ``s``.

Only ``{a}`` alone still takes the generic test,
:func:`~repro.pmc.predicate.pmc_components_mask`; the tests hold every
rule above against it.

The per-prefix minimal separator sets are derived *top-down* from a single
Berry–Bordat–Cogis run on the full graph, using the vertex-removal lemma:
for every minimal separator ``S'`` of ``G − a``, either ``S'`` or
``S' ∪ {a}`` is a minimal separator of ``G``.  Hence
``MinSep(G − a) ⊆ {S, S \\ {a} : S ∈ MinSep(G)}`` and one minimality check
per candidate recovers the exact set — far cheaper than re-running BBC on
every prefix.

A ``budget`` (maximum number of PMCs) may be supplied; exceeding it raises
:class:`~repro.separators.berry.SeparatorLimitExceeded`, which the
experiment harness uses to classify graphs as "PMC-intractable"
(Figure 5 of the paper).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..graphs.bitgraph import BitGraph, VertexIndexer, iter_bits
from ..graphs.graph import Graph, Vertex
from ..graphs.kernels import KernelSpec, resolve_kernel
from ..separators.berry import (
    SeparatorLimitExceeded,
    is_minimal_separator,
    is_minimal_separator_mask,
    minimal_separator_masks,
    minimal_separators,
)
from .predicate import is_pmc, pmc_components_mask

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

__all__ = [
    "potential_maximal_cliques",
    "potential_maximal_clique_masks",
    "prefix_minimal_separators",
    "prefix_minimal_separator_masks",
    "one_more_vertex",
    "one_more_vertex_masks",
]


def prefix_minimal_separators(
    graph: Graph,
    order: Sequence[Vertex],
    full_separators: set[Separator] | None = None,
    kernel: str | KernelSpec = "sets",
) -> list[set[Separator]]:
    """``MinSep(G_i)`` for every prefix ``G_i = G[order[:i]]``, ``i = 1..n``.

    Derived top-down from ``MinSep(G)`` via the vertex-removal lemma (see
    module docstring).  ``full_separators`` may be passed when already
    computed; otherwise BBC runs once on ``graph`` under ``kernel``
    (resolved through the registry; the default stays the label-level
    oracle because this function is the reference pipeline — callers on
    a fast kernel pass the separators in, or pass their kernel here).
    """
    n = len(order)
    if full_separators is None:
        full_separators = minimal_separators(
            graph, kernel=resolve_kernel(kernel)
        )
    per_prefix: list[set[Separator]] = [set() for _ in range(n)]
    if n == 0:
        return per_prefix
    per_prefix[n - 1] = set(full_separators)
    current = graph
    for i in range(n - 1, 0, -1):
        a = order[i]
        smaller = current.without((a,))
        candidates: set[Separator] = set()
        for s in per_prefix[i]:
            candidates.add(s - {a} if a in s else s)
        per_prefix[i - 1] = {
            s for s in candidates if is_minimal_separator(smaller, s)
        }
        current = smaller
    return per_prefix


def one_more_vertex(
    bigger: Graph,
    new_vertex: Vertex,
    pmcs_smaller: set[PMC],
    minseps_smaller: set[Separator],
    minseps_bigger: set[Separator],
    budget: int | None = None,
) -> set[PMC]:
    """One step of the Bouchitté–Todinca enumeration: ``PMC(G' + a)``.

    Parameters mirror the theorem: ``bigger`` is ``G`` (already containing
    ``new_vertex = a``), ``pmcs_smaller`` / ``minseps_smaller`` describe
    ``G' = G − a``, and ``minseps_bigger`` is ``MinSep(G)``.
    """
    a = new_vertex
    out: set[PMC] = set()
    checked: set[PMC] = set()

    def consider(candidate: frozenset[Vertex]) -> None:
        if candidate in checked:
            return
        checked.add(candidate)
        if is_pmc(bigger, candidate):
            out.add(candidate)
            if budget is not None and len(out) > budget:
                raise SeparatorLimitExceeded(
                    f"more than {budget} potential maximal cliques", partial=out
                )

    # The new vertex alone (it may start a fresh component of the prefix).
    consider(frozenset((a,)))

    # Cases 1 and 2: PMCs of G', possibly extended by a.
    for om in pmcs_smaller:
        consider(om)
        consider(om | {a})

    # Case 3: S ∪ {a} for S ∈ MinSep(G).
    for s in minseps_bigger:
        consider(s | {a})

    # Case 4: S ∪ (T ∩ C) and S ∪ C, for S ∈ MinSep(G) avoiding a,
    # T ∈ MinSep(G'), C ranging over the components of G \ S.
    for s in minseps_bigger:
        if a in s:
            continue
        for comp in bigger.components_without(s):
            consider(s | comp)
            for t in minseps_smaller:
                inter = t & comp
                if inter and not inter <= s:
                    consider(s | inter)
    return out


# ---------------------------------------------------------------------------
# Bitset (mask-level) kernel
# ---------------------------------------------------------------------------
def prefix_views(bitgraph: BitGraph, order: Sequence[int]) -> list[BitGraph]:
    """The induced view of every prefix: ``views[i]`` is
    ``G[order[:i + 1]]``.  Built once, for the prefix separators and the
    ONE_MORE_VERTEX steps alike."""
    views = []
    prefix_mask = 0
    for v in order:
        prefix_mask |= 1 << v
        views.append(bitgraph.induced(prefix_mask))
    return views


def prefix_minimal_separator_masks(
    views: Sequence[BitGraph],
    order: Sequence[int],
    full_separator_masks: set[int],
) -> list[set[int]]:
    """Mask-level :func:`prefix_minimal_separators`.

    ``order`` holds vertex *indices* and ``views`` the induced bitmask
    view of each prefix (:func:`prefix_views`); the vertex-removal
    candidate ``S \\ {a}`` is a single ``& ~bit`` (covering both branches
    of the set-kernel candidate construction at once).
    """
    n = len(order)
    per_prefix: list[set[int]] = [set() for _ in range(n)]
    if n == 0:
        return per_prefix
    per_prefix[n - 1] = set(full_separator_masks)
    for i in range(n - 1, 0, -1):
        abit = 1 << order[i]
        smaller = views[i - 1]
        candidates = {s & ~abit for s in per_prefix[i]}
        per_prefix[i - 1] = {
            s for s in candidates if is_minimal_separator_mask(smaller, s)
        }
    return per_prefix


def one_more_vertex_masks(
    bigger: BitGraph,
    new_vertex: int,
    pmcs_smaller: dict[int, list[tuple[int, int]]],
    minseps_smaller: set[int],
    minseps_bigger: set[int],
    budget: int | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """Mask-level :func:`one_more_vertex`: ``PMC(G)`` with components.

    ``pmcs_smaller`` is the previous step's return value: each PMC
    ``Ω'`` of ``G' = bigger − new_vertex`` with the ``(C, N(C))``
    components of ``G' \\ Ω'``.  Returns each PMC ``Ω`` of ``bigger``
    with the ``(C, N(C))`` components of ``bigger \\ Ω``, ascending by
    lowest member index.  Each candidate is decided by its rule from the
    module docstring, in the order of the full family (cases 0–4, each
    over its inputs' iteration order) less the candidates that cannot
    pass, so PMCs are found in the order a generic test of every
    candidate finds them.
    """
    abit = 1 << new_vertex
    near = bigger.adj[new_vertex]
    out: dict[int, list[tuple[int, int]]] = {}
    checked: set[int] = set()
    labels_of = bigger.indexer.labels_of

    def found(candidate: int, components: list[tuple[int, int]]) -> None:
        out[candidate] = components
        if budget is not None and len(out) > budget:
            raise SeparatorLimitExceeded(
                f"more than {budget} potential maximal cliques",
                partial={labels_of(m) for m in out},
            )

    def consider(
        candidate: int, split: list[tuple[int, int]], comp: int, inner: int
    ) -> None:
        # candidate = S ∪ X for X = inner ⊆ C = comp, a component of G \ S.
        checked.add(candidate)
        components = _grown_components(bigger, candidate, split, comp, inner)
        if components is not None:
            found(candidate, components)

    checked.add(abit)
    components = pmc_components_mask(bigger, abit)
    if components is not None:
        found(abit, components)

    # Cases 1 and 2: exactly one of Ω' and Ω' ∪ {a} is a PMC of G.
    for om, comps in pmcs_smaller.items():
        checked.add(om)
        checked.add(om | abit)
        # M: a with the components of G' \ Ω' it touches; nbh = N(M).
        merged = abit
        nbh = near & om
        rest = []
        for comp, n in comps:
            if comp & near:
                merged |= comp
                nbh |= n
            else:
                rest.append((comp, n))
        if nbh == om:
            found(
                om | abit,
                [(c, n | abit) if c & near else (c, n) for c, n in comps],
            )
        else:
            rest.append((merged, nbh))
            rest.sort(key=_lowest_member)
            found(om, rest)

    full = bigger.full_mask
    splits = [
        (s, bigger.components_with_neighborhoods(full & ~s))
        for s in minseps_bigger
        if not s & abit
    ]
    # Case 3: S ∪ {a}, over the component of G \ S that holds a.
    for s, split in splits:
        candidate = s | abit
        if candidate not in checked:
            for comp, _n in split:
                if comp & abit:
                    consider(candidate, split, comp, abit)
                    break
    # Case 4: S ∪ C and S ∪ (T ∩ C), over the full components C of S.
    for s, split in splits:
        for comp, n in split:
            if n != s:
                continue
            if s | comp not in checked:
                consider(s | comp, split, comp, comp)
            for t in minseps_smaller:
                inner = t & comp
                if inner and s | inner not in checked:
                    consider(s | inner, split, comp, inner)
    return out


def _lowest_member(component: tuple[int, int]) -> int:
    return component[0] & -component[0]


def _grown_components(
    bigger: BitGraph,
    candidate: int,
    split: list[tuple[int, int]],
    comp: int,
    inner: int,
) -> list[tuple[int, int]] | None:
    """The components of ``G \\ (S ∪ X)`` if ``S ∪ X`` is a PMC, else ``None``.

    ``split`` holds the ``(C, N(C))`` components of ``G \\ S`` for a
    minimal separator ``S``; ``candidate = S ∪ X`` with ``X = inner``
    inside ``comp``, one of them.  Only the pieces of ``comp \\ X`` are
    searched, and only the vertices of ``X`` are checked for
    completability (module docstring).
    """
    pieces = bigger.components_with_neighborhoods(comp & ~inner)
    for _piece, n in pieces:
        if n == candidate:
            return None
    adj = bigger.adj
    for x in iter_bits(inner):
        bit = 1 << x
        need = candidate & ~(adj[x] | bit)
        if not need:
            continue
        cover = 0
        for _piece, n in pieces:
            if n & bit:
                cover |= n
        if need & ~cover:
            return None
    components = [cn for cn in split if cn[0] != comp]
    components += pieces
    components.sort(key=_lowest_member)
    return components


def potential_maximal_clique_masks(
    bitgraph: BitGraph,
    separator_masks: set[int] | None = None,
    budget: int | None = None,
    order: Sequence[int] | None = None,
    deadline: float | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """Mask-level :func:`potential_maximal_cliques` over a bit kernel.

    Returns a dict from each PMC ``Ω`` to the ``(C, N(C))`` pairs of the
    components of ``G \\ Ω``, ascending by lowest member index: each
    ONE_MORE_VERTEX step hands them on to the next, and the last step's
    are those of ``G`` itself.  Its ``len`` is ``|PMC(G)|``.
    """
    import time

    if bitgraph.num_vertices() == 0:
        return {}
    if order is None:
        order = bitgraph.bfs_order()
    if separator_masks is None:
        separator_masks = minimal_separator_masks(bitgraph)
    views = prefix_views(bitgraph, order)
    per_prefix = prefix_minimal_separator_masks(views, order, separator_masks)

    # A one-vertex graph's only PMC leaves no components.
    pmcs: dict[int, list[tuple[int, int]]] = {1 << order[0]: []}
    for i in range(1, len(order)):
        a = order[i]
        pmcs = one_more_vertex_masks(
            views[i],
            a,
            pmcs,
            per_prefix[i - 1],
            per_prefix[i],
            budget=budget,
        )
        if deadline is not None and time.perf_counter() > deadline:
            labels_of = bitgraph.indexer.labels_of
            raise SeparatorLimitExceeded(
                "PMC enumeration hit its time budget",
                partial={labels_of(m) for m in pmcs},
            )
    return pmcs


def potential_maximal_cliques(
    graph: Graph,
    separators: set[Separator] | None = None,
    budget: int | None = None,
    order: Sequence[Vertex] | None = None,
    deadline: float | None = None,
    kernel: str | KernelSpec = "auto",
) -> set[PMC]:
    """All potential maximal cliques ``PMC(G)``.

    Parameters
    ----------
    graph:
        Input graph (may be disconnected; PMCs of a disconnected graph are
        the PMCs of its components).
    separators:
        ``MinSep(G)`` if already available (saves the BBC run).
    budget:
        Optional cap on ``|PMC(G)|``; exceeding it raises
        :class:`SeparatorLimitExceeded`.
    order:
        Optional vertex insertion order (defaults to BFS order).
    deadline:
        Optional :func:`time.perf_counter` value bounding the wall clock
        (raises :class:`SeparatorLimitExceeded` when exceeded) — the PMC
        half of the Figure 5 tractability gate.
    kernel:
        A registered kernel name or spec (see
        :mod:`repro.graphs.kernels`).  Mask-level kernels run the whole
        pipeline — prefix minimal separators, ONE_MORE_VERTEX, the PMC
        predicate — over dense bitmasks and convert the result once at
        the end; ``"sets"`` is the original label-level path.  Identical
        output under every kernel.
    """
    import time

    if graph.num_vertices() == 0:
        return set()
    spec = resolve_kernel(kernel)
    if spec.uses_masks:
        indexer = VertexIndexer(graph.vertices)
        bitgraph = spec.build_graph(graph, indexer)
        masks = potential_maximal_clique_masks(
            bitgraph,
            separator_masks=(
                None
                if separators is None
                else {indexer.mask_of(s) for s in separators}
            ),
            budget=budget,
            order=(
                None if order is None else [indexer.index_of(v) for v in order]
            ),
            deadline=deadline,
        )
        return {indexer.labels_of(m) for m in masks}
    if order is None:
        order = graph.bfs_order()
    if separators is None:
        # This branch only runs for label-level kernels, so the resolved
        # spec (not a hardcoded name) keeps the reference path honest:
        # a faster registered kernel can never be silently pinned to an
        # interpreted one, nor vice versa.
        separators = minimal_separators(graph, kernel=spec)
    per_prefix = prefix_minimal_separators(graph, order, separators, kernel=spec)

    prefix_vertices: list[Vertex] = [order[0]]
    pmcs: set[PMC] = {frozenset(prefix_vertices)}
    for i in range(1, len(order)):
        a = order[i]
        prefix_vertices.append(a)
        bigger = graph.subgraph(prefix_vertices)
        pmcs = one_more_vertex(
            bigger,
            a,
            pmcs,
            per_prefix[i - 1],
            per_prefix[i],
            budget=budget,
        )
        if deadline is not None and time.perf_counter() > deadline:
            raise SeparatorLimitExceeded(
                "PMC enumeration hit its time budget", partial=pmcs
            )
    return pmcs
