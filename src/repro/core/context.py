"""Shared initialization for the triangulation algorithms.

Lines 1–2 of ``MinTriang`` (Figure 3) — computing ``MinSep(G)``,
``PMC(G)`` and the full blocks — dominate the running time and are
independent of the cost function and of any Lawler–Murty constraints.  The
paper therefore computes them **once** per input graph and shares them
across the many ``MinTriang⟨κ[I,X]⟩`` invocations of ``RankedTriang``
(Section 7.1, "initialization step").  :class:`TriangulationContext` is
that shared state, plus the block DP's candidate lists and the
:class:`SeparatorIndex` that turns the ranked loop's constraints and
pivots into integer masks.

:meth:`TriangulationContext.build` compiles the DP's inputs in one pass
over vertex masks.  The PMC enumerator hands back, with each PMC ``Ω``,
the components ``C_k`` of ``G \\ Ω`` and their neighborhoods
``S_k = N(C_k)``; four facts turn those alone into the DP's inputs:

1. **Blocks and children need no search.**  ``Ω`` is a candidate
   (``S ⊂ Ω ⊆ S ∪ C``) of exactly the full blocks ``(S_j, D_j)`` with
   ``D_j = (Ω \\ S_j) ∪ ⋃{C_k : S_k ⊄ S_j}``, because the separators
   inside ``Ω`` are its ``S_k`` (fact 3) and ``Ω \\ S_j`` lies in one
   full component of ``G \\ S_j``.  Inside ``(S_j, D_j)`` the
   children of ``Ω`` are those ``C_k``; at the root they are all the
   ``C_k``.  Every full block ``(S, C)`` is some ``(S_k, C_k)``: that of
   any ``Ω ∈ PMC(S, D)`` for another full component ``D`` of ``S``.
2. **Two components can share a neighborhood** (in ``K_{2,3}``,
   ``Ω = {a, b, x}`` leaves ``{y}`` and ``{z}``, both with
   ``N = {a, b}``), so each distinct ``S_j`` is taken once.
3. **The minimal separators inside ``Ω`` are exactly its ``S_k``**
   (Section 5.1: the separators *associated* to ``Ω``), so a PMC's
   :class:`SeparatorIndex` mask is the OR of their bits.
4. **The canonical order needs no labels.**  With each vertex ranked
   once by :func:`vertex_sort_key`, the sorted rank tuple of a mask
   orders exactly like :func:`vertex_set_sort_key` of its labels.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field

from ..graphs.bitgraph import BitGraph, VertexIndexer, iter_bits
from ..graphs.kernels import validate_kernel
from ..graphs.graph import Graph, Vertex
from ..graphs.ordering import vertex_sort_key
from ..separators.berry import minimal_separator_masks, minimal_separators
from ..separators.blocks import Block
from ..pmc.enumerate import (
    potential_maximal_clique_masks,
    potential_maximal_cliques,
)

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

#: One compiled DP candidate: ``(Ω, |Ω|, fill term, child positions)``.
#: The fill term is ``nonedges(Ω) − Σ nonedges(S_child)`` and the child
#: positions index :attr:`TriangulationContext.blocks`.
Candidate = tuple[PMC, int, int, tuple[int, ...]]
Candidates = tuple[list[tuple[Candidate, ...]], tuple[Candidate, ...]]

__all__ = ["Candidate", "SeparatorIndex", "TriangulationContext"]


def _mask_sort_key(indexer: VertexIndexer) -> Callable[[int], tuple[int, ...]]:
    """A key on vertex masks that orders them exactly like
    :func:`vertex_set_sort_key` of their labels (fact 4)."""
    labels = indexer.labels
    rank = [0] * len(labels)
    for r, i in enumerate(
        sorted(range(len(labels)), key=lambda i: vertex_sort_key(labels[i]))
    ):
        rank[i] = r

    def key(mask: int) -> tuple[int, ...]:
        ranks = []
        while mask:
            low = mask & -mask
            ranks.append(rank[low.bit_length() - 1])
            mask ^= low
        ranks.sort()
        return tuple(ranks)

    return key


@dataclass
class TriangulationContext:
    """Precomputed separators, PMCs, full blocks and candidate lists.

    Build with :meth:`TriangulationContext.build`; all triangulation
    algorithms accept a prebuilt context to share the initialization.

    Attributes
    ----------
    graph:
        The (connected) input graph.
    separators:
        ``MinSep(G)``, possibly restricted to ``|S| ≤ width_bound``.
    pmcs:
        ``PMC(G)``, possibly restricted to ``|Ω| ≤ width_bound + 1``.
    block_masks:
        The full blocks over ``separators`` as ``(S, C)`` vertex masks
        under :attr:`indexer`, ascending by ``|S ∪ C|`` with a
        label-order tie-break, so every kernel builds the same list and
        the DP resolves cost ties identically.  :attr:`blocks` holds the
        same blocks as label sets.
    separator_masks:
        ``separators`` as masks in :func:`vertex_set_sort_key` order,
        the pivot order.
    indexer:
        The vertex numbering of the masks.
    width_bound:
        The bound ``b`` of ``MinTriangB`` or ``None`` (Section 5.3).
    init_seconds:
        Wall-clock time of the initialization, the candidate compile
        included (reported as ``init`` in Table 2).
    kernel:
        Which graph kernel enumerated ``MinSep(G)`` and ``PMC(G)``,
        ``"bitset"`` or ``"sets"``.  Both feed the same mask compile.
    """

    graph: Graph
    separators: set[Separator]
    pmcs: set[PMC]
    block_masks: list[tuple[int, int]] = field(repr=False)
    separator_masks: tuple[int, ...] = field(repr=False)
    indexer: VertexIndexer = field(repr=False)
    _pmc_order: tuple[PMC, ...] = field(repr=False)
    _candidates: Candidates = field(repr=False)
    width_bound: int | None = None
    init_seconds: float = 0.0
    kernel: str = "sets"
    _blocks: list[Block] | None = field(default=None, repr=False)
    _block_subgraphs: dict[Block, Graph] = field(default_factory=dict, repr=False)
    _separator_index: "SeparatorIndex | None" = field(default=None, repr=False)
    _pmc_positions: dict[PMC, int] | None = field(default=None, repr=False)
    _token_graph: object | None = field(default=None, repr=False)

    @staticmethod
    def build(
        graph: Graph,
        width_bound: int | None = None,
        separator_limit: int | None = None,
        pmc_limit: int | None = None,
        kernel: str = "bitset",
        separator_masks: Collection[int] | None = None,
    ) -> "TriangulationContext":
        """Run the initialization step for ``graph``.

        Parameters
        ----------
        graph:
            A connected graph (the block/PMC machinery of the paper assumes
            connectivity; decompose disconnected inputs first).
        width_bound:
            If given, keep only separators of size ≤ bound and PMCs of size
            ≤ bound + 1 — the ``MinTriangB⟨b,κ⟩`` restriction.  (We filter
            after enumeration; a from-scratch bounded enumeration would
            strengthen the FPT guarantee but not change the output.)
        separator_limit, pmc_limit:
            Budgets forwarded to the enumerators; exceeding one raises
            :class:`~repro.separators.berry.SeparatorLimitExceeded`.  This
            is how the experiment harness detects poly-MS violations.
        kernel:
            ``"bitset"`` (default) enumerates minimal separators and
            PMCs over dense adjacency bitmasks, and the PMC enumerator
            hands back each PMC's components.  ``"sets"`` keeps the
            label-level enumerators (the differential-testing reference
            for that layer) and finds each PMC's components with one
            search.  Both feed the same compile, so both kernels produce
            identical contexts.
        separator_masks:
            ``MinSep(G)`` as masks over ``graph``'s vertex order, if the
            caller has listed it already (a non-decomposable graph's
            :class:`~repro.preprocess.recompose.PreprocessPlan` carries
            it).  The ``bitset`` kernel then skips its own listing and
            ``separator_limit`` with it; the ``sets`` kernel, the
            reference, always lists its own.
        """
        started = time.perf_counter()
        validate_kernel(kernel)
        if graph.num_vertices() and not graph.is_connected():
            raise ValueError(
                "TriangulationContext requires a connected graph; "
                "split the input into components first"
            )

        indexer = VertexIndexer(graph.vertices)
        if kernel == "bitset":
            bitgraph = BitGraph.from_graph(graph, indexer)
            if separator_masks is None:
                separator_masks = minimal_separator_masks(
                    bitgraph, limit=separator_limit
                )
            found = potential_maximal_clique_masks(
                bitgraph, separator_masks=separator_masks, budget=pmc_limit
            )
        else:
            separators = minimal_separators(
                graph, limit=separator_limit, kernel="sets"
            )
            pmcs = potential_maximal_cliques(
                graph, separators=separators, budget=pmc_limit, kernel="sets"
            )
            bitgraph = BitGraph.from_graph(graph, indexer)
            separator_masks = set(map(indexer.mask_of, separators))
            found = {
                omega: bitgraph.components_with_neighborhoods(
                    bitgraph.full_mask & ~omega
                )
                for omega in map(indexer.mask_of, pmcs)
            }
        context = _compile(
            graph, bitgraph, separator_masks, found, width_bound, kernel
        )
        context.init_seconds = time.perf_counter() - started
        return context

    @property
    def blocks(self) -> list[Block]:
        """The full blocks as label sets, parallel to :attr:`block_masks`.

        Built on first access: only the generic-cost DP path reads
        them.  Two threads racing here build equal lists; either wins.
        """
        blocks = self._blocks
        if blocks is None:
            labels_of = self.indexer.labels_of
            blocks = self._blocks = [
                Block(labels_of(s), labels_of(c)) for s, c in self.block_masks
            ]
        return blocks

    def block_subgraph(self, block: Block) -> Graph:
        """``G[S ∪ C]`` for a block, cached (the κ-evaluation graph)."""
        cached = self._block_subgraphs.get(block)
        if cached is None:
            cached = self.graph.subgraph(block.vertices)
            self._block_subgraphs[block] = cached
        return cached

    def candidates(self) -> Candidates:
        """The block DP's candidate lists, compiled by :meth:`build`.

        Returns ``(per_block, root)``: ``per_block[i]`` lists the
        candidates ``Ω`` of ``blocks[i]`` (``S ⊂ Ω ⊆ S ∪ C``) and
        ``root`` one per ``Ω`` of :meth:`root_pmc_order`, each list in
        that order.  A child is a component of the block (or of ``G``)
        less ``Ω``, in ascending order of its lowest member index.
        Independent of cost and constraints, so every DP run over this
        context shares them.
        """
        return self._candidates

    def root_pmc_order(self) -> tuple[PMC, ...]:
        """``PMC(G)`` in canonical (label-sorted) order.

        The root loop of every ``MinTriang`` run iterates this instead of
        the raw :attr:`pmcs` set so cost ties resolve identically under
        every kernel and across processes (set iteration order depends
        on insertion history; this does not).
        """
        return self._pmc_order

    def separator_index(self) -> "SeparatorIndex":
        """The :class:`SeparatorIndex` of this context, built on first use.

        The ranked loop asks for it at its first pop and at its first
        constrained DP run, so an unconstrained ``MinTriang`` never pays
        for it.
        """
        index = self._separator_index
        if index is None:
            index = self._separator_index = SeparatorIndex.build(self)
        return index

    def bag_mask(self, bags: Iterable[PMC]) -> int:
        """The mask of a bag set over :meth:`root_pmc_order`: bit ``i``
        for its ``i``-th PMC.

        Every bag of a minimal triangulation within the width bound is a
        PMC of this context, so a bag set is one int: the ranked loop's
        heap and checkpoint tokens hold bag sets this way.  The PMC
        positions are indexed on first use.
        """
        positions = self._pmc_positions
        if positions is None:
            positions = self._pmc_positions = {
                omega: i for i, omega in enumerate(self._pmc_order)
            }
        mask = 0
        for bag in bags:
            mask |= 1 << positions[bag]
        return mask

    def token_graph(self):
        """The graph as checkpoint tokens carry it
        (:class:`~repro.api.checkpoint.TokenGraph`), built at the first
        checkpoint or resume, never by :meth:`build`.  Every checkpoint of
        this context shares it, so its encoding is computed once, and a
        warm resume compares a token's graph section against it."""
        graph = self._token_graph
        if graph is None:
            from ..api.checkpoint import TokenGraph

            graph = self._token_graph = TokenGraph.of(self.graph)
        return graph

    def stats(self) -> dict[str, float]:
        """Summary counters for benchmark reports."""
        return {
            "vertices": self.graph.num_vertices(),
            "edges": self.graph.num_edges(),
            "minimal_separators": len(self.separators),
            "pmcs": len(self.pmcs),
            "full_blocks": len(self.block_masks),
            "init_seconds": self.init_seconds,
            "kernel": self.kernel,
        }


def _compile(
    graph: Graph,
    bitgraph: BitGraph,
    separator_masks: Collection[int],
    found: dict[int, list[tuple[int, int]]],
    width_bound: int | None,
    kernel: str,
) -> TriangulationContext:
    """The context of ``graph`` from its separator masks and its PMCs
    with their ``(C, N(C))`` components, in one pass (facts 1–4)."""
    indexer = bitgraph.indexer
    if width_bound is not None:
        separator_masks = {
            s for s in separator_masks if s.bit_count() <= width_bound
        }
    key = _mask_sort_key(indexer)
    labels_of = indexer.labels_of

    # Fact 1: every full block is a component pair of some PMC,
    # including PMCs above the width bound.
    separator_of = {
        c: s
        for components in found.values()
        for c, s in components
        if s in separator_masks
    }
    separator_key = {s: key(s) for s in separator_masks}
    ordered = sorted(
        separator_of.items(),
        key=lambda cs: (
            cs[0].bit_count() + cs[1].bit_count(),
            separator_key[cs[1]],
            key(cs[0]),
        ),
    )
    block_masks = [(s, c) for c, s in ordered]
    position = {c: i for i, (_s, c) in enumerate(block_masks)}

    # The DP breaks cost ties by first-seen, so candidates follow the
    # canonical PMC order in every list.
    pmc_masks = sorted(
        (
            omega
            for omega in found
            if width_bound is None or omega.bit_count() <= width_bound + 1
        ),
        key=key,
    )
    pmc_order = tuple(map(labels_of, pmc_masks))
    missing = bitgraph.missing_pair_count
    separator_fill = {s: missing(s) for s in separator_masks}
    per_block: list[list[Candidate]] = [[] for _ in block_masks]
    root: list[Candidate] = []
    for mask, omega in zip(pmc_masks, pmc_order):
        components = found[mask]
        size = len(omega)
        fill = missing(mask)
        # Each S_k ⊊ Ω is within the width bound whenever Ω is.
        children = [position[c] for c, _s in components]
        root.append((
            omega,
            size,
            fill - sum(separator_fill[s] for _c, s in components),
            tuple(children),
        ))
        # Fact 1: Ω is a candidate of (S_j, D_j), whose component D_j is
        # Ω \\ S_j plus the C_k with S_k ⊄ S_j, its children there.
        seen: set[int] = set()
        for _c, s_j in components:
            if s_j in seen:  # fact 2
                continue
            seen.add(s_j)
            region = mask & ~s_j
            block_fill = fill
            block_children = []
            for (c_k, s_k), child in zip(components, children):
                if s_k & ~s_j:
                    region |= c_k
                    block_fill -= separator_fill[s_k]
                    block_children.append(child)
            at = position.get(region)
            if at is not None and block_masks[at][0] == s_j:
                per_block[at].append(
                    (omega, size, block_fill, tuple(block_children))
                )

    pivot_order = tuple(sorted(separator_masks, key=separator_key.__getitem__))
    return TriangulationContext(
        graph=graph,
        separators=set(map(labels_of, pivot_order)),
        pmcs=set(pmc_order),
        block_masks=block_masks,
        separator_masks=pivot_order,
        indexer=indexer,
        _pmc_order=pmc_order,
        _candidates=(list(map(tuple, per_block)), tuple(root)),
        width_bound=width_bound,
        kernel=kernel,
    )


@dataclass(frozen=True)
class SeparatorIndex:
    """``MinSep(G)`` numbered as bits, for the ranked loop.

    Bit ``i`` is the ``i``-th separator in :func:`vertex_set_sort_key`
    order, the pivot order; the mask of a vertex set holds the
    separators inside it.  Every Lawler–Murty constraint and pivot is a
    member of :attr:`TriangulationContext.separators`, so a run's
    ``κ[I,X]`` is two ints:

    * the blocks to recompute are those whose mask meets ``I | X``;
    * a candidate ``Ω`` of a block with mask ``B`` is admitted when
      ``inside & X == 0`` and ``I & B & ~covered == 0`` (``inside`` is
      ``Ω``'s mask, ``covered`` adds its child blocks' masks: each child
      enforces the constraints inside its own region);
    * ``MinSep(H)`` is the OR of ``H``'s bags' masks, because the minimal
      separators of a minimal triangulation ``H`` are the members of
      ``MinSep(G)`` that are cliques of ``H``; less ``I``, its bits
      ascend in pivot order;
    * :meth:`crossing` gives the separators that cross a separator, from
      which the ranked loop rules out a child ``[I, X]`` before its DP.

    ``blocks`` is parallel to :attr:`TriangulationContext.block_masks`,
    ``pmcs`` maps each PMC to its mask, and ``candidates`` holds each
    candidate's ``(inside, covered)`` parallel to
    :meth:`TriangulationContext.candidates`.  ``containing`` maps each
    vertex to the mask of the separators holding it, and ``sides`` holds,
    per separator ``S`` in bit order, the vertex masks of its two
    smallest full components: the first two blocks of ``S`` in
    :attr:`TriangulationContext.block_masks` (every full block of an
    indexed separator is there, width bound or not).
    """

    separators: tuple[Separator, ...]
    bits: dict[Separator, int]
    blocks: list[int]
    pmcs: dict[PMC, int]
    candidates: tuple[list[tuple[tuple[int, int], ...]], tuple[tuple[int, int], ...]]
    containing: list[int]
    sides: list[tuple[int, ...]]
    #: :meth:`crossing`'s rows by separator bit, built on first use and
    #: shared by every stream over the context.
    _crossing: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def build(context: TriangulationContext) -> "SeparatorIndex":
        """Index ``context`` from its compiled masks.

        A block's mask is every separator less those containing a vertex
        outside ``S ∪ C``, one pass over those vertices; a PMC's is the
        OR of the separators of its root children's blocks (fact 3).
        """
        separator_masks = context.separator_masks
        order = tuple(map(context.indexer.labels_of, separator_masks))
        bits = {s: 1 << i for i, s in enumerate(order)}
        bit_of = {s: 1 << i for i, s in enumerate(separator_masks)}
        containing = [0] * len(context.indexer)
        for s, bit in bit_of.items():
            for v in iter_bits(s):
                containing[v] |= bit
        everything = (1 << len(order)) - 1
        vertices = (1 << len(containing)) - 1

        def inside(vertex_set: int) -> int:
            outside = 0
            rest = vertices & ~vertex_set
            while rest:
                low = rest & -rest
                outside |= containing[low.bit_length() - 1]
                rest ^= low
            return everything & ~outside

        blocks = [inside(s | c) for s, c in context.block_masks]
        own = []
        sides: list[tuple[int, ...]] = [()] * len(order)
        for s, c in context.block_masks:
            bit = bit_of[s]
            own.append(bit)
            at = bit.bit_length() - 1
            if len(sides[at]) < 2:
                sides[at] += (c,)
        per_block, root = context.candidates()
        pmcs = {}
        for omega, _size, _fill, children in root:
            mask = 0
            for child in children:
                mask |= own[child]
            pmcs[omega] = mask

        def covering(candidates: tuple[Candidate, ...]) -> tuple[tuple[int, int], ...]:
            compiled = []
            for omega, _size, _fill, children in candidates:
                mask = covered = pmcs[omega]
                for child in children:
                    covered |= blocks[child]
                compiled.append((mask, covered))
            return tuple(compiled)

        compiled = ([covering(c) for c in per_block], covering(root))
        return SeparatorIndex(order, bits, blocks, pmcs, compiled, containing, sides)

    def crossing(self, bit: int) -> int:
        """The mask of the separators that cross the separator of ``bit``.

        ``T`` crosses ``S`` when ``T`` meets two components of
        ``G \\ S``; otherwise the two are parallel.  If ``S`` has
        vertices ``u, v`` in two components of ``G \\ T``, every full
        component ``D`` of ``S`` holds a ``u``–``v`` path (both have
        neighbours in ``D``), and that path meets ``T``.  So when ``S``
        crosses ``T``, ``T`` meets every full component of ``S`` and
        crosses ``S``: the relation is symmetric, and the row is the
        separators that meet both of ``S``'s :attr:`sides`.  Built on
        first use (a few microseconds) and kept; two threads racing here
        store equal rows.
        """
        row = self._crossing.get(bit)
        if row is None:
            containing = self.containing
            row = -1
            for side in self.sides[bit.bit_length() - 1]:
                meets = 0
                while side:
                    low = side & -side
                    meets |= containing[low.bit_length() - 1]
                    side ^= low
                row &= meets
            self._crossing[bit] = row
        return row

    def mask_of(self, separators: Iterable[Separator]) -> int | None:
        """The mask of ``separators``; ``None`` if one is not indexed."""
        mask = 0
        for s in separators:
            bit = self.bits.get(s)
            if bit is None:
                return None
            mask |= bit
        return mask

    def members(self, mask: int) -> list[Separator]:
        """The separators of ``mask``'s bits, in ascending (pivot) order."""
        found = []
        while mask:
            low = mask & -mask
            found.append(self.separators[low.bit_length() - 1])
            mask ^= low
        return found
