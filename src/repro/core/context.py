"""Shared initialization for the triangulation algorithms.

Lines 1–2 of ``MinTriang`` (Figure 3) — computing ``MinSep(G)``,
``PMC(G)`` and the full blocks — dominate the running time and are
independent of the cost function and of any Lawler–Murty constraints.  The
paper therefore computes them **once** per input graph and shares them
across the many ``MinTriang⟨κ[I,X]⟩`` invocations of ``RankedTriang``
(Section 7.1, "initialization step").  :class:`TriangulationContext` is
that shared state, plus the block → candidate-PMC index that makes the DP
loop efficient and the :class:`SeparatorIndex` that turns the ranked
loop's constraints and pivots into integer masks.

The index construction uses the fact recorded in Section 5.1: the minimal
separators contained in a PMC ``Ω`` are exactly the ones *associated* to it
(neighborhoods of the components of ``G \\ Ω``), so
``Ω ∈ PMC(S, C)  ⟺  S ∈ MinSep_G(Ω) and C ⊇ Ω \\ S``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..graphs.bitgraph import BitGraph, VertexIndexer
from ..graphs.kernels import KernelSpec, resolve_kernel
from ..graphs.graph import Graph, Vertex
from ..graphs.ordering import vertex_set_sort_key
from ..separators.berry import minimal_separator_masks, minimal_separators
from ..separators.blocks import (
    Block,
    full_blocks_of_separator,
    full_component_masks,
)
from ..pmc.enumerate import (
    potential_maximal_clique_masks,
    potential_maximal_cliques,
)
from ..pmc.predicate import minseps_of_pmc, minseps_of_pmc_masks

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

#: One compiled DP candidate: ``(Ω, |Ω|, fill term, child positions)``.
#: The fill term is ``nonedges(Ω) − Σ nonedges(S_child)`` and the child
#: positions index :attr:`TriangulationContext.blocks`.
Candidate = tuple[PMC, int, int, tuple[int, ...]]

__all__ = ["Candidate", "SeparatorIndex", "TriangulationContext"]


def _block_order_key(block: Block) -> tuple:
    """Canonical processing order for the DP: ascending ``|S ∪ C|`` with a
    deterministic label-level tie-break, so both graph kernels build the
    same block list and the DP resolves cost ties identically."""
    return (
        len(block),
        vertex_set_sort_key(block.separator),
        vertex_set_sort_key(block.component),
    )


@dataclass
class TriangulationContext:
    """Precomputed separators, PMCs, full blocks and indexes for one graph.

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
    blocks:
        The full blocks over ``separators``, ascending by ``|S ∪ C|``.
    pmc_index:
        For each full block, the candidate PMCs ``{Ω : S ⊂ Ω ⊆ S ∪ C}``.
    width_bound:
        The bound ``b`` of ``MinTriangB`` or ``None`` (Section 5.3).
    init_seconds:
        Wall-clock time of the initialization (reported as ``init`` in
        Table 2).
    """

    graph: Graph
    separators: set[Separator]
    pmcs: set[PMC]
    blocks: list[Block]
    pmc_index: dict[Block, list[PMC]]
    width_bound: int | None = None
    init_seconds: float = 0.0
    #: Which graph kernel built (and serves) this context — always a
    #: concrete registered name (``"auto"`` is resolved by :meth:`build`
    #: before anything is keyed on it).  Mask-level kernels keep a dense
    #: encoding for the component/neighborhood hot paths; ``"sets"`` is
    #: the pure label-level original.
    kernel: str = "sets"
    indexer: VertexIndexer | None = field(default=None, repr=False)
    bitgraph: BitGraph | None = field(default=None, repr=False)
    _pmc_order: tuple[PMC, ...] | None = field(default=None, repr=False)
    _block_subgraphs: dict[Block, Graph] = field(default_factory=dict, repr=False)
    _children_cache: dict[tuple[Block | None, PMC], tuple[Block, ...]] = field(
        default_factory=dict, repr=False
    )
    _candidates: (
        tuple[list[tuple[Candidate, ...]], tuple[Candidate, ...]] | None
    ) = field(default=None, repr=False)
    _separator_index: "SeparatorIndex | None" = field(default=None, repr=False)

    @staticmethod
    def build(
        graph: Graph,
        separators: set[Separator] | None = None,
        pmcs: set[PMC] | None = None,
        width_bound: int | None = None,
        separator_limit: int | None = None,
        pmc_limit: int | None = None,
        kernel: str | KernelSpec = "auto",
    ) -> "TriangulationContext":
        """Run the initialization step for ``graph``.

        Parameters
        ----------
        graph:
            A connected graph (the block/PMC machinery of the paper assumes
            connectivity; decompose disconnected inputs first).
        separators, pmcs:
            Precomputed sets, if available.
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
            A registered kernel name or :class:`KernelSpec` (see
            :mod:`repro.graphs.kernels`).  The default ``"auto"`` is an
            alias of ``"bitset"``, resolved **here**, so the stored
            :attr:`kernel` — and everything keyed on it, cache keys most
            of all — is always a concrete name.  Mask-level kernels run
            the enumeration hot path — minimal separators, PMCs, full
            blocks, component queries — over dense adjacency bitmasks,
            translating vertex labels to dense ints exactly once here at
            the context boundary.  ``"sets"`` keeps the pure label-level
            path (useful for debugging and as the differential-testing
            reference).  All kernels produce identical contexts and
            identical downstream enumeration order.
        """
        started = time.perf_counter()
        spec = resolve_kernel(kernel)
        if graph.num_vertices() and not graph.is_connected():
            raise ValueError(
                "TriangulationContext requires a connected graph; "
                "split the input into components first"
            )

        indexer: VertexIndexer | None = None
        bitgraph: BitGraph | None = None
        sep_masks: set[int] | None = None
        if spec.uses_masks and graph.num_vertices():
            indexer = VertexIndexer(graph.vertices)
            bitgraph = spec.build_graph(graph, indexer)
            if separators is None:
                sep_masks = minimal_separator_masks(
                    bitgraph, limit=separator_limit
                )
                separators = {indexer.labels_of(m) for m in sep_masks}
            else:
                sep_masks = {indexer.mask_of(s) for s in separators}
            if pmcs is None:
                pmc_masks = potential_maximal_clique_masks(
                    bitgraph, separator_masks=sep_masks, budget=pmc_limit
                )
                pmcs = {indexer.labels_of(m) for m in pmc_masks}
        else:
            if separators is None:
                separators = minimal_separators(
                    graph, limit=separator_limit, kernel=spec
                )
            if pmcs is None:
                pmcs = potential_maximal_cliques(
                    graph, separators=separators, budget=pmc_limit,
                    kernel=spec,
                )
        if width_bound is not None:
            separators = {s for s in separators if len(s) <= width_bound}
            pmcs = {om for om in pmcs if len(om) <= width_bound + 1}
            if sep_masks is not None:
                sep_masks = {
                    m for m in sep_masks if m.bit_count() <= width_bound
                }

        blocks: list[Block] = []
        if bitgraph is not None and indexer is not None:
            assert sep_masks is not None
            for m in sep_masks:
                s_labels = indexer.labels_of(m)
                for comp in full_component_masks(bitgraph, m):
                    blocks.append(Block(s_labels, indexer.labels_of(comp)))
        else:
            for s in separators:
                blocks.extend(full_blocks_of_separator(graph, s))
        blocks.sort(key=_block_order_key)

        # The PMC iteration order below (and hence each block's candidate
        # list) is canonical for the same reason as the block order: the
        # DP breaks cost ties by first-seen, and both kernels must break
        # them the same way.
        pmc_order = tuple(sorted(pmcs, key=vertex_set_sort_key))
        block_set = set(blocks)
        pmc_index: dict[Block, list[PMC]] = {b: [] for b in blocks}
        for om in pmc_order:
            if bitgraph is not None and indexer is not None:
                om_mask = indexer.mask_of(om)
                for s_mask in minseps_of_pmc_masks(bitgraph, om_mask):
                    s = indexer.labels_of(s_mask)
                    if s not in separators:
                        # Only possible under a width bound: the separator
                        # was filtered out, so its blocks are not in the DP.
                        continue
                    rest = om_mask & ~s_mask
                    anchor = (rest & -rest).bit_length() - 1
                    comp_mask = bitgraph.component_of(anchor, removed=s_mask)
                    block = Block(s, indexer.labels_of(comp_mask))
                    if block in block_set:
                        pmc_index[block].append(om)
            else:
                for s in minseps_of_pmc(graph, om):
                    if s not in separators:
                        # Only possible under a width bound (as above).
                        continue
                    rest = om - s
                    anchor = next(iter(rest))
                    component = frozenset(
                        graph.component_of(anchor, removed=s)
                    )
                    block = Block(s, component)
                    if block in block_set:
                        pmc_index[block].append(om)

        return TriangulationContext(
            graph=graph,
            separators=separators,
            pmcs=pmcs,
            blocks=blocks,
            pmc_index=pmc_index,
            width_bound=width_bound,
            init_seconds=time.perf_counter() - started,
            kernel=spec.name,
            indexer=indexer,
            bitgraph=bitgraph,
            _pmc_order=pmc_order,
        )

    def block_subgraph(self, block: Block) -> Graph:
        """``G[S ∪ C]`` for a block, cached (the κ-evaluation graph)."""
        cached = self._block_subgraphs.get(block)
        if cached is None:
            cached = self.graph.subgraph(block.vertices)
            self._block_subgraphs[block] = cached
        return cached

    def children_of(self, block: Block | None, omega: PMC) -> tuple[Block, ...]:
        """The sub-blocks of PMC ``omega`` inside ``block`` (``None`` = whole
        graph): components of ``region \\ Ω`` with their neighborhoods.

        Depends only on the graph structure — not on the cost function or
        Lawler–Murty constraints — so it is cached.  The DP itself reads
        the compiled :meth:`candidates` instead.
        """
        key = (block, omega)
        cached = self._children_cache.get(key)
        if cached is None:
            bitgraph, indexer = self.bitgraph, self.indexer
            if bitgraph is not None and indexer is not None:
                labels = indexer.labels_of
                neighborhood = bitgraph.neighborhood_of_set
            else:
                labels = frozenset
                neighborhood = self.graph.neighborhood_of_set
            cached = tuple(
                Block(labels(neighborhood(piece)), labels(piece))
                for piece in self._pieces(block, omega)
            )
            self._children_cache[key] = cached
        return cached

    def _pieces(self, block: Block | None, omega: PMC) -> list:
        """Components of ``region \\ Ω`` in the kernel's order: masks
        under a mask kernel, vertex sets under ``"sets"``."""
        bitgraph, indexer = self.bitgraph, self.indexer
        if bitgraph is not None and indexer is not None:
            region_mask = (
                indexer.mask_of(block.vertices)
                if block is not None
                else bitgraph.full_mask
            )
            return bitgraph.components_within(
                region_mask & ~indexer.mask_of(omega)
            )
        graph = self.graph
        region = block.vertices if block is not None else graph.vertex_set()
        remaining = set(region - omega)
        pieces = []
        while remaining:
            start = remaining.pop()
            comp = {start}
            queue = [start]
            while queue:
                u = queue.pop()
                for w in graph.adj(u):
                    if w in remaining:
                        remaining.discard(w)
                        comp.add(w)
                        queue.append(w)
            pieces.append(frozenset(comp))
        return pieces

    def candidates(
        self,
    ) -> tuple[list[tuple[Candidate, ...]], tuple[Candidate, ...]]:
        """The block DP's candidate lists, compiled on first use.

        Returns ``(per_block, root)``: ``per_block[i]`` lists the
        candidates of ``blocks[i]``, one per ``Ω`` of
        ``pmc_index[blocks[i]]`` in that order, and ``root`` one per
        ``Ω`` of :meth:`root_pmc_order`.  A candidate whose child block
        is not among :attr:`blocks` can never be assembled and is left
        out.  Independent of cost and constraints, so every DP run over
        this context shares them.
        """
        compiled = self._candidates
        if compiled is not None:
            return compiled
        bitgraph, indexer = self.bitgraph, self.indexer
        if bitgraph is not None and indexer is not None:
            key_of = indexer.mask_of
            nonedges = bitgraph.missing_pair_count
        else:
            graph = self.graph
            key_of = frozenset

            def nonedges(vertices: frozenset) -> int:
                return sum(1 for _ in graph.missing_edges(vertices))

        # A full block is determined by its component (S = N(C)).
        position = {key_of(b.component): i for i, b in enumerate(self.blocks)}
        separator_nonedges = [nonedges(key_of(b.separator)) for b in self.blocks]
        omega_nonedges: dict[PMC, int] = {}

        def compile_one(block: Block | None, omega: PMC) -> Candidate | None:
            fill = omega_nonedges.get(omega)
            if fill is None:
                fill = omega_nonedges[omega] = nonedges(key_of(omega))
            children = []
            for piece in self._pieces(block, omega):
                child = position.get(piece)
                if child is None:
                    return None
                children.append(child)
                fill -= separator_nonedges[child]
            return (omega, len(omega), fill, tuple(children))

        def compile_all(block: Block | None, omegas) -> tuple[Candidate, ...]:
            found = (compile_one(block, omega) for omega in omegas)
            return tuple(c for c in found if c is not None)

        compiled = (
            [compile_all(b, self.pmc_index.get(b, ())) for b in self.blocks],
            compile_all(None, self.root_pmc_order()),
        )
        self._candidates = compiled
        return compiled

    def root_pmc_order(self) -> tuple[PMC, ...]:
        """``PMC(G)`` in canonical (label-sorted) order.

        The root loop of every ``MinTriang`` run iterates this instead of
        the raw :attr:`pmcs` set so cost ties resolve identically under
        both kernels and across processes (set iteration order depends on
        insertion history; this does not).  Built eagerly by
        :meth:`build`, lazily for hand-assembled contexts.
        """
        order = self._pmc_order
        if order is None:
            order = tuple(sorted(self.pmcs, key=vertex_set_sort_key))
            self._pmc_order = order
        return order

    def separator_index(self) -> "SeparatorIndex":
        """The :class:`SeparatorIndex` of this context, built on first use.

        The ranked loop asks for it at its first pop and at its first
        constrained DP run, so an unconstrained ``MinTriang`` never pays
        for it.  The process-pool engine builds it before forking, so
        workers inherit it copy-on-write.
        """
        index = self._separator_index
        if index is None:
            index = self._separator_index = SeparatorIndex.build(self)
        return index

    def stats(self) -> dict[str, float]:
        """Summary counters for benchmark reports."""
        return {
            "vertices": self.graph.num_vertices(),
            "edges": self.graph.num_edges(),
            "minimal_separators": len(self.separators),
            "pmcs": len(self.pmcs),
            "full_blocks": len(self.blocks),
            "init_seconds": self.init_seconds,
            "kernel": self.kernel,
        }


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
      ascend in pivot order.

    ``blocks`` is parallel to :attr:`TriangulationContext.blocks`,
    ``pmcs`` maps each PMC to its mask, and ``candidates`` holds each
    candidate's ``(inside, covered)`` parallel to
    :meth:`TriangulationContext.candidates`.
    """

    separators: tuple[Separator, ...]
    bits: dict[Separator, int]
    blocks: list[int]
    pmcs: dict[PMC, int]
    candidates: tuple[list[tuple[tuple[int, int], ...]], tuple[tuple[int, int], ...]]

    @staticmethod
    def build(context: TriangulationContext) -> "SeparatorIndex":
        """Index ``context``: a set's mask is every separator less those
        containing a vertex outside it, one pass over the vertices."""
        order = tuple(sorted(context.separators, key=vertex_set_sort_key))
        bits = {s: 1 << i for i, s in enumerate(order)}
        vertices = list(context.graph.vertices)
        containing = dict.fromkeys(vertices, 0)
        for s, bit in bits.items():
            for v in s:
                containing[v] |= bit
        everything = (1 << len(order)) - 1

        def inside(vertex_set: frozenset) -> int:
            outside = 0
            for v in vertices:
                if v not in vertex_set:
                    outside |= containing[v]
            return everything & ~outside

        blocks = [inside(b.vertices) for b in context.blocks]
        pmcs = {omega: inside(omega) for omega in context.pmcs}

        def covering(candidates: tuple[Candidate, ...]) -> tuple[tuple[int, int], ...]:
            compiled = []
            for omega, _size, _fill, children in candidates:
                mask = covered = pmcs[omega]
                for child in children:
                    covered |= blocks[child]
                compiled.append((mask, covered))
            return tuple(compiled)

        per_block, root = context.candidates()
        compiled = ([covering(c) for c in per_block], covering(root))
        return SeparatorIndex(order, bits, blocks, pmcs, compiled)

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
