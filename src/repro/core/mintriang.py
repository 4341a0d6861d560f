"""``MinTriang⟨κ⟩(G)``: minimum-cost minimal triangulation (Figure 3).

Dynamic programming over full blocks by ascending cardinality
(Bouchitté–Todinca, generalized to arbitrary split-monotone bag costs):

* for each full block ``(S, C)`` choose the PMC ``Ω`` with
  ``S ⊂ Ω ⊆ S ∪ C`` minimizing ``κ(G[S ∪ C], H_{R(S,C)}(Ω))``, where the
  triangulation assembles ``Ω`` with the previously stored optima of the
  sub-blocks of ``Ω`` inside the realization (Equation (1));
* finally choose the top-level PMC minimizing ``κ(G, H_G(Ω))``.

A triangulation is represented by its bag set — its maximal cliques — which
suffices because κ is a bag cost; the chordal graph itself is materialized
only on demand.

The DP is compositional.  Each block's candidates are compiled once per
context (:meth:`TriangulationContext.candidates`: ``Ω``, ``|Ω|``, the
structural fill term and the child block positions), and a table entry
is ``(value, fold state, argmin candidate)``.  Bags are rebuilt from
these backpointers only for the winner of a run.  A candidate is valued
in one of two ways, inside the same loop:

* **Fold.**  A cost that declares a fold next to its ``evaluate`` (the
  four registry costs; the contract is in :mod:`repro.costs.base`) is
  valued from ``|Ω|``, the fill term and the children's fold states.
  The fold returns exactly the float ``evaluate`` would.
* **Generic.**  Every other cost — weighted, hypergraph, user-defined,
  or a subclass that overrides ``evaluate`` — is valued by ``evaluate``
  over the assembled bag list, which is then its fold state.

Lawler–Murty constraints ``κ[I,X]`` (a :class:`ConstrainedCost` over a
folding base) fold without bags too, as integer masks over the context's
:class:`~repro.core.context.SeparatorIndex`.  A constraint ``S`` applies
to a block when ``S ⊆ S ∪ C``; an applicable excluded ``S`` rejects
``Ω`` exactly when ``S ⊆ Ω``, and an applicable included ``S`` passes
when ``S ⊆ Ω`` or ``S`` lies inside one child block.  This is exact:
each child's entry already enforces the constraints inside its own
region, and a set is a clique of ``H_T`` exactly when it lies in one bag
of ``T``.  The ranked loop hands its constraints over as those masks
(:func:`constrained_min_bags`), so its children build no label sets, and
recomputes only the blocks they touch over the unconstrained table.
Over a non-folding base the generic step calls
:meth:`ConstrainedCost.evaluate`, and so does a run with a constraint
outside ``MinSep(G)`` (only a library caller can pass one, as a
:class:`ConstrainedCost` to :func:`min_triangulation_and_table`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from ..graphs.graph import Graph, Vertex
from ..graphs.kernels import KernelSpec
from ..costs.base import Bag, BagCost, Fold, INFEASIBLE, declared_fold
from ..costs.constrained import ConstrainedCost
from ..triangulation.saturate import saturate_bags
from .context import Candidate, TriangulationContext

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

__all__ = [
    "Triangulation",
    "min_triangulation",
    "min_triangulation_with_context",
    "min_triangulation_and_table",
    "constrained_min_bags",
]


@dataclass(frozen=True)
class Triangulation:
    """A minimal triangulation as its bag set (maximal cliques) plus cost.

    ``graph`` is the graph that was triangulated.  The chordal graph, the
    fill edges and the identifying minimal separator set are derived
    lazily.
    """

    graph: Graph
    bags: frozenset[Bag]
    cost: float

    @cached_property
    def chordal_graph(self) -> Graph:
        """The triangulation ``H`` itself (``G`` with every bag saturated)."""
        return saturate_bags(self.graph, self.bags)

    @cached_property
    def minimal_separators(self) -> frozenset[Separator]:
        """``MinSep(H)`` — the maximal pairwise-parallel set identifying H.

        Computed as the adhesions of a clique tree over the bag set
        (Parra–Scheffler, Theorem 2.5).  Every clique tree has the same
        adhesions, so a Prim pass over bag intersections (a
        maximum-weight spanning tree of the clique graph) serves; an
        empty adhesion joins two components and is not a separator.
        """
        rest = list(self.bags)
        if not rest:
            return frozenset()
        tree_bag = rest.pop()
        # links[i]: the largest adhesion of rest[i] to the tree so far.
        links = [tree_bag & bag for bag in rest]
        sizes = [len(link) for link in links]
        seps = set()
        while rest:
            best = sizes.index(max(sizes))
            tree_bag = rest[best]
            if sizes[best]:
                seps.add(links[best])
            rest[best], links[best], sizes[best] = rest[-1], links[-1], sizes[-1]
            rest.pop()
            links.pop()
            sizes.pop()
            for i, bag in enumerate(rest):
                link = tree_bag & bag
                if len(link) > sizes[i]:
                    links[i] = link
                    sizes[i] = len(link)
        return frozenset(seps)

    @property
    def width(self) -> int:
        """Width of the decomposition: largest bag size minus one."""
        return max((len(b) for b in self.bags), default=0) - 1

    def fill_in(self) -> int:
        """Number of fill edges relative to :attr:`graph`."""
        from ..costs.classic import count_fill_edges

        return count_fill_edges(self.graph, self.bags)

    def __len__(self) -> int:
        return len(self.bags)


#: A DP table entry: ``(value, fold state, argmin candidate index)``.
_Entry = tuple[float, object, int]
_Table = list[_Entry]
_INFEASIBLE_ENTRY: _Entry = (INFEASIBLE, None, -1)
#: The constraint check of one DP step: the candidates' ``(inside,
#: covered)`` masks, the included separators that apply there and the
#: excluded ones (see :class:`~repro.core.context.SeparatorIndex`).
_Checks = tuple[Sequence[tuple[int, int]], int, int]


def _fold_and_constraints(
    cost: BagCost, graph: Graph
) -> tuple[Fold | None, frozenset[Separator], frozenset[Separator]]:
    """``(fold, include, exclude)`` for the DP loop.

    ``fold`` is ``None`` for the generic path, whose value step is
    ``cost.evaluate`` — constraints included, so both sets are empty.
    A :class:`ConstrainedCost` whose ``evaluate`` is not overridden
    folds when its base does, and hands its constraints to the loop.
    """
    empty: frozenset[Separator] = frozenset()
    if (
        isinstance(cost, ConstrainedCost)
        and type(cost).evaluate is ConstrainedCost.evaluate
    ):
        fold = declared_fold(cost.base, graph)
        if fold is None:
            return None, empty, empty
        return fold, cost.include, cost.exclude
    return declared_fold(cost, graph), empty, empty


def _best(
    candidates: Sequence[Candidate],
    table: _Table,
    fold: Fold | None,
    cost: BagCost,
    region: Graph | None,
    checks: _Checks | None,
) -> _Entry:
    """One DP step: the cheapest feasible candidate, ties to the first.

    ``region`` is the graph the generic step evaluates on (unused by a
    fold); ``checks`` are the constraints that apply here, if any.
    """
    best = _INFEASIBLE_ENTRY
    best_value = INFEASIBLE
    if checks is not None:
        masks, need, exclude = checks
    for index, (omega, size, fill, children) in enumerate(candidates):
        if checks is not None:
            inside, covered = masks[index]
            if inside & exclude or need & ~covered:
                continue
        states = []
        for child in children:
            entry = table[child]
            if entry[2] < 0:
                break
            states.append(entry[1])
        else:
            if fold is not None:
                value, state = fold(size, fill, states)
            else:
                state = [omega]
                for child_bags in states:
                    state.extend(child_bags)
                value = cost.evaluate(region, state)
            if value < best_value:
                best_value = value
                best = (value, state, index)
    return best


def _rebuild_bags(
    winner: Candidate, per_block: list[tuple[Candidate, ...]], table: _Table
) -> list[Bag]:
    """The winner's bags from the backpointers: ``Ω``, then each child's
    bags in turn (the order the generic step assembles them in)."""
    bags: list[Bag] = []
    stack = [winner]
    while stack:
        omega, _size, _fill, children = stack.pop()
        bags.append(omega)
        for child in reversed(children):
            stack.append(per_block[child][table[child][2]])
    return bags


def min_triangulation_and_table(
    context: TriangulationContext,
    cost: BagCost,
) -> tuple[Triangulation | None, _Table]:
    """``MinTriang⟨κ⟩`` over a prebuilt context, exposing the DP table.

    The table is a list parallel to ``context.block_masks``; the ranked
    loop reuses it for its children through :func:`constrained_min_bags`.
    The triangulation is ``None`` when no feasible one exists (only
    possible with a width bound or an unsatisfiable constrained cost).
    """
    graph = context.graph
    if graph.num_vertices() == 0:
        empty = Triangulation(graph, frozenset(), cost.evaluate(graph, frozenset()))
        return empty, []

    fold, include, exclude = _fold_and_constraints(cost, graph)
    included = excluded = 0
    if include or exclude:
        index = context.separator_index()
        masks = index.mask_of(include), index.mask_of(exclude)
        if None in masks:
            # A constraint outside MinSep(G): the generic path (which
            # ConstrainedCost.evaluate makes correct).
            fold = None
        else:
            included, excluded = masks
    value, bags, table = _solve(context, cost, fold, included, excluded)
    if bags is None:
        return None, table
    return Triangulation(graph, frozenset(bags), value), table


def constrained_min_bags(
    context: TriangulationContext,
    cost: BagCost,
    base_table: _Table,
    include: int,
    exclude: int,
) -> tuple[float, list[PMC]] | None:
    """``MinTriang⟨κ[I,X]⟩`` for one Lawler–Murty child, with ``I`` and
    ``X`` as masks over the context's
    :class:`~repro.core.context.SeparatorIndex`.

    Recomputes the blocks the constraints touch over ``base_table``, the
    unconstrained table of ``cost``.  A folding cost checks the masks
    directly; any other is wrapped in a :class:`ConstrainedCost` over the
    masks' separators, for the generic step.  Returns the value and bags
    of the partition's representative, or ``None`` when the partition
    holds no triangulation.
    """
    fold = declared_fold(cost, context.graph)
    touched = include | exclude
    if fold is None:
        index = context.separator_index()
        cost = ConstrainedCost(
            cost, include=index.members(include), exclude=index.members(exclude)
        )
        include = exclude = 0
    value, bags, _table = _solve(
        context, cost, fold, include, exclude, (base_table, touched)
    )
    if bags is None or value >= INFEASIBLE:
        return None
    return value, bags


def _solve(
    context: TriangulationContext,
    cost: BagCost,
    fold: Fold | None,
    included: int,
    excluded: int,
    reuse: tuple[_Table, int] | None = None,
) -> tuple[float, list[PMC] | None, _Table]:
    """The block DP: ``(value, bags, table)``, ``bags`` ``None`` when no
    feasible triangulation exists.

    ``included``/``excluded`` are the constraint masks the fold path
    checks.  ``reuse`` is ``(table, touched)``: an unconstrained table of
    the same context and base cost, of which only the blocks whose mask
    meets the separator mask ``touched`` are recomputed.
    """
    per_block, root = context.candidates()
    constrained = included | excluded
    if constrained or reuse is not None:
        index = context.separator_index()
        block_masks = index.blocks
        block_checks, root_checks = index.candidates
    if reuse is not None:
        reusable_table, touched = reuse
        table = list(reusable_table)
        positions: Sequence[int] = [
            p for p, mask in enumerate(block_masks) if mask & touched
        ]
    else:
        table = [_INFEASIBLE_ENTRY] * len(per_block)
        positions = range(len(per_block))
    # Only the generic step reads the label-level blocks.
    blocks = context.blocks if fold is None else None

    for position in positions:
        checks = None
        if constrained and block_masks[position] & constrained:
            need = included & block_masks[position]
            checks = (block_checks[position], need, excluded)
        table[position] = _best(
            per_block[position],
            table,
            fold,
            cost,
            None if blocks is None else context.block_subgraph(blocks[position]),
            checks,
        )
    # The root candidates follow root_pmc_order(): ties must resolve the
    # same way under every graph kernel and across resumed processes.
    checks = (root_checks, included, excluded) if constrained else None
    value, state, winner = _best(root, table, fold, cost, context.graph, checks)
    if winner < 0:
        return value, None, table
    bags = state if fold is None else _rebuild_bags(root[winner], per_block, table)
    return value, bags, table


def min_triangulation_with_context(
    context: TriangulationContext, cost: BagCost
) -> Triangulation | None:
    """``MinTriang⟨κ⟩`` over a prebuilt context.

    Returns ``None`` when no feasible triangulation exists (only possible
    with a width bound or an unsatisfiable constrained cost).
    """
    result, _table = min_triangulation_and_table(context, cost)
    return result


def min_triangulation(
    graph: Graph,
    cost: BagCost,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
    kernel: "str | KernelSpec" = "auto",
) -> Triangulation | None:
    """Minimum-``κ`` minimal triangulation of ``graph``.

    Disconnected graphs are triangulated component-wise (a minimal
    triangulation of a disconnected graph is the union of minimal
    triangulations of its components); the reported cost is ``κ`` evaluated
    on the combined bag set.  Per-component optimization is globally
    optimal for any cost that is monotone in each component's bags —
    all built-in costs qualify.

    Parameters
    ----------
    graph:
        Graph to triangulate.
    cost:
        A split-monotone bag cost.
    context:
        Optional prebuilt :class:`TriangulationContext` (connected graphs
        only; ignored for disconnected inputs).
    width_bound:
        Restrict to triangulations of width ≤ bound (``MinTriangB``).
    kernel:
        Graph kernel for the context initialization when none is passed
        in: a registered name, a spec, or ``"auto"`` (default) — see
        :meth:`TriangulationContext.build`.
    """
    if context is not None:
        return min_triangulation_with_context(context, cost)
    if graph.num_vertices() == 0 or graph.is_connected():
        ctx = TriangulationContext.build(
            graph, width_bound=width_bound, kernel=kernel
        )
        return min_triangulation_with_context(ctx, cost)

    all_bags: set[Bag] = set()
    for comp in graph.connected_components():
        sub = graph.subgraph(comp)
        ctx = TriangulationContext.build(
            sub, width_bound=width_bound, kernel=kernel
        )
        result = min_triangulation_with_context(ctx, cost)
        if result is None:
            return None
        all_bags |= result.bags
    combined = frozenset(all_bags)
    return Triangulation(graph, combined, cost.evaluate(graph, combined))
