"""Exact ranked recomposition of per-atom streams.

Leimer's decomposition theorem gives a bijection

    minimal triangulations of G
        ≅  Π over atoms A of (minimal triangulations of G[A])

with ``MaxClq(H)`` partitioned by the atoms, and the safe reductions of
:mod:`repro.preprocess.reduce` extend it with forced constant bags.  For
a cost that *composes* over that partition — a per-bag maximum such as
width, or a per-bag sum such as fill-in — the cost of a combination is a
monotone function of the per-atom costs, so the ranked stream over the
full graph is a **ranked product join** of the per-atom ranked streams:
a priority queue over index vectors into the atom sequences, seeded at
``(0, …, 0)``, popping the cheapest combination and pushing its
successors (one coordinate advanced), exactly the Lawler-style frontier
the core enumerator uses over partitions.

:class:`CostComposition` declares how (and whether) a registered cost
composes; :class:`PreprocessPlan` packages one graph's reductions and
atoms; :class:`ComposedRankedStream` is the merged stream, emitting
:class:`~repro.core.ranked.RankedResult` objects whose triangulations
live on the *original* graph (bags lifted through the reduction trace).
Every emission recomputes the cost on the lifted bag set and verifies it
against the composed value — the composition invariants are checked on
every answer, not assumed.

The merged stream is pausable like the core one:
:meth:`ComposedRankedStream.checkpoint` captures the product frontier
plus one native checkpoint per atom stream, and
:meth:`ComposedRankedStream.from_checkpoint` resumes the exact sequence.
Its token uses the framing of :mod:`repro.api.checkpoint` (kind ``C``):
the reduction steps, complete atoms, atoms and drained bags are vertex
masks over the graph section's canonical vertex order, each atom
stream's :class:`~repro.api.checkpoint.StreamCheckpoint` token is nested
inside, and the product frontier and visited set are int vectors.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass
from typing import ClassVar

from ..api.checkpoint import (
    COMPOSED_KIND,
    StreamCheckpoint,
    TokenGraph,
    TokenHeader,
    TokenReader,
    TokenWriter,
    decoding,
    mask_labels,
    open_token,
    write_header,
)
from ..costs.base import Bag, BagCost
from ..core.ranked import RankedResult
from ..core.mintriang import Triangulation
from ..graphs.graph import Graph, Vertex
from .atoms import Atom, AtomDecomposition, atom_decomposition
from .reduce import ReductionStep, ReductionTrace, reduce_graph

Separator = frozenset[Vertex]

__all__ = [
    "CostComposition",
    "composition_for",
    "register_composition",
    "PreprocessPlan",
    "ComposedRankedStream",
    "ComposedCheckpoint",
    "COMPOSED_CHECKPOINT_VERSION",
]


# ----------------------------------------------------------------------
# Cost composition registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostComposition:
    """How a registered cost combines across atoms and forced bags.

    Attributes
    ----------
    mode:
        ``"sum"`` — the cost of a combined triangulation is the sum of
        the per-piece costs (fill-in, per-bag sums); ``"max"`` — it is
        their maximum (width).  Both are monotone in every coordinate,
        which is what makes the ranked product join emit in
        non-decreasing order.
    duplicate_sensitive:
        ``True`` when the cost reads each bag individually (e.g.
        ``Σ 2^|b|``), so a bag shadowed by the reduction lift would shift
        the sum.  Reductions are then restricted to provably shadow-free
        eliminations (see :func:`repro.preprocess.reduce.reduce_graph`).
        Pair-based costs (fill-in) and max-based costs (width) are
        insensitive.
    """

    mode: str
    duplicate_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("sum", "max"):
            raise ValueError(f"mode must be 'sum' or 'max', got {self.mode!r}")

    def combine(self, constant: float, values: "Collection[float]") -> float:
        if self.mode == "sum":
            return constant + sum(values)
        return max(constant, *values) if values else constant

    def identity(self) -> float:
        """The neutral constant contribution (no forced bags yet)."""
        return 0.0 if self.mode == "sum" else float("-inf")


#: cost registry name -> composition declaration.  ``lex-width-fill`` is
#: deliberately absent: its width term is scaled by ``|E(G)|`` of the
#: graph it is constructed for, so per-atom values are not comparable and
#: preprocessing auto-disables (Session falls back to the direct path).
_COMPOSITIONS: dict[str, CostComposition] = {
    "width": CostComposition(mode="max"),
    "fill": CostComposition(mode="sum"),
    "sum-exp-bags": CostComposition(mode="sum", duplicate_sensitive=True),
}


def register_composition(
    name: str, mode: str, *, duplicate_sensitive: bool = False
) -> None:
    """Declare that the cost registered under ``name`` composes.

    Only declare compositions for costs whose value on a disjoint-atom
    bag partition genuinely equals the ``mode``-combination of the
    per-atom values *and* whose factory is graph-independent (the same
    evaluation semantics on every induced subgraph) — the composed
    stream verifies this on every emitted answer and raises on a lie.
    """
    _COMPOSITIONS[name] = CostComposition(
        mode=mode, duplicate_sensitive=duplicate_sensitive
    )


def composition_for(spec: object) -> CostComposition | None:
    """The composition for a cost spec, or ``None`` (⇒ preprocessing off).

    Only registry *names* compose: a :class:`BagCost` instance carries no
    declaration, so it routes to the direct pipeline.
    """
    if isinstance(spec, str):
        return _COMPOSITIONS.get(spec)
    return None


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PreprocessPlan:
    """One graph's reductions and atoms, ready to stream.

    Attributes
    ----------
    graph:
        The original graph (a private snapshot; never mutated).
    trace:
        The reduction trace (possibly empty).
    reduced:
        The graph after reductions.
    decomposition:
        Atoms of :attr:`reduced`.
    complete_atoms:
        Atoms that are cliques — each has exactly one minimal
        triangulation (itself, one bag), so it contributes a constant.
    variable_atoms:
        Atoms needing a real per-atom ranked stream.
    """

    graph: Graph
    trace: ReductionTrace
    reduced: Graph
    decomposition: AtomDecomposition
    complete_atoms: tuple[Atom, ...]
    variable_atoms: tuple[Atom, ...]

    @staticmethod
    def build(graph: Graph, *, duplicate_sensitive: bool = False) -> "PreprocessPlan":
        """Reduce, decompose, and classify the atoms of ``graph``.

        The plan depends on the graph and the ``duplicate_sensitive``
        flag of the cost composition only — it is shared across cost
        specs with the same flag, width bounds and kernels.
        """
        snapshot = graph.copy()
        reduced, trace = reduce_graph(
            snapshot, duplicate_sensitive=duplicate_sensitive
        )
        decomposition = atom_decomposition(reduced)
        complete = tuple(
            a for a in decomposition.atoms if reduced.is_clique(a)
        )
        variable = tuple(
            a for a in decomposition.atoms if not reduced.is_clique(a)
        )
        return PreprocessPlan(
            graph=snapshot,
            trace=trace,
            reduced=reduced,
            decomposition=decomposition,
            complete_atoms=complete,
            variable_atoms=variable,
        )

    @property
    def trivial(self) -> bool:
        """Whether preprocessing found nothing to exploit.

        A trivial plan (no reductions, at most one atom, nothing forced)
        means the composed stream would wrap a single inner stream — the
        session then uses the direct pipeline, which additionally keeps
        the native checkpoint format.
        """
        return not self.trace and self.decomposition.is_trivial

    @property
    def constant_bags(self) -> tuple[Bag, ...]:
        """Forced bags: reduction bags plus complete-atom cliques."""
        return tuple(self.trace.bags) + tuple(self.complete_atoms)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.trace.describe()}; {self.decomposition.describe()} "
            f"({len(self.variable_atoms)} enumerated, "
            f"{len(self.complete_atoms)} complete)"
        )


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------
#: v2: the binary token (v1 tokens were pickle payloads).
COMPOSED_CHECKPOINT_VERSION = 2

#: Reduction step kinds, by their code in a token.
_STEP_KINDS = ("isolated", "pendant", "simplicial")


@dataclass(frozen=True)
class PieceState:
    """Resumable state of one per-atom stream inside a composed stream."""

    atom: Atom
    #: Results already drained from the atom stream, in rank order, as
    #: ``(value, bags)`` pairs — the product frontier indexes into this.
    drained: tuple[tuple[float, frozenset[Bag]], ...]
    #: Native checkpoint of the atom stream *after* draining ``drained``.
    checkpoint: StreamCheckpoint


@dataclass(frozen=True)
class ComposedCheckpoint:
    """Full resumable state of a paused composed (preprocessed) stream.

    Mirrors :class:`repro.api.checkpoint.StreamCheckpoint` for the
    product merge: the original graph, the reduction steps and atom
    classification (stored explicitly, so resume does not depend on
    re-deriving the plan), one :class:`PieceState` per variable atom,
    and the merge frontier (index vectors with their combined values and
    FIFO tie-break counters).
    """

    fingerprint: str
    cost_spec: str
    width_bound: int | None
    next_rank: int
    next_order: int
    graph: TokenGraph
    steps: tuple[ReductionStep, ...]
    complete_atoms: tuple[Atom, ...]
    pieces: tuple[PieceState, ...]
    frontier: tuple[tuple[float, int, tuple[int, ...]], ...]
    visited: tuple[tuple[int, ...], ...]
    version: int = COMPOSED_CHECKPOINT_VERSION
    #: Which checkpoint kind this is (the pipeline a resume takes).
    composed: ClassVar[bool] = True

    @property
    def exhausted(self) -> bool:
        """Whether the stream had no further answers when checkpointed."""
        return not self.frontier

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The original graph's vertex labels in canonical order."""
        return self.graph.vertices

    @property
    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The original graph's edges in canonical order."""
        return self.graph.edges

    def restore_graph(self) -> Graph:
        """Rebuild the checkpointed original graph."""
        return self.graph.restore()

    def to_bytes(self) -> bytes:
        """Serialize to a binary token (see the module docstring)."""
        writer = TokenWriter()
        write_header(writer, COMPOSED_KIND, self)
        position = {v: i for i, v in enumerate(self.graph.vertices)}

        def mask(labels) -> int:
            m = 0
            for v in labels:
                m |= 1 << position[v]
            return m

        writer.uint(len(self.steps))
        for step in self.steps:
            writer.uint(_STEP_KINDS.index(step.kind))
            writer.uint(position[step.vertex])
            writer.mask(mask(step.bag))
        writer.uint(len(self.complete_atoms))
        for atom in self.complete_atoms:
            writer.mask(mask(atom))
        writer.uint(len(self.pieces))
        for piece in self.pieces:
            writer.mask(mask(piece.atom))
            writer.uint(len(piece.drained))
            for value, bags in piece.drained:
                writer.value(value)
                writer.uint(len(bags))
                for bag in sorted(map(mask, bags)):
                    writer.mask(bag)
            writer.blob(piece.checkpoint.to_bytes())
        width = len(self.pieces)
        writer.uint(len(self.frontier))
        for value, order, vec in self.frontier:
            writer.value(value)
            writer.uint(order)
            _write_vector(writer, vec, width)
        writer.uint(len(self.visited))
        for vec in self.visited:
            _write_vector(writer, vec, width)
        return writer.finish()

    @staticmethod
    def from_bytes(data: bytes) -> "ComposedCheckpoint":
        """Decode a token produced by :meth:`to_bytes`.

        Raises
        ------
        ValueError
            If the token is malformed, corrupted, of the direct kind, or
            of an unsupported version.
        """
        return ComposedCheckpoint._decode(*open_token(data, (COMPOSED_KIND,)))

    @staticmethod
    def _decode(header: TokenHeader, reader: TokenReader) -> "ComposedCheckpoint":
        with decoding:
            vertices = header.graph.vertices
            steps = tuple(
                ReductionStep(
                    _STEP_KINDS[reader.uint()],
                    vertices[reader.uint()],
                    reader.vertex_set(vertices),
                )
                for _ in range(reader.uint())
            )
            complete = tuple(
                reader.vertex_set(vertices) for _ in range(reader.uint())
            )
            pieces = []
            for _ in range(reader.uint()):
                atom = reader.vertex_set(vertices)
                drained = tuple(
                    (reader.value(), _read_bags(reader, vertices))
                    for _ in range(reader.uint())
                )
                inner = StreamCheckpoint.from_bytes(reader.blob())
                pieces.append(PieceState(atom, drained, inner))
            width = len(pieces)
            frontier = tuple(
                (reader.value(), reader.uint(), _read_vector(reader, width))
                for _ in range(reader.uint())
            )
            visited = tuple(
                _read_vector(reader, width) for _ in range(reader.uint())
            )
            reader.end()
        if header.exhausted != (not frontier):
            raise ValueError("checkpoint token's exhausted flag contradicts its frontier")
        return ComposedCheckpoint(
            fingerprint=header.fingerprint,
            cost_spec=header.cost_spec,
            width_bound=header.width_bound,
            next_rank=header.next_rank,
            next_order=header.next_order,
            graph=header.graph,
            steps=steps,
            complete_atoms=complete,
            pieces=tuple(pieces),
            frontier=frontier,
            visited=visited,
            version=header.version,
        )


def _write_vector(writer: TokenWriter, vec: tuple[int, ...], width: int) -> None:
    if len(vec) != width:
        raise ValueError(f"index vector {vec} does not have {width} entries")
    for v in vec:
        writer.uint(v)


def _read_vector(reader: TokenReader, width: int) -> tuple[int, ...]:
    return tuple(reader.uint() for _ in range(width))


def _read_bags(reader: TokenReader, vertices: tuple) -> frozenset[Bag]:
    """A bag set written as ascending vertex masks."""
    masks = [reader.mask() for _ in range(reader.uint())]
    if any(a >= b for a, b in zip(masks, masks[1:])):
        raise ValueError("bag masks are not in ascending order")
    return frozenset(mask_labels(m, vertices) for m in masks)


# ----------------------------------------------------------------------
# The composed stream
# ----------------------------------------------------------------------
class _Piece:
    """One variable atom: its live ranked stream plus the drained prefix."""

    __slots__ = ("atom", "stream", "drained", "done")

    def __init__(self, atom: Atom, stream, drained=()) -> None:
        self.atom = atom
        self.stream = stream  # RankedStream (duck-typed)
        self.drained: list[tuple[float, frozenset[Bag]]] = list(drained)
        self.done = False

    def result_at(self, index: int):
        """The ``(value, bags)`` of rank ``index``, draining as needed."""
        while len(self.drained) <= index and not self.done:
            try:
                result = next(self.stream)
            except StopIteration:
                self.done = True
                break
            self.drained.append(
                (result.cost, frozenset(result.triangulation.bags))
            )
        if index < len(self.drained):
            return self.drained[index]
        return None

    @property
    def expansions(self) -> int:
        return self.stream.expansions if self.stream is not None else 0


#: Opens a fresh ranked stream over one atom subgraph (rank 0).
PieceOpener = Callable[[Graph], object]
#: Reopens a ranked stream over one atom subgraph from its checkpoint.
PieceResumer = Callable[[object], object]


class ComposedRankedStream(Iterator[RankedResult]):
    """Ranked enumeration over the full graph via its pieces.

    Presents the same surface as :class:`repro.api.stream.RankedStream`
    (iteration, ``checkpoint()``, ``close()``, the stats properties), so
    sessions and collectors treat both uniformly.  Emission order is
    deterministic: combined values tie-break by a FIFO counter over the
    product frontier, and the per-atom streams are themselves
    deterministic.
    """

    def __init__(
        self,
        *,
        graph: Graph,
        trace: ReductionTrace,
        complete_atoms: tuple[Atom, ...],
        pieces: list[_Piece],
        cost: BagCost,
        composition: CostComposition,
        cost_spec: str,
        fingerprint: str,
        width_bound: int | None,
        heap: list[tuple[float, int, tuple[int, ...]]],
        visited: set[tuple[int, ...]],
        next_rank: int,
        next_order: int,
        started: float | None = None,
    ) -> None:
        self._graph = graph
        self._trace = trace
        self._complete_atoms = complete_atoms
        self._pieces = pieces
        self._cost = cost
        self._composition = composition
        self._cost_spec = cost_spec
        self._fingerprint = fingerprint
        self._width_bound = width_bound
        self._heap = heap
        heapq.heapify(self._heap)
        self._visited = visited
        self._rank = next_rank
        self._base_rank = next_rank
        self._order = next_order
        self._closed = False
        # The last answer's index vector while its successors are still
        # unpushed (see _settle), else None.
        self._pending: tuple[int, ...] | None = None
        self._started = time.perf_counter() if started is None else started
        # The graph as checkpoints carry it, built at the first one.
        self._token_graph: TokenGraph | None = None
        # Forced-bag contribution, fixed across all combinations.
        constant = composition.identity()
        for bag in self._constant_bag_list():
            value = cost.evaluate(graph.subgraph(bag), (bag,))
            constant = composition.combine(
                constant, (value,)
            ) if composition.mode == "max" else constant + value
        self._constant_value = constant
        self.engine_name = "composed"

    def _constant_bag_list(self) -> tuple[Bag, ...]:
        return tuple(self._trace.bags) + tuple(self._complete_atoms)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        plan: PreprocessPlan,
        cost: BagCost,
        composition: CostComposition,
        *,
        cost_spec: str,
        fingerprint: str,
        width_bound: int | None = None,
        open_piece: PieceOpener,
    ) -> "ComposedRankedStream":
        """Begin the composed enumeration at rank 0.

        ``open_piece`` receives each variable atom's induced subgraph
        and returns a started ranked stream over it (the session wires
        this to its context cache, so atom initializations are cached
        and shared across requests).
        """
        started = time.perf_counter()
        graph = plan.graph
        # A forced bag larger than the width bound makes every
        # triangulation of the full graph infeasible.
        if width_bound is not None and any(
            len(b) > width_bound + 1 for b in plan.constant_bags
        ):
            return cls._exhausted_stream(
                plan, cost, composition, cost_spec, fingerprint,
                width_bound, started,
            )
        pieces: list[_Piece] = []
        for atom in plan.variable_atoms:
            pieces.append(_Piece(atom, open_piece(graph.subgraph(atom))))
        vec0 = tuple(0 for _ in pieces)
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        visited: set[tuple[int, ...]] = {vec0}
        stream = cls(
            graph=graph,
            trace=plan.trace,
            complete_atoms=plan.complete_atoms,
            pieces=pieces,
            cost=cost,
            composition=composition,
            cost_spec=cost_spec,
            fingerprint=fingerprint,
            width_bound=width_bound,
            heap=heap,
            visited=visited,
            next_rank=0,
            next_order=1,
            started=started,
        )
        # An infeasible atom leaves the frontier empty: no answers at all.
        if all(p.result_at(0) is not None for p in pieces):
            heapq.heappush(
                stream._heap, (stream._combined_value(vec0), 0, vec0)
            )
        return stream

    @classmethod
    def _exhausted_stream(
        cls, plan, cost, composition, cost_spec, fingerprint, width_bound,
        started,
    ) -> "ComposedRankedStream":
        return cls(
            graph=plan.graph,
            trace=plan.trace,
            complete_atoms=plan.complete_atoms,
            pieces=[],
            cost=cost,
            composition=composition,
            cost_spec=cost_spec,
            fingerprint=fingerprint,
            width_bound=width_bound,
            heap=[],
            visited=set(),
            next_rank=0,
            next_order=0,
            started=started,
        )

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: ComposedCheckpoint,
        cost: BagCost,
        composition: CostComposition,
        *,
        resume_piece: PieceResumer,
        graph: Graph,
    ) -> "ComposedRankedStream":
        """Resume the exact sequence a prior composed stream paused.

        ``graph`` is the checkpoint's restored graph.  ``resume_piece``
        receives each variable atom's native checkpoint, once its graph
        section is known to be the atom's subgraph, and returns the
        resumed per-atom stream.  An exhausted token short-circuits: no
        atom stream (and hence no atom context) is ever touched just to
        emit nothing.
        """
        started = time.perf_counter()
        pieces: list[_Piece] = []
        if checkpoint.frontier:
            if any(
                v >= len(state.drained)
                for _value, _order, vec in checkpoint.frontier
                for v, state in zip(vec, checkpoint.pieces)
            ):
                raise ValueError(
                    "checkpoint frontier indexes past its drained answers; "
                    "the token is corrupted"
                )
            for state in checkpoint.pieces:
                piece = state.checkpoint
                if (
                    piece.width_bound != checkpoint.width_bound
                    or piece.graph != TokenGraph.of(graph.subgraph(state.atom))
                ):
                    raise ValueError(
                        "a piece checkpoint does not match its atom's graph; "
                        "the token is corrupted"
                    )
                pieces.append(
                    _Piece(state.atom, resume_piece(piece), drained=state.drained)
                )
        stream = cls(
            graph=graph,
            trace=ReductionTrace(steps=checkpoint.steps),
            complete_atoms=checkpoint.complete_atoms,
            pieces=pieces,
            cost=cost,
            composition=composition,
            cost_spec=checkpoint.cost_spec,
            fingerprint=checkpoint.fingerprint,
            width_bound=checkpoint.width_bound,
            heap=list(checkpoint.frontier),
            visited=set(checkpoint.visited),
            next_rank=checkpoint.next_rank,
            next_order=checkpoint.next_order,
            started=started,
        )
        stream._token_graph = checkpoint.graph
        return stream

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _combined_value(self, vec: tuple[int, ...]) -> float:
        values = [
            self._pieces[i].drained[v][0] for i, v in enumerate(vec)
        ]
        return self._composition.combine(self._constant_value, values)

    def __iter__(self) -> "ComposedRankedStream":
        return self

    def __next__(self) -> RankedResult:
        if self._closed:
            raise StopIteration
        self._settle()
        if not self._heap:
            raise StopIteration
        value, _order, vec = heapq.heappop(self._heap)
        bags: set[Bag] = set()
        for i, v in enumerate(vec):
            bags |= self._pieces[i].drained[v][1]
        bags.update(self._complete_atoms)
        lifted = self._trace.lift_bags(bags)
        verify = self._cost.evaluate(self._graph, lifted)
        if verify != value:
            raise RuntimeError(
                f"cost composition violated: composed value {value} but "
                f"{self._cost.name} evaluates to {verify} on the lifted "
                "bag set — the cost's registered composition is unsound "
                "for this graph"
            )
        result = RankedResult(
            triangulation=Triangulation(self._graph, lifted, value),
            rank=self._rank,
            elapsed_seconds=time.perf_counter() - self._started,
            include=frozenset(),
            exclude=frozenset(),
        )
        self._rank += 1
        self._pending = vec
        return result

    def _settle(self) -> None:
        """Push the last answer's successors (one coordinate advanced),
        if still pending, drawing each atom's next answer as needed.

        Every reader of the frontier or the work count settles first, so
        it sees every pending combination, as if the successors had been
        pushed before the answer was returned.
        """
        vec = self._pending
        if vec is None:
            return
        self._pending = None
        for i in range(len(vec)):
            succ = vec[:i] + (vec[i] + 1,) + vec[i + 1 :]
            if succ in self._visited:
                continue
            if self._pieces[i].result_at(vec[i] + 1) is None:
                self._visited.add(succ)  # atom exhausted: never available
                continue
            self._visited.add(succ)
            heapq.heappush(
                self._heap, (self._combined_value(succ), self._order, succ)
            )
            self._order += 1

    # ------------------------------------------------------------------
    # State (RankedStream-compatible surface)
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the enumerated (original) graph."""
        return self._fingerprint

    @property
    def cost_spec(self) -> str:
        """Registry name of the cost (always present for composed runs)."""
        return self._cost_spec

    @property
    def next_rank(self) -> int:
        """Rank the next emitted result will carry."""
        return self._rank

    @property
    def emitted(self) -> int:
        """Number of results emitted by *this* stream object."""
        return self._rank - self._base_rank

    @property
    def expansions(self) -> int:
        """Constrained DP runs executed across all atom streams.  Reading
        it may run pending child DPs, here and in the atom streams."""
        self._settle()
        return sum(p.expansions for p in self._pieces)

    @property
    def exhausted(self) -> bool:
        """Whether the enumeration space is fully emitted.  Reading it
        may draw atom answers, and so run child DPs, for the last
        answer's successors."""
        self._settle()
        return not self._heap

    @property
    def pieces(self) -> int:
        """Number of enumerated (variable-atom) streams."""
        return len(self._pieces)

    def checkpoint(self) -> ComposedCheckpoint:
        """Snapshot the product frontier; the stream remains usable.

        Stored in sorted (pop) order like the core checkpoint: the
        ``(value, order)`` prefix is a total order, so any heap layout
        of the same entries resumes identically.  The last answer's
        successors are pushed first (see :meth:`_settle`), and each atom
        stream settles its own checkpoint likewise.
        """
        self._settle()
        if self._token_graph is None:
            self._token_graph = TokenGraph.of(self._graph)
        piece_states = []
        for piece in self._pieces:
            piece_states.append(
                PieceState(
                    atom=piece.atom,
                    drained=tuple(piece.drained),
                    checkpoint=piece.stream.checkpoint(),
                )
            )
        return ComposedCheckpoint(
            fingerprint=self._fingerprint,
            cost_spec=self._cost_spec,
            width_bound=self._width_bound,
            next_rank=self._rank,
            next_order=self._order,
            graph=self._token_graph,
            steps=self._trace.steps,
            complete_atoms=self._complete_atoms,
            pieces=tuple(piece_states),
            frontier=tuple(sorted(self._heap)),
            visited=tuple(sorted(self._visited)),
        )

    def close(self) -> None:
        """End iteration: later ``next()`` calls raise ``StopIteration``.

        Idempotent.  The atom streams stay open: a checkpoint or a stats
        read after ``close()`` may still draw their answers to settle the
        last answer's successors, and must see what it would have seen
        before ``close()``.
        """
        self._closed = True

    def __enter__(self) -> "ComposedRankedStream":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
