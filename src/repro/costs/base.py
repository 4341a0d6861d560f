"""The split-monotone bag cost interface (Section 3 of the paper).

A *cost function over tree decompositions* maps ``(G, T)`` to a number.
The paper restricts attention to costs that are

1. **invariant under bag equivalence** — they depend only on ``bags(T)``,
   hence the interface below takes the bag set, not a tree; and
2. **split monotone** — cutting a decomposition along an edge and replacing
   one side with a no-more-expensive alternative never increases the cost
   (Definition 3.2).

Split monotonicity is a *semantic contract* the implementations promise;
it cannot be checked locally, but the test suite probes it empirically on
random instances (see ``tests/costs/test_split_monotone.py``).

Because bag costs are invariant under bag equivalence, evaluating a cost on
a triangulation ``H`` means evaluating it on ``MaxClq(H)`` — any clique
tree gives the same value.  :meth:`BagCost.of_triangulation` does this.

The fold contract
-----------------
The block DP of :mod:`repro.core.mintriang` builds every candidate
triangulation of a block from one PMC ``Ω`` and the stored optima of
``Ω``'s child blocks.  A cost may declare :meth:`BagCost.fold`, which
values such a candidate from three numbers instead of its bag list:
``|Ω|``, the structural fill term ``nonedges(Ω) − Σ nonedges(S_child)``
and the *fold states* the children's table entries hold.  A fold
returns ``(value, state)``, and ``value`` must be exactly the float
``evaluate`` returns on the assembled bags — the DP's tie-breaking, the
ranked order and every persisted answer depend on that identity.  The
DP uses a fold only when the class that defines ``evaluate`` also
defines ``fold`` (see :func:`declared_fold`): a subclass that overrides
``evaluate`` alone is valued by its own ``evaluate``.  Costs without a
fold — weighted, hypergraph and user-defined ones — take the generic
path, where the fold state is the assembled bag list and ``evaluate``
values it.

A fold may also declare itself *monotone* (:attr:`BagCost.monotone_fold`):
its value never decreases when one child's state is replaced by a state
of higher value.  Then a Lawler–Murty child's DP can stop a block's scan
at a floor (see :func:`~repro.core.mintriang.constrained_min_bags`),
since constraints only remove candidates and raise the children's
values.  Width's ``max`` and the sums of fill and ``Σ 2^|b|`` qualify.
The lexicographic ``scale · width + fill`` does not: at scale 20, a
``|Ω| = 5`` candidate over a child ``(width 1, fill 10)``, of value 30,
is worth 90, and over a child ``(width 2, fill 0)``, of value 40, only
80.  The declaration counts only on the class that defines ``fold``, so
a subclass that redefines ``fold`` declares it afresh or folds without
floors.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Collection, Sequence

from ..graphs.graph import Graph, Vertex
from ..graphs.chordal import maximal_cliques_chordal

Bag = frozenset[Vertex]

INFEASIBLE = math.inf
"""Cost of a forbidden decomposition (constraint violations, width bounds)."""

Fold = Callable[[int, int, Sequence[object]], tuple[float, object]]
"""``fold(|Ω|, fill term, child states) -> (value, state)``; see the
module docstring for the contract."""

__all__ = ["Bag", "BagCost", "Fold", "INFEASIBLE", "declared_fold"]


class BagCost(ABC):
    """A split-monotone, bag-equivalence-invariant cost function.

    Subclasses implement :meth:`evaluate`; all other conveniences derive
    from it.  Implementations must be pure (no dependence on evaluation
    order) — the block DP calls them on partial triangulations of block
    realizations in an order of its choosing.
    """

    #: Human-readable identifier used in benchmark reports.
    name: str = "cost"

    #: Declared by subclasses; the enumeration guarantees of Theorems 4.4
    #: and 4.5 only hold when this is True.
    split_monotone: bool = True

    #: Declared beside a :meth:`fold` whose value never decreases when a
    #: child's value rises; see the module docstring.
    monotone_fold: bool = False

    @abstractmethod
    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        """``κ(G, T)`` for any tree decomposition ``T`` with these bags.

        Parameters
        ----------
        graph:
            The graph being decomposed.  During the block DP this is an
            *induced subgraph* ``G[S ∪ C]`` of the original input, matching
            line 4 of the ``MinTriang`` pseudocode.
        bags:
            The bag set of the decomposition (for minimal triangulations:
            the maximal cliques).
        """

    def fold(self, graph: Graph) -> Fold | None:
        """This cost as a fold over the block DP of ``graph``, or ``None``.

        ``graph`` is the whole graph the DP triangulates (every block
        region is an induced subgraph of it).  Return ``None`` where no
        fold reproduces :meth:`evaluate`'s floats exactly; the DP then
        takes the generic path.  See the module docstring.
        """
        return None

    def of_triangulation(self, graph: Graph, triangulation: Graph) -> float:
        """``κ(G, H)``: the cost of a triangulation via its maximal cliques."""
        return self.evaluate(graph, maximal_cliques_chordal(triangulation))

    def __call__(self, graph: Graph, bags: Collection[Bag]) -> float:
        return self.evaluate(graph, bags)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def declared_fold(cost: BagCost, graph: Graph) -> tuple[Fold, bool] | None:
    """``(cost.fold(graph), monotone)`` when the class defining
    ``evaluate`` declares the fold, else ``None``.

    The fold mirrors one particular ``evaluate``; a subclass that
    overrides ``evaluate`` without declaring its own fold must not
    inherit its parent's, so dispatch keys on where the two methods are
    defined rather than on ``isinstance`` of a built-in.  ``monotone``
    is :attr:`BagCost.monotone_fold` as the class defining ``fold``
    declares it.
    """
    folds, monotone = _declaration(type(cost))
    if not folds:
        return None
    fold = cost.fold(graph)
    return None if fold is None else (fold, monotone)


@functools.cache
def _declaration(cls: type) -> tuple[bool, bool]:
    """``(folds, monotone)`` of a cost class, its MRO walked once."""

    def definer(name: str) -> type:
        return next(k for k in cls.__mro__ if name in vars(k))

    folds = definer("fold") is definer("evaluate")
    monotone = folds and definer("monotone_fold") is definer("fold")
    return folds, bool(monotone and cls.monotone_fold)
