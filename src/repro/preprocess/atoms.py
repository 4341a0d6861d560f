"""Clique-minimal-separator atom decomposition.

The *atoms* of a graph (Leimer 1993) are its maximal connected induced
subgraphs without a clique separator.  They are unique, they overlap
exactly on clique minimal separators, and they are the right granularity
for triangulation problems: ``H`` is a minimal triangulation of ``G``
iff ``H[A]`` is a minimal triangulation of ``G[A]`` for every atom ``A``
and ``H`` is their union — moreover ``MaxClq(H)`` is partitioned by the
atoms, which is what makes per-atom cost composition exact
(:mod:`repro.preprocess.recompose`).

The construction follows Berry, Pogorelcnik and Simonet ("An
introduction to clique minimal separator decomposition", 2010):

1. compute **any** minimal triangulation ``H`` of ``G`` (we use MCS-M,
   already in :mod:`repro.triangulation.mcs_m`; atoms do not depend on
   which minimal triangulation is used);
2. the clique minimal separators of ``G`` are exactly the minimal
   separators of ``H`` that are cliques in ``G``;
3. take a clique tree of ``H`` and **contract** every tree edge whose
   adhesion is *not* a clique in ``G``; the atoms are the unions of the
   bags in each contracted component.

Step 3 also handles disconnected input for free: the stitched clique
"tree" of a disconnected chordal graph uses empty adhesions between
components, the empty set is a clique, so components are never merged —
connected-component splitting is just the degenerate case of the
decomposition.

Step 2 has a second reading: the clique minimal separators are the
members of ``MinSep(G)`` that are cliques.  So a non-decomposable graph
needs no MCS-M run here: :meth:`~repro.preprocess.recompose
.PreprocessPlan.build` reads its plan off ``MinSep(G)``, a list its
context build needs anyway, and calls :func:`atom_decomposition` only
for graphs that have a simplicial vertex or a clique in that list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.cliquetree import UnionFind, clique_tree
from ..graphs.graph import Graph, Vertex
from ..graphs.ordering import vertex_set_sort_key
from ..triangulation.mcs_m import mcs_m

Separator = frozenset[Vertex]
Atom = frozenset[Vertex]

__all__ = ["AtomDecomposition", "atom_decomposition"]


@dataclass(frozen=True)
class AtomDecomposition:
    """The atoms of a graph, in canonical (sorted) order.

    Attributes
    ----------
    graph:
        The decomposed graph.
    atoms:
        Atom vertex sets, sorted by ``(size, labels)`` so every kernel,
        process and session enumerates them in the same order.
    separators:
        The clique minimal separators that cut the atom tree apart
        (empty adhesions between connected components excluded).
    """

    graph: Graph
    atoms: tuple[Atom, ...]
    separators: tuple[Separator, ...]

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def is_trivial(self) -> bool:
        """Whether the graph is a single atom (nothing to decompose)."""
        return len(self.atoms) <= 1

    def subgraphs(self) -> list[Graph]:
        """The induced subgraphs ``G[A]``, in atom order."""
        return [self.graph.subgraph(a) for a in self.atoms]

    def describe(self) -> str:
        """One-line human-readable summary."""
        sizes = ", ".join(str(len(a)) for a in self.atoms)
        return (
            f"{len(self.atoms)} atoms (sizes {sizes}) via "
            f"{len(self.separators)} clique minimal separators"
        )


def atom_decomposition(graph: Graph) -> AtomDecomposition:
    """Decompose ``graph`` into its atoms.

    Works on connected and disconnected inputs alike (each connected
    component decomposes independently; isolated vertices are singleton
    atoms).  The result is unique — independent of the minimal
    triangulation computed internally — by Leimer's theorem, and the
    returned order is canonical.
    """
    if graph.num_vertices() == 0:
        return AtomDecomposition(graph=graph, atoms=(), separators=())
    triangulated, _meo = mcs_m(graph)
    bags, edges = clique_tree(triangulated)
    bag_list = sorted(bags, key=vertex_set_sort_key)
    index = {bag: i for i, bag in enumerate(bag_list)}
    ds = UnionFind(len(bag_list))
    cut_separators: set[Separator] = set()
    for a, b in edges:
        adhesion = a & b
        if graph.is_clique(adhesion):
            if adhesion:
                cut_separators.add(frozenset(adhesion))
        else:
            ds.union(index[a], index[b])

    groups: dict[int, set[Vertex]] = {}
    for bag, i in index.items():
        groups.setdefault(ds.find(i), set()).update(bag)
    atoms = tuple(
        sorted(
            (frozenset(g) for g in groups.values()),
            key=lambda a: (len(a), vertex_set_sort_key(a)),
        )
    )
    # Only separators that actually cut two *distinct* atoms apart are
    # clique minimal separators of G; an adhesion repeated inside one
    # contracted group does not qualify.  With every non-clique edge
    # contracted, each clique adhesion does separate its two sides, so
    # the collected set is exactly the cut set (sorted for determinism).
    separators = tuple(sorted(cut_separators, key=vertex_set_sort_key))
    return AtomDecomposition(graph=graph, atoms=atoms, separators=separators)
