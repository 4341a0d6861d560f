"""Graph substrate: the data structure, chordal machinery, generators, IO."""

from .graph import Graph, Vertex, Edge
from .bitgraph import BitGraph, VertexIndexer, iter_bits
from .kernels import KERNELS, validate_kernel
from .chordal import (
    maximum_cardinality_search,
    is_perfect_elimination_order,
    perfect_elimination_order,
    is_chordal,
    maximal_cliques_chordal,
    treewidth_chordal,
    fill_in,
)
from .cliquetree import clique_tree, clique_tree_from_cliques, minimal_separators_chordal
from .lexbfs import lex_bfs, is_chordal_lexbfs, peo_via_lexbfs
from .ordering import vertex_sort_key, vertex_set_sort_key
from .lowerbounds import (
    clique_lower_bound,
    degeneracy,
    mmd_plus_lower_bound,
    treewidth_lower_bound,
)
from . import generators, io

__all__ = [
    "Graph",
    "Vertex",
    "Edge",
    "BitGraph",
    "VertexIndexer",
    "iter_bits",
    "KERNELS",
    "validate_kernel",
    "maximum_cardinality_search",
    "is_perfect_elimination_order",
    "perfect_elimination_order",
    "is_chordal",
    "maximal_cliques_chordal",
    "treewidth_chordal",
    "fill_in",
    "clique_tree",
    "clique_tree_from_cliques",
    "minimal_separators_chordal",
    "lex_bfs",
    "is_chordal_lexbfs",
    "peo_via_lexbfs",
    "vertex_sort_key",
    "vertex_set_sort_key",
    "degeneracy",
    "mmd_plus_lower_bound",
    "clique_lower_bound",
    "treewidth_lower_bound",
    "generators",
    "io",
]
