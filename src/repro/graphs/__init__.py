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
from .ordering import vertex_sort_key, vertex_set_sort_key
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
    "vertex_sort_key",
    "vertex_set_sort_key",
    "generators",
    "io",
]
