"""The paper's core algorithms: MinTriang, MinTriangB, RankedTriang."""

from .context import TriangulationContext
from .mintriang import Triangulation, min_triangulation, min_triangulation_with_context
from .ranked import RankedResult
from .decomposition import TreeDecomposition
from .spanning import clique_trees, count_clique_trees, maximum_spanning_trees
from .proper import RankedDecomposition
from .exact import (
    minimum_fill_in,
    treewidth,
    weighted_minimum_fill_in,
    weighted_treewidth,
)
from .diversity import triangulation_distance

__all__ = [
    "TriangulationContext",
    "Triangulation",
    "min_triangulation",
    "min_triangulation_with_context",
    "RankedResult",
    "TreeDecomposition",
    "clique_trees",
    "count_clique_trees",
    "maximum_spanning_trees",
    "RankedDecomposition",
    "treewidth",
    "minimum_fill_in",
    "weighted_treewidth",
    "weighted_minimum_fill_in",
    "triangulation_distance",
]
