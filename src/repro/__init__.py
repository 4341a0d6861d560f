"""repro — Ranked Enumeration of Minimal Triangulations (PODS 2019).

A from-scratch reproduction of Ravid, Medini and Kimelfeld's system for
enumerating the minimal triangulations (equivalently, the proper tree
decompositions) of a graph by increasing cost, for any split-monotone bag
cost function, with polynomial delay under the poly-MS assumption or a
constant width bound.

Quick start (the session layer is the public entry point)::

    from repro import Graph
    from repro.api import Session

    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    session = Session()
    for result in session.stream(g, "width"):
        print(result.cost, sorted(map(sorted, result.triangulation.bags)))
    page = session.top(g, "fill", k=3)        # typed response + checkpoint
    more = session.resume(page.checkpoint)    # continues the exact sequence

The README describes the system layer by layer, and
``python -m repro experiments all`` reruns the reproduced evaluation.
"""

from .graphs import Graph
from .costs import (
    BagCost,
    ConstrainedCost,
    FillInCost,
    FractionalHypertreeWidthCost,
    Hypergraph,
    HypertreeWidthCost,
    LexWidthFillCost,
    SumExpBagCost,
    WeightedFillCost,
    WeightedWidthCost,
    WidthCost,
    make_cost,
    resolve_cost,
)
from .core import (
    RankedDecomposition,
    RankedResult,
    Triangulation,
    TreeDecomposition,
    TriangulationContext,
    clique_trees,
    min_triangulation,
    minimum_fill_in,
    treewidth,
    triangulation_distance,
)
from .api import (
    EnumerationRequest,
    EnumerationResponse,
    EnumerationStats,
    RankedStream,
    Session,
    StreamCheckpoint,
    graph_fingerprint,
)
from .baselines import ckk_enumeration
from .separators import minimal_separators, SeparatorLimitExceeded
from .pmc import potential_maximal_cliques
from .triangulation import lb_triang, mcs_m

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "BagCost",
    "WidthCost",
    "FillInCost",
    "LexWidthFillCost",
    "SumExpBagCost",
    "WeightedWidthCost",
    "WeightedFillCost",
    "Hypergraph",
    "HypertreeWidthCost",
    "FractionalHypertreeWidthCost",
    "ConstrainedCost",
    "make_cost",
    "resolve_cost",
    "Session",
    "EnumerationRequest",
    "EnumerationResponse",
    "EnumerationStats",
    "RankedStream",
    "StreamCheckpoint",
    "graph_fingerprint",
    "TriangulationContext",
    "Triangulation",
    "TreeDecomposition",
    "RankedResult",
    "RankedDecomposition",
    "min_triangulation",
    "clique_trees",
    "treewidth",
    "minimum_fill_in",
    "triangulation_distance",
    "ckk_enumeration",
    "minimal_separators",
    "SeparatorLimitExceeded",
    "potential_maximal_cliques",
    "lb_triang",
    "mcs_m",
    "__version__",
]
