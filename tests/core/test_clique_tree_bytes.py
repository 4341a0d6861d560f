"""Pinned bytes of the clique-tree outputs the serving surfaces emit.

Decompositions mode yields each triangulation's clique trees in the
order :func:`~repro.core.spanning.clique_trees` enumerates them, and
``repro decompose`` writes the tree :meth:`TreeDecomposition.from_bags
<repro.core.decomposition.TreeDecomposition.from_bags>` builds, joined
across components through the first bag of each in input order.  These
SHA-256 digests pin both: the wire frames of a decompositions page and
the ``.td`` text of a connected bag set and of a disconnected one with a
repeated bag.  A change to the Kruskal tie order, the acceptance order
the Lawler partitioning splits on, or the join rule moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Session
from repro.core.decomposition import TreeDecomposition
from repro.graphs.generators import connected_erdos_renyi, grid_graph, petersen_graph
from repro.graphs.td_io import to_td
from repro.service.protocol import serialize_answers


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "graph, per_triangulation, expected",
    [
        pytest.param(
            petersen_graph(), None,
            "8e281b97e430050c37cd84eb168b79ae47fd96db11b9c57b9334c7d575bb75b7",
            id="petersen",
        ),
        pytest.param(
            grid_graph(3, 4), None,
            "f41353151bfc2c7b9e2584dde10c5de4e1e9b0dbaab69ea382e69dc4b16a0842",
            id="grid-3x4",
        ),
        pytest.param(
            grid_graph(3, 4), 1,
            "f41353151bfc2c7b9e2584dde10c5de4e1e9b0dbaab69ea382e69dc4b16a0842",
            id="grid-3x4-one-per-triangulation",
        ),
        pytest.param(
            connected_erdos_renyi(10, 0.35, seed=0), None,
            "faa094134b0d83e17d1c6085779534a2da58edd0978a54b1eda0ff3b37abd2ea",
            id="erdos-renyi-10",
        ),
        # One triangulation with more than 20 clique trees: pins the
        # order the Lawler partitioning splits on.
        pytest.param(
            connected_erdos_renyi(12, 0.3, seed=3), None,
            "f21001227a5f1e4977facc1eaa7e916f2bfcf93bac4b751258c29bb78bd93ba7",
            id="erdos-renyi-12-many-trees",
        ),
    ],
)
def test_decompositions_page_frames(graph, per_triangulation, expected):
    page = Session(preprocess=False).decompositions(
        graph, "width", k=20, per_triangulation=per_triangulation
    )
    assert len(page.results) == 20
    assert _digest(b"".join(serialize_answers(page.results))) == expected


#: Maximal cliques of a connected chordal graph, in a fixed shuffled
#: order, with ties in intersection weight.
CONNECTED_BAGS = [
    {3, 4, 10}, {1, 2, 3}, {7, 8, 9}, {2, 3, 6}, {3, 4, 5}, {3, 7}, {2, 3, 4},
]

#: Three components (one a single bag) and a bag given twice.
DISCONNECTED_BAGS = [
    {12, 13}, {1, 2, 3}, {20}, {11, 12}, {3, 5}, {2, 3, 4}, {11, 12}, {21, 22},
    {22, 23},
]


@pytest.mark.parametrize(
    "bags, expected",
    [
        pytest.param(
            CONNECTED_BAGS,
            "de8fd3eb94ee243c254e84490e7ef01753c5def02e05a9edafc27b0d2af84e82",
            id="connected",
        ),
        pytest.param(
            DISCONNECTED_BAGS,
            "dce7b13b35a4bea770c24887fc02c2b55b98813ea53e556e521e68acc3515bd2",
            id="disconnected-repeated-bag",
        ),
    ],
)
def test_from_bags_td_text(bags, expected):
    td = TreeDecomposition.from_bags(bags)
    assert len(td) == len(bags)
    assert _digest(to_td(td).encode()) == expected
