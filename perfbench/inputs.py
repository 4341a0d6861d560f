"""Seeded inputs of the three workloads.

Everything here is a pure function of ``(seed, size)``: the program under
test receives only the graphs built here.  Graph families come from
``repro.graphs.generators`` and ``repro.workloads``.  In every workload
the seed orders the requests and nothing else: each graph is a fixed
structure relabelled by a permutation drawn from its own name, so a run
does the same work whatever its seed.  Which pages of a ranked stream are
slow depends on the tie-breaking, that is on the labels; a relabelling
per seed moved ranked-deep's 90th percentiles by a fifth between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.chordal import treewidth_chordal
from repro.graphs.generators import (
    connected_erdos_renyi,
    cycle_graph,
    grid_graph,
    mycielski_graph,
    petersen_graph,
    queen_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.elimination import triangulate_min_degree
from repro.workloads.pace import control_flow_graph
from repro.workloads.pgm import (
    dbn_instances,
    object_detection_instances,
    segmentation_instances,
)

COSTS = ("width", "fill")


def relabeled(graph: Graph, rng: random.Random) -> Graph:
    """``graph`` on vertices ``0..n-1`` under a seeded permutation."""
    vertices = sorted(graph.vertices, key=repr)
    perm = list(range(len(vertices)))
    rng.shuffle(perm)
    name = dict(zip(vertices, perm))
    edges = sorted(
        tuple(sorted((name[u], name[v]))) for u, v in graph.edges()
    )
    return Graph(vertices=range(len(vertices)), edges=edges)


# ----------------------------------------------------------------------
# ranked-deep
# ----------------------------------------------------------------------
#: Non-decomposable graphs of 10-16 vertices, each with more minimal
#: triangulations than one chain asks for.
RANKED_FAMILIES = (
    ("petersen", petersen_graph),
    ("myciel4", lambda: mycielski_graph(4)),
    ("queen3x5", lambda: queen_graph(3, 5)),
    ("queen4x4", lambda: queen_graph(4, 4)),
    ("grid3x4", lambda: grid_graph(3, 4)),
    ("cycle10", lambda: cycle_graph(10)),
    # Two ``connected_erdos_renyi(n, 0.3, seed)`` samples that do not
    # decompose and sit mid-range in cost (25 and 28 minimal separators).
    ("gnp12", lambda: connected_erdos_renyi(12, 0.3, seed=64)),
    ("gnp13", lambda: connected_erdos_renyi(13, 0.3, seed=87)),
)


def ranked_deep_graphs(tiny: bool) -> list[tuple[str, Graph]]:
    """At most eight graphs, so the default 8-context LRU never rebuilds."""
    families = RANKED_FAMILIES[:2] if tiny else RANKED_FAMILIES
    return [
        (name, relabeled(make(), random.Random(f"ranked-deep:{name}")))
        for name, make in families
    ]


# ----------------------------------------------------------------------
# cold-first
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColdRequest:
    name: str
    graph: Graph
    cost: str
    width_bound: int | None


def _bounded(make, limit: int, seed: int) -> Graph:
    """The first graph ``make(s)``, ``s = seed, seed + 1, ...``, with at
    most ``limit`` vertices."""
    while True:
        graph = make(seed)
        if graph.num_vertices() <= limit:
            return graph
        seed += 1


def _cold_pools() -> dict[str, list[Graph]]:
    """Fixed structures per kind."""
    return {
        "objdet": [g for _name, g in object_detection_instances(8, seed=11)],
        "petersen": [petersen_graph()],
        "myciel4": [mycielski_graph(4)],
        "queen4x4": [queen_graph(4, 4)],
        "gnp": [connected_erdos_renyi(n, 0.3, seed=s) for n, s in ((11, 5), (12, 8), (12, 21), (13, 3))],
        "dbn": [_bounded(lambda s: dbn_instances(1, seed=s)[0][1], 16, s) for s in (1, 2, 3)],
        "sparse": [
            _bounded(lambda s: segmentation_instances(1, seed=s)[0][1], 12, 1),
            _bounded(lambda s: control_flow_graph(12, seed=s), 13, 1),
            _bounded(lambda s: segmentation_instances(1, seed=s)[0][1], 12, 7),
            _bounded(lambda s: control_flow_graph(12, seed=s), 13, 4),
        ],
    }


#: One block of the cold stream, dense-leaning: object-detection and
#: PACE-style coloring graphs carry most of it; gnp and DBN graphs often
#: decompose (the atom path); small segmentation and control-flow graphs
#: are the sparse minority.  ``True`` marks slots that carry a width
#: bound; a slot's cost alternates between blocks unless it names one.
#: Queen 4x4 under ``fill``, the heaviest class (60-110 ms to the first
#: answer, against 35-75 ms under ``width``), fills two slots, so the 90th
#: percentiles fall in the middle of one class rather than on a boundary
#: between two.
COLD_BLOCK = (
    ("objdet", False, None),
    ("objdet", True, None),
    ("objdet", False, None),
    ("petersen", False, None),
    ("myciel4", True, None),
    ("queen4x4", False, "fill"),
    ("queen4x4", False, "fill"),
    ("gnp", False, None),
    ("dbn", False, None),
    ("sparse", False, None),
)


def cold_first_requests(seed: int, count: int) -> list[ColdRequest]:
    """``count`` graphs no session has seen, in blocks of ``COLD_BLOCK``.

    The ``i``-th of them is slot ``i % len(COLD_BLOCK)`` of a block: it
    takes its structure round-robin from its kind's pool, its cost is
    the slot's, and its relabelling is drawn from ``i``, so every
    seed asks for the same graphs.  The seed orders the blocks; each
    keeps its slot order, so the contexts the session's LRU holds at once,
    and with them its peak memory, do not depend on the seed.  A width
    bound is the width of the min-degree triangulation, an upper bound on
    treewidth, so it is always feasible.
    """
    pools = _cold_pools()
    out = []
    for i in range(count):
        block, slot = divmod(i, len(COLD_BLOCK))
        kind, bounded, cost = COLD_BLOCK[slot]
        pool = pools[kind]
        structure = pool[(block + slot) % len(pool)]
        out.append(
            ColdRequest(
                name=f"{kind}-{i}",
                graph=relabeled(structure, random.Random(f"cold-first:{i}")),
                cost=cost or COSTS[(block + slot) % 2],
                width_bound=(
                    treewidth_chordal(triangulate_min_degree(structure)) if bounded else None
                ),
            )
        )
    blocks = [out[i:i + len(COLD_BLOCK)] for i in range(0, len(out), len(COLD_BLOCK))]
    random.Random(f"cold-first:{seed}").shuffle(blocks)
    return [req for block in blocks for req in block]


def warmup_graphs() -> list[Graph]:
    """Set-up graphs of the cold workload: from no family the stream uses."""
    return [grid_graph(3, 3), cycle_graph(8)]


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeRequest:
    """One planned request; a ``resume`` takes its token from the
    previous page of its chain when it is sent."""

    rid: str
    kind: str  # one of SERVE_KINDS
    graph: Graph | None
    cost: str
    chain: str | None = None
    page: int = 0


SERVE_KINDS = ("replay", "head", "resume", "fresh", "decompositions")
SERVE_K = 5
HOT_GRAPHS = 4
CHAIN_PAGES = 12
#: One block of each connection's mix, shuffled per block: 80% replays,
#: 20% live.  Replays (a few ms) must hold the median and live requests
#: (tens of ms) the 90th percentile, or a pooled percentile jumps between
#: the two classes from run to run; with these shares the median falls at
#: the replays' 62nd percentile and the 90th at the live requests' median.
SERVE_BLOCK = ("replay",) * 20 + ("resume",) * 3 + ("fresh", "decompositions")
#: Continuation pages are most of the live class, so its median, the
#: pooled 90th percentile, falls among them; queen 3x5's pages take a
#: narrow 15-30 ms, so that percentile sits where samples are dense.
CHAIN_FAMILIES = (("queen3x5", lambda: queen_graph(3, 5)),)
#: ``connected_erdos_renyi(n, 0.3, seed)`` structures for hot and fresh
#: graphs; each use relabels one, so it is new to the server.
SERVE_GNP = ((11, 5), (12, 8), (12, 21), (13, 3), (11, 17), (12, 30), (13, 12), (12, 44))


def _named(structure: Graph, name: str) -> Graph:
    """``structure`` relabelled by a permutation drawn from ``name``."""
    return relabeled(structure, random.Random(f"serve-mixed:{name}"))


def serve_mixed_plan(
    seed: int, connections: int, per_connection: int
) -> tuple[list[tuple[str, Graph, str]], list[list[ServeRequest]]]:
    """The hot set and each connection's request sequence.

    Connections own disjoint graphs.  The hot set is filled during
    set-up, so its repeats replay from the answer-prefix cache; chains
    continue with the previous page's resume token; fresh graphs run cold
    in a worker seat; decompositions never touch the answer cache.

    The seed orders the requests; the graphs do not depend on it.  Each
    is a structure relabelled by a permutation drawn from its own name,
    so it is new to the server, and the live requests do the same work in
    every run.
    """
    order = random.Random(f"serve-mixed:{seed}")
    gnp = [connected_erdos_renyi(n, 0.3, seed=s) for n, s in SERVE_GNP]
    hot: list[tuple[str, Graph, str]] = []
    plans: list[list[ServeRequest]] = []
    for c in range(connections):
        mine = []
        for h in range(HOT_GRAPHS):
            name = f"c{c}-hot{h}"
            mine.append((name, _named(gnp[(c * HOT_GRAPHS + h) % len(gnp)], name), COSTS[h % 2]))
        hot.extend(mine)
        kinds: list[str] = []
        while len(kinds) < per_connection:
            block = list(SERVE_BLOCK)
            order.shuffle(block)
            kinds.extend(block)
        plan: list[ServeRequest] = []
        chain, page = None, CHAIN_PAGES
        counts = dict.fromkeys(SERVE_KINDS, 0)
        for i, kind in enumerate(kinds[:per_connection]):
            rid = f"c{c}-r{i}"
            if kind == "resume" and page >= CHAIN_PAGES:
                kind = "head"
            n = counts[kind]
            counts[kind] += 1
            if kind in ("replay", "decompositions"):
                name, graph, cost = mine[n % HOT_GRAPHS]
                if kind == "decompositions":
                    cost = "width"
                plan.append(ServeRequest(rid, kind, graph, cost, chain=name))
            elif kind == "fresh":
                graph = _named(gnp[n % len(gnp)], f"c{c}-fresh{n}")
                plan.append(ServeRequest(rid, "fresh", graph, COSTS[n % 2]))
            elif kind == "head":
                family, make = CHAIN_FAMILIES[n % len(CHAIN_FAMILIES)]
                name = f"c{c}-chain{n}-{family}"
                chain = ServeRequest(rid, "head", _named(make(), name), COSTS[n % 2], chain=name)
                plan.append(chain)
                page = 1
            else:
                plan.append(
                    ServeRequest(rid, "resume", chain.graph, chain.cost, chain=chain.chain, page=page)
                )
                page += 1
        plans.append(plan)
    return hot, plans
