"""PIC2011-like probabilistic-graphical-model workloads.

The paper's PGM datasets come from the 2011 Probabilistic Inference
Challenge: Alchemy, CSP, DBN, Grids, Image Alignment, Object Detection,
Pedigree, Promedas, Protein-Protein, Protein Folding, Segmentation.  The
challenge archives are not redistributable here, so each family is
reproduced by a *structured generator* that matches the documented
topology of the original models.
Sizes are tuned so the family lands in the same tractability band the
paper's Figure 5 reports: e.g. Object Detection instances are small and
easy, Promedas is separator-tractable but PMC-heavy, Alchemy / Pedigree /
Protein families blow past any budget.

Every generator is deterministic given its seed, and every instance
carries a stable name for the reports.
"""

from __future__ import annotations

import random
from itertools import combinations

from ..graphs.generators import erdos_renyi, grid_graph, mycielski_graph
from ..graphs.graph import Graph

__all__ = [
    "moralize",
    "grids_instances",
    "dbn_instances",
    "segmentation_instances",
    "promedas_instances",
    "csp_instances",
    "object_detection_instances",
    "image_alignment_instances",
    "alchemy_instances",
    "pedigree_instances",
    "protein_protein_instances",
    "protein_folding_instances",
]


def moralize(parents: dict[object, list[object]]) -> Graph:
    """The moral graph of a Bayesian network given parent lists.

    Vertices are all mentioned variables; each child is connected to its
    parents and the parents of a common child are married.
    """
    g = Graph()
    for child, ps in parents.items():
        g.add_vertex(child)
        for p in ps:
            g.add_edge(child, p)
        for a, b in combinations(ps, 2):
            g.add_edge(a, b)
    return g


# ---------------------------------------------------------------------------
# Families that are (mostly) tractable at reproduction scale
# ---------------------------------------------------------------------------
def object_detection_instances(count: int = 12, seed: int = 11) -> list[tuple[str, Graph]]:
    """Small dense part-constellation models.

    The PIC2011 object-detection models are small (tens of variables) and
    dense — the paper reports 79 graphs, all trivially tractable (0.2 s
    init).  We generate near-complete graphs on 8–14 vertices with a few
    random non-edges.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(8, 14)
        g = Graph.complete(range(n))
        removable = list(combinations(range(n), 2))
        rng.shuffle(removable)
        for u, v in removable[: rng.randint(n, 2 * n)]:
            if g.degree(u) > 2 and g.degree(v) > 2:
                g.remove_edge(u, v)
        out.append((f"objdet-{i}", g))
    return out


def csp_instances(count: int = 8, seed: int = 13) -> list[tuple[str, Graph]]:
    """Constraint-graph instances.

    The PIC2011 CSP set contains DIMACS-coloring-derived models such as
    the ``myciel5g`` instance of the paper's case study (Appendix B).  We
    mix Mycielski graphs with sparse random constraint graphs.
    """
    rng = random.Random(seed)
    out: list[tuple[str, Graph]] = [
        ("csp-myciel4", mycielski_graph(4)),
        ("csp-myciel5", mycielski_graph(5)),
    ]
    for i in range(count - len(out)):
        n = rng.randint(14, 22)
        p = rng.uniform(0.15, 0.3)
        g = erdos_renyi(n, p, seed=rng.randrange(10**6))
        out.append((f"csp-rand-{i}", g))
    return out


def dbn_instances(count: int = 6, seed: int = 17) -> list[tuple[str, Graph]]:
    """Two-slice dynamic Bayesian networks, unrolled and moralized.

    Chains of slices with intra-slice links and random inter-slice parent
    sets; moralization marries co-parents, producing the band structure
    typical of the PIC2011 DBN models.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        width = rng.randint(4, 6)
        slices = rng.randint(3, 5)
        parents: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for t in range(slices):
            for j in range(width):
                ps: list[tuple[int, int]] = []
                if j > 0:
                    ps.append((t, j - 1))
                if t > 0:
                    ps.append((t - 1, j))
                    extra = rng.sample(range(width), k=min(2, width))
                    ps.extend((t - 1, e) for e in extra if e != j)
                parents[(t, j)] = ps
        out.append((f"dbn-{i}", moralize(parents)))
    return out


def segmentation_instances(count: int = 6, seed: int = 19) -> list[tuple[str, Graph]]:
    """Superpixel-adjacency MRFs: triangulated grids with random chords.

    Image segmentation models from PIC2011 are planar-ish region
    adjacency graphs; a grid with one random diagonal per cell is the
    standard synthetic stand-in.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rows = rng.randint(3, 5)
        cols = rng.randint(4, 6)
        g = grid_graph(rows, cols)
        for r in range(rows - 1):
            for c in range(cols - 1):
                if rng.random() < 0.5:
                    g.add_edge((r, c), (r + 1, c + 1))
                else:
                    g.add_edge((r + 1, c), (r, c + 1))
        out.append((f"segmentation-{i}", g))
    return out


def image_alignment_instances(count: int = 4, seed: int = 23) -> list[tuple[str, Graph]]:
    """Feature-matching MRFs: moderate, sparse-plus-cliques.

    The paper has exactly 4 image-alignment graphs, all tractable but with
    a noticeable init time — mid-size ring-of-cliques structures model
    that band.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        clusters = rng.randint(5, 7)
        size = rng.randint(3, 4)
        g = Graph()
        for c in range(clusters):
            members = [(c, k) for k in range(size)]
            for v in members:
                g.add_vertex(v)
            g.saturate(members)
        for c in range(clusters):
            nxt = (c + 1) % clusters
            for _ in range(2):
                g.add_edge((c, rng.randrange(size)), (nxt, rng.randrange(size)))
        out.append((f"imgalign-{i}", g))
    return out


# ---------------------------------------------------------------------------
# Families around the tractability frontier
# ---------------------------------------------------------------------------
def grids_instances(count: int = 6, seed: int = 29) -> list[tuple[str, Graph]]:
    """Ising-style grid MRFs.

    Grid separator counts explode with the side length, so the family
    straddles the frontier: small grids terminate, larger ones do not —
    exactly the mixed column Figure 5 shows for "Grids".
    """
    rng = random.Random(seed)
    out = []
    sides = [4, 5, 6, 7, 8, 9]
    for i in range(count):
        side = sides[i % len(sides)]
        rows = side
        cols = side + rng.randint(0, 1)
        out.append((f"grid-{rows}x{cols}-{i}", grid_graph(rows, cols)))
    return out


def promedas_instances(count: int = 4, seed: int = 31) -> list[tuple[str, Graph]]:
    """Promedas-like layered noisy-OR diagnosis networks, moralized.

    Diseases point to findings; moralization marries the diseases of each
    finding, creating many overlapping cliques — separator enumeration
    stays feasible while PMC counts grow, the "MS terminated" band where
    the paper reports RankedTriang struggling on Promedas.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        diseases = rng.randint(10, 14)
        findings = rng.randint(14, 20)
        parents: dict[str, list[str]] = {}
        for f in range(findings):
            k = rng.randint(2, 3)
            parents[f"f{f}"] = [f"d{d}" for d in rng.sample(range(diseases), k)]
        out.append((f"promedas-{i}", moralize(parents)))
    return out


# ---------------------------------------------------------------------------
# Families that are intractable at any realistic budget (as in the paper)
# ---------------------------------------------------------------------------
def alchemy_instances(count: int = 3, seed: int = 37) -> list[tuple[str, Graph]]:
    """Grounded Markov-logic networks: large and dense (never tractable)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(40, 55)
        out.append((f"alchemy-{i}", erdos_renyi(n, 0.3, seed=rng.randrange(10**6))))
    return out


def pedigree_instances(count: int = 3, seed: int = 41) -> list[tuple[str, Graph]]:
    """Moralized pedigree (genetic linkage) networks.

    Generations of individuals, two parents each drawn from the previous
    generation; moralization marries couples.  Inbreeding loops make the
    separator structure explode at realistic sizes.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        founders = rng.randint(8, 10)
        generations = 4
        parents: dict[str, list[str]] = {f"g0-{j}": [] for j in range(founders)}
        prev = [f"g0-{j}" for j in range(founders)]
        for gen in range(1, generations + 1):
            size = max(4, len(prev) + rng.randint(-1, 2))
            current = []
            for j in range(size):
                name = f"g{gen}-{j}"
                father, mother = rng.sample(prev, 2)
                parents[name] = [father, mother]
                current.append(name)
            prev = current
        out.append((f"pedigree-{i}", moralize(parents)))
    return out


def protein_protein_instances(count: int = 3, seed: int = 43) -> list[tuple[str, Graph]]:
    """Protein-protein interaction factor graphs: dense mid-size blobs."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(35, 45)
        out.append(
            (f"protprot-{i}", erdos_renyi(n, 0.35, seed=rng.randrange(10**6)))
        )
    return out


def protein_folding_instances(count: int = 3, seed: int = 47) -> list[tuple[str, Graph]]:
    """Protein-folding contact maps: chain plus dense contact edges."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(35, 45)
        g = Graph(vertices=range(n), edges=[(j, j + 1) for j in range(n - 1)])
        extra = erdos_renyi(n, 0.25, seed=rng.randrange(10**6))
        for u, v in extra.edges():
            g.add_edge(u, v)
        out.append((f"protfold-{i}", g))
    return out
