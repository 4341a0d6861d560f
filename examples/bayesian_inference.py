#!/usr/bin/env python3
"""Junction-tree selection for probabilistic inference with variable domains.

Junction-tree inference cost is driven by clique state spaces:
``Σ_bag Π_{v∈bag} |dom(v)|``.  On a loopy model whose variables have mixed
domain sizes, *width cannot discriminate*: every minimal triangulation of
a cycle has width 2, yet their state spaces differ by large factors
depending on which chords touch the high-resolution variables.

This example models a ring of 8 sensors (two of them high-resolution,
domain 12; the rest binary), ranks its minimal triangulations by that
total state space — a sum of a per-bag measure, hence split monotone
(the same argument as the paper's ``Σ 2^|b|``), defined below as a small
``BagCost`` — and shows that

* the ranked stream's first answer is the cheapest junction tree
  (128 states), and
* all 132 minimal triangulations of the ring have width 2 but range from
  128 to 768 states, so a width-only tie-break could pick a tree costing
  six times more.

Run:  python examples/bayesian_inference.py
"""

import math

from repro import BagCost
from repro.api import Session
from repro.graphs.generators import cycle_graph


def state_space(bags, domains) -> int:
    """Total junction-tree table size."""
    return sum(math.prod(domains[v] for v in bag) for bag in bags)


class StateSpaceCost(BagCost):
    """``Σ_bag Π_{v∈bag} |dom(v)|``: the junction tree's total table size."""

    name = "state-space"

    def __init__(self, domains):
        self._domains = domains

    def evaluate(self, graph, bags):
        return float(state_space(bags, self._domains))


def main() -> None:
    # A ring of 8 sensors; sensors 0 and 4 are high-resolution.
    graph = cycle_graph(8)
    domains = {i: (12 if i in (0, 4) else 2) for i in range(8)}
    print("model: cycle of 8 sensors, dom sizes", [domains[i] for i in range(8)])

    # One session: the initialization is built once and shared between
    # the width-ranked pass and the domain-aware ranking below.
    session = Session()

    # Width alone cannot rank: every minimal triangulation of C_8 has
    # width 2 (bags of size 3), whatever its state space.
    with session.stream(graph, "width") as stream:
        everything = list(stream)
    widths = {r.triangulation.width for r in everything}
    totals_all = [state_space(r.triangulation.bags, domains) for r in everything]
    print(
        f"{len(everything)} minimal triangulations, widths {sorted(widths)}, "
        f"state spaces {min(totals_all)}..{max(totals_all)}"
    )

    print("\nranked by total state space:")
    totals = []
    for result in session.top(graph, StateSpaceCost(domains), k=10).results:
        total = state_space(result.triangulation.bags, domains)
        totals.append(total)
        print(
            f"  #{result.rank}: total states={total:4d}  "
            f"bags={sorted(sorted(b) for b in result.triangulation.bags)}"
        )

    best = min(totals_all)
    worst = max(totals_all)
    print(
        f"\nbest junction tree: {best} total states "
        f"(first in the domain-aware ranking: {totals[0]})"
    )
    print(
        f"a width-only tie-break could cost up to {worst} states "
        f"({worst / best:.1f}x more) — all of these have width 2"
    )
    assert totals[0] == best


if __name__ == "__main__":
    main()
