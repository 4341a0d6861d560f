#!/usr/bin/env python3
"""Writing a custom split-monotone bag cost.

The enumeration guarantees of the paper hold for *any* polynomial-time
split-monotone bag cost (Definition 3.2).  This example implements two
custom costs and runs the ranked enumerator with them:

* ``HeightProxyCost`` — Mediero's AND/OR-tree motivation: prefer
  decompositions whose bag sizes decay, approximated by the split-monotone
  proxy ``Σ_b |b|^3`` (small total volume ⇒ shallow balanced join trees).
* ``ConstraintHardCost`` — a width cost with a hard business rule compiled
  in: two named vertices must never share a bag (e.g. the corresponding
  relations cannot be co-partitioned).  Costs may return ``inf`` to forbid
  decompositions, exactly like the paper's κ[I,X] compilation.

Custom costs take the block DP's generic path: every candidate's bag list
is assembled and handed to ``evaluate``.  The built-in costs instead
declare a fold (``BagCost.fold``, contract in ``repro.costs.base``) and are
valued from per-PMC numbers without bags, which makes their ranked
enumeration several times faster; a custom cost may declare one too, as
long as it returns exactly the float its ``evaluate`` would.

Run:  python examples/custom_cost_functions.py
"""

import math

from repro import BagCost
from repro.api import Session
from repro.graphs.generators import grid_graph


class HeightProxyCost(BagCost):
    """Σ_b |b|^3 — a sum of a per-bag monotone measure, hence split
    monotone (same argument as the paper's Σ 2^|b| example)."""

    name = "height-proxy"

    def evaluate(self, graph, bags):
        return float(sum(len(b) ** 3 for b in bags))


class ConstraintHardCost(BagCost):
    """Width, but ∞ for any decomposition co-locating two forbidden
    vertices.  The indicator is monotone under adding bags on one side of
    a split, so split monotonicity is preserved."""

    name = "width-with-separation-rule"

    def __init__(self, u, v):
        self._u = u
        self._v = v

    def evaluate(self, graph, bags):
        width = -1.0
        for bag in bags:
            if self._u in bag and self._v in bag:
                return math.inf
            width = max(width, float(len(bag) - 1))
        return width


def main() -> None:
    graph = grid_graph(3, 3)
    # Both rankings share one cached initialization through the session;
    # custom BagCost objects plug straight into the typed surface.
    session = Session()

    print("=== ranked by height proxy (sum of cubed bag sizes) ===")
    for result in session.top(graph, HeightProxyCost(), k=5).results:
        sizes = sorted((len(b) for b in result.triangulation.bags), reverse=True)
        print(f"  #{result.rank}: cost={result.cost:.0f}  bag sizes={sizes}")

    corner_a, corner_b = (0, 0), (2, 2)
    print(f"\n=== width, forbidding {corner_a} and {corner_b} in one bag ===")
    cost = ConstraintHardCost(corner_a, corner_b)
    for result in session.top(graph, cost, k=5).results:
        together = any(
            corner_a in bag and corner_b in bag for bag in result.triangulation.bags
        )
        print(
            f"  #{result.rank}: width={result.triangulation.width}  "
            f"corners co-located={together}"
        )
        assert not together


if __name__ == "__main__":
    main()
