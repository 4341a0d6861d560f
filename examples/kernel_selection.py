#!/usr/bin/env python3
"""Kernel selection: the two graph kernels behind ``Session``.

Every enumeration call runs on a *graph kernel* — the data structure
the hot subroutines (neighborhoods, components, PMC checks) execute on.
There are two, named in ``repro.graphs.kernels.KERNELS``: ``bitset``
(the default), the pure-python int-mask kernel, and ``sets``, the
label-level reference.  Both produce bit-for-bit identical ranked
output; any other name is refused.

This example runs the same enumeration under ``sets`` and ``bitset``
and checks that the two ranked sequences agree.

Run:  python examples/kernel_selection.py
"""

import time

from repro.api import Session
from repro.graphs.generators import grid_graph
from repro.graphs.kernels import KERNELS


def main() -> None:
    print(f"=== Kernels: {', '.join(KERNELS)} (default {KERNELS[0]!r}) ===")

    print("\n=== Same answers under sets and bitset ===")
    graph = grid_graph(4, 4)
    sequences = {}
    for name in ("sets", "bitset"):
        session = Session(kernel=name)
        started = time.perf_counter()
        response = session.top(graph, "fill", k=5)
        elapsed = time.perf_counter() - started
        sequences[name] = [
            (r.cost, frozenset(r.triangulation.bags)) for r in response
        ]
        print(f"  {name:>8}: top-5 in {elapsed:.3f}s  "
              f"(stats.kernel={response.stats.kernel!r})")
    assert sequences["sets"] == sequences["bitset"], "kernels diverged!"
    print("  both kernels emitted the identical ranked sequence")


if __name__ == "__main__":
    main()
