#!/usr/bin/env python3
"""Kernel selection: the graph-kernel registry behind ``Session``.

Every enumeration call runs on a *graph kernel* — the data structure
the hot subroutines (neighborhoods, components, PMC checks) execute on.
Kernels live in a registry (`repro.graphs.kernels`).  Two are built in:
``bitset``, the pure-python int-mask kernel, and ``sets``, the
label-level oracle.  The default ``kernel="auto"`` is an alias of
``bitset``, and all kernels produce bit-for-bit identical ranked output.

This example

1. lists the registered kernels and what ``"auto"`` names,
2. runs the same enumeration under ``sets`` and ``bitset``,
3. registers a custom kernel and uses it by name, end to end.

Run:  python examples/kernel_selection.py
"""

import time

from repro.api import Session
from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import grid_graph
from repro.graphs.kernels import (
    KernelSpec,
    available_kernels,
    register_kernel,
    registered_kernels,
    resolve_kernel,
    unregister_kernel,
)


def main() -> None:
    print("=== The registry ===")
    for spec in registered_kernels():
        level = "mask-level" if spec.uses_masks else "label-level"
        print(f"  {spec.name:>8}  [{level}]  {spec.description}")
    print(f"  'auto' names: {resolve_kernel('auto').name!r}")

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

    print("\n=== Registering a custom kernel ===")
    # A real custom kernel would bring its own BitGraph subclass with
    # faster primitives; re-badging BitGraph is enough to show the
    # plumbing: once registered, the name works everywhere kernel names
    # do (Session, the service wire protocol, the CLI --kernel choices).
    register_kernel(
        KernelSpec(
            name="mine",
            description="custom kernel demo (BitGraph re-badged)",
            build=BitGraph.from_graph,
        )
    )
    try:
        print(f"  available_kernels() -> {available_kernels()}")
        response = Session(kernel="mine").top(graph, "fill", k=5)
        print(f"  Session(kernel='mine').top(...) served {len(response)} "
              f"answers, stats.kernel={response.stats.kernel!r}")
        mine = [(r.cost, frozenset(r.triangulation.bags)) for r in response]
        assert mine == sequences["bitset"], "custom kernel diverged!"
    finally:
        unregister_kernel("mine")


if __name__ == "__main__":
    main()
