"""The two graph kernels, by name.

``"bitset"`` (the default) runs minimal-separator and PMC enumeration
over the dense adjacency masks of :class:`~repro.graphs.bitgraph.BitGraph`;
``"sets"`` runs the original label-level code paths, the reference the
differential tests compare against.  Both feed the same mask compile,
so they build equal contexts and answer identically.
"""

from __future__ import annotations

__all__ = ["KERNELS", "validate_kernel"]

#: The kernel names, the default first.
KERNELS = ("bitset", "sets")


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` if it names a kernel; raise ``ValueError`` if not."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown graph kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    return kernel
