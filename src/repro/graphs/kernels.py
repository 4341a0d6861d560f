"""Kernel registry: name → spec → builder.

Kernel selection used to be a hardcoded ``KERNELS = ("bitset", "sets")``
tuple string-threaded through every layer of the stack.  This module
replaces the tuple with a registry of :class:`KernelSpec` entries so a
caller's own kernel plugs in at exactly one point and is immediately
visible to the ``Session`` API, the context builder, the service wire
protocol, the gateway, the CLI ``--kernel`` choices, and the
differential test harness.

Concepts:

* A **kernel name** is a short string.  Two kernels are built in:
  ``"bitset"`` (the mask-level kernel of :mod:`repro.graphs.bitgraph`)
  and ``"sets"`` (the label-level oracle).  ``"auto"`` is not a kernel
  but an alias of ``"bitset"``, resolved by :func:`resolve_kernel` so
  that everything downstream of resolution — cache keys most of all —
  only ever sees concrete names.
* A :class:`KernelSpec` carries a name, a description and a builder
  (label graph → mask-level graph).  Mask-level specs build
  :class:`~repro.graphs.bitgraph.BitGraph` instances (or subclasses);
  the ``"sets"`` oracle has no builder and runs the original
  label-level code paths.

The old entry points stay importable: :func:`validate_kernel` is a
registry lookup that also resolves ``"auto"``, and
``repro.graphs.bitgraph.KERNELS`` remains as a deprecated alias of the
built-in names.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .bitgraph import BitGraph, VertexIndexer
from .graph import Graph

__all__ = [
    "AUTO_KERNEL",
    "KernelSpec",
    "available_kernels",
    "register_kernel",
    "registered_kernels",
    "resolve_kernel",
    "unregister_kernel",
    "validate_kernel",
]

#: The alias accepted everywhere a kernel name is; it names ``"bitset"``.
AUTO_KERNEL = "auto"


@dataclass(frozen=True)
class KernelSpec:
    """One registered graph kernel.

    Parameters
    ----------
    name:
        Registry key; what ``Session(kernel=...)``, the wire protocol,
        and cache keys carry.
    description:
        One line for ``--help`` output and the service ``stats`` op.
    build:
        ``(graph, indexer=None) -> BitGraph`` for mask-level kernels;
        ``None`` for the label-level ``"sets"`` oracle.
    """

    name: str
    description: str = ""
    build: Callable[..., BitGraph] | None = None

    @property
    def uses_masks(self) -> bool:
        """Whether this kernel runs the mask-level (bitset) hot paths."""
        return self.build is not None

    def build_graph(
        self, graph: Graph, indexer: VertexIndexer | None = None
    ) -> BitGraph:
        """Encode ``graph`` for this kernel (mask-level kernels only)."""
        if self.build is None:
            raise ValueError(
                f"kernel {self.name!r} is label-level and has no builder"
            )
        return self.build(graph, indexer)


_REGISTRY: dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec, *, replace: bool = False) -> KernelSpec:
    """Add ``spec`` to the registry and return it.

    Registration is immediately visible everywhere kernel names are
    consumed (``available_kernels`` drives the wire protocol, gateway,
    and CLI).  Re-registering a taken name requires ``replace=True``.
    """
    if spec.name == AUTO_KERNEL:
        raise ValueError(f"{AUTO_KERNEL!r} is an alias of 'bitset', not a kernel name")
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"kernel {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_kernel(name: str) -> None:
    """Remove a registered kernel (primarily for tests)."""
    if name in ("sets", "bitset"):
        raise ValueError(f"the built-in kernel {name!r} cannot be unregistered")
    _REGISTRY.pop(name, None)


def registered_kernels() -> tuple[KernelSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def available_kernels() -> tuple[str, ...]:
    """Names of the registered kernels, in registration order.

    This is the single source of truth for what a kernel name may be:
    the wire protocol (both doors), and the CLI ``--kernel``
    choices all validate against it (plus the ``"auto"`` alias).
    """
    return tuple(_REGISTRY)


def resolve_kernel(kernel: str | KernelSpec = AUTO_KERNEL) -> KernelSpec:
    """Resolve a kernel name, spec, or the ``"auto"`` alias to a spec.

    ``"auto"`` is ``"bitset"``.  Naming an unknown kernel raises
    ``ValueError`` listing the registered names.
    """
    if isinstance(kernel, KernelSpec):
        registered = _REGISTRY.get(kernel.name)
        if registered is not kernel:
            raise ValueError(
                f"kernel spec {kernel.name!r} is not the registered spec; "
                "register it with register_kernel() first"
            )
        return kernel
    spec = _REGISTRY.get("bitset" if kernel == AUTO_KERNEL else kernel)
    if spec is None:
        raise ValueError(
            f"unknown graph kernel {kernel!r}; expected one of "
            f"{(AUTO_KERNEL, *_REGISTRY)}"
        )
    return spec


def validate_kernel(kernel: str | KernelSpec) -> str:
    """Resolve ``kernel`` and return the concrete kernel *name*.

    The historical entry point, now a registry lookup.  Note that
    ``validate_kernel("auto")`` returns ``"bitset"`` — callers that
    persist or key on the result (cache keys, wire frames) therefore
    never see ``"auto"``.
    """
    return resolve_kernel(kernel).name


# ----------------------------------------------------------------------
# Built-in kernels
# ----------------------------------------------------------------------
register_kernel(
    KernelSpec(
        name="sets",
        description="label-level frozenset oracle (slow, obviously correct)",
    )
)

register_kernel(
    KernelSpec(
        name="bitset",
        description="pure-python int-mask kernel (word-parallel, no deps)",
        build=BitGraph.from_graph,
    )
)
