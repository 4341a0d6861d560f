"""Unit tests for the kernel registry (``repro.graphs.kernels``).

The registry is the single source of truth for kernel names across the
Session API, the context builder, the wire protocol, the gateway, and
the CLI, so its resolution rules — ``"auto"`` as an alias of
``"bitset"``, explicit-name strictness — are pinned here in isolation.
"""

import sys

import pytest

from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import cycle_graph
from repro.graphs.kernels import (
    AUTO_KERNEL,
    KernelSpec,
    available_kernels,
    register_kernel,
    registered_kernels,
    resolve_kernel,
    unregister_kernel,
    validate_kernel,
)


@pytest.fixture
def scratch_kernel():
    """Register a throwaway kernel and guarantee cleanup."""
    spec = register_kernel(
        KernelSpec(
            name="test-scratch",
            description="bitset under a different name, for tests",
            build=lambda graph, indexer=None: BitGraph.from_graph(
                graph, indexer
            ),
        )
    )
    try:
        yield spec
    finally:
        unregister_kernel("test-scratch")


class TestResolution:
    def test_builtins_resolve_by_name(self):
        assert resolve_kernel("sets").name == "sets"
        assert resolve_kernel("bitset").name == "bitset"
        assert not resolve_kernel("sets").uses_masks
        assert resolve_kernel("bitset").uses_masks

    def test_auto_is_an_alias_of_bitset(self):
        bitset = resolve_kernel("bitset")
        assert resolve_kernel(AUTO_KERNEL) is bitset
        assert resolve_kernel() is bitset  # default argument

    def test_auto_degrades_to_bitset_when_numpy_disabled(self, monkeypatch):
        # With numpy unimportable, "auto" still names a working kernel.
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert resolve_kernel(AUTO_KERNEL) is resolve_kernel("bitset")
        assert "numpy" not in available_kernels()
        built = resolve_kernel(AUTO_KERNEL).build_graph(cycle_graph(5))
        assert built.to_graph() == cycle_graph(5)

    def test_explicit_numpy_rejected_when_disabled(self, monkeypatch):
        # An explicit name for a kernel that is not registered is an
        # error, never a silent substitute: the deleted numpy kernel is
        # refused like any unknown name, also when numpy cannot import.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="unknown graph kernel 'numpy'"):
            resolve_kernel("numpy")
        with pytest.raises(ValueError, match="unknown graph kernel 'numpy'"):
            validate_kernel("numpy")

    def test_unknown_name_lists_known_kernels(self):
        with pytest.raises(ValueError, match="auto.*sets"):
            resolve_kernel("quantum")

    def test_registered_spec_instance_accepted(self):
        spec = resolve_kernel("bitset")
        assert resolve_kernel(spec) is spec

    def test_unregistered_spec_instance_rejected(self):
        rogue = KernelSpec(name="bitset", description="impostor")
        with pytest.raises(ValueError, match="not the registered spec"):
            resolve_kernel(rogue)

    def test_validate_kernel_returns_concrete_name(self):
        assert validate_kernel(AUTO_KERNEL) == "bitset"


class TestRegistry:
    def test_builtins_come_first_in_registration_order(self):
        assert available_kernels()[:2] == ("sets", "bitset")
        assert registered_kernels()[:2] == (
            resolve_kernel("sets"), resolve_kernel("bitset"),
        )

    def test_register_then_resolve_then_unregister(self, scratch_kernel):
        assert "test-scratch" in available_kernels()
        assert resolve_kernel("test-scratch") is scratch_kernel
        assert validate_kernel("test-scratch") == "test-scratch"
        # Registering a kernel never changes what "auto" names.
        assert validate_kernel(AUTO_KERNEL) == "bitset"

    def test_duplicate_name_needs_replace(self, scratch_kernel):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(KernelSpec(name="test-scratch"))
        replaced = register_kernel(
            KernelSpec(name="test-scratch", build=scratch_kernel.build),
            replace=True,
        )
        assert resolve_kernel("test-scratch") is replaced

    def test_auto_is_not_a_registrable_name(self):
        with pytest.raises(ValueError, match="alias"):
            register_kernel(KernelSpec(name=AUTO_KERNEL))

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ValueError):
            unregister_kernel("sets")
        with pytest.raises(ValueError):
            unregister_kernel("bitset")


class TestSpec:
    def test_label_level_spec_has_no_builder(self):
        with pytest.raises(ValueError, match="label-level"):
            resolve_kernel("sets").build_graph(cycle_graph(4))

    def test_mask_spec_builds_equivalent_graph(self):
        g = cycle_graph(5)
        built = resolve_kernel("bitset").build_graph(g)
        assert built.to_graph() == g

    def test_spec_has_name_description_and_builder_only(self):
        from dataclasses import fields

        assert [f.name for f in fields(KernelSpec)] == [
            "name", "description", "build",
        ]


class TestSessionIntegration:
    def test_session_exposes_resolved_spec(self):
        from repro.api import Session

        session = Session(kernel="bitset")
        assert isinstance(session.kernel, KernelSpec)
        assert session.kernel.name == "bitset"
        assert session.kernel_name == "bitset"

    def test_session_auto_resolves_before_anything_runs(self):
        from repro.api import Session

        assert Session(kernel="auto").kernel_name == "bitset"
        assert Session().kernel_name == "bitset"

    def test_session_stats_carry_concrete_kernel(self):
        from repro.api import Session

        g = cycle_graph(5)
        response = Session(kernel="bitset").top(g, "fill", k=2)
        assert response.stats.kernel == "bitset"

    def test_session_accepts_registered_spec_object(self, scratch_kernel):
        from repro.api import Session

        session = Session(kernel=scratch_kernel)
        g = cycle_graph(5)
        response = session.top(g, "fill", k=2)
        assert response.stats.kernel == "test-scratch"
        assert len(response) == 2
