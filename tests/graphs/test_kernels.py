"""Unit tests for the kernel names (``repro.graphs.kernels``).

Two kernels exist, ``"bitset"`` (the default) and ``"sets"`` (the
label-level reference).  The Session API, the context builder, the wire
protocol and the CLI all accept exactly these two names and refuse
anything else with one message that lists both.
"""

import sys

import pytest

from repro.api import Session
from repro.graphs import kernels
from repro.graphs.generators import cycle_graph
from repro.graphs.kernels import KERNELS, validate_kernel

REFUSED = ["auto", "numpy", "quantum", "", "BITSET"]


class TestNames:
    def test_two_kernels_default_first(self):
        assert KERNELS == ("bitset", "sets")
        assert kernels.__all__ == ["KERNELS", "validate_kernel"]


class TestResolution:
    def test_validate_kernel_returns_concrete_name(self):
        for name in KERNELS:
            assert validate_kernel(name) == name

    def test_unknown_name_lists_known_kernels(self):
        with pytest.raises(ValueError) as excinfo:
            validate_kernel("quantum")
        assert str(excinfo.value) == (
            "unknown graph kernel 'quantum'; expected one of bitset, sets"
        )

    def test_explicit_numpy_rejected_when_disabled(self, monkeypatch):
        # The deleted numpy kernel is refused like any unknown name, also
        # when numpy cannot import.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="unknown graph kernel 'numpy'"):
            validate_kernel("numpy")

    @pytest.mark.parametrize("name", REFUSED)
    def test_refuses_every_other_name(self, name):
        with pytest.raises(
            ValueError,
            match=f"unknown graph kernel '{name}'; expected one of bitset, sets",
        ):
            validate_kernel(name)


class TestSessionIntegration:
    @pytest.mark.parametrize("name", REFUSED)
    def test_session_refuses_every_other_name(self, name):
        with pytest.raises(
            ValueError,
            match=f"unknown graph kernel '{name}'; expected one of bitset, sets",
        ):
            Session(kernel=name)

    def test_session_stats_carry_concrete_kernel(self):
        session = Session()
        assert session.kernel_name == "bitset"
        response = session.top(cycle_graph(5), "fill", k=2)
        assert response.stats.kernel == "bitset"
        assert Session(kernel="sets").top(
            cycle_graph(5), "fill", k=2
        ).stats.kernel == "sets"
