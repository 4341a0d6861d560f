"""The direct token's columnar frontier: a lossless, canonical codec.

A direct token stores its frontier as five columns (values, then the
``order``, ``bags``, ``include`` and ``exclude`` integers at one fixed
width per column; see :mod:`repro.api.checkpoint`).  Hypothesis checks
that every frontier a stream could write, in pop order, decodes to
itself with each value's type kept and re-encodes to the same bytes;
the deterministic cases check that each non-canonical column is refused.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StreamCheckpoint, load_checkpoint
from repro.api.checkpoint import (
    STREAM_KIND,
    FrontierEntry,
    TokenGraph,
    TokenWriter,
    write_header,
)
from repro.graphs.generators import cycle_graph

GRAPH = TokenGraph.of(cycle_graph(5))
#: Bit lengths a mask column is drawn under: the zero column, each
#: fixed width, one limb, and two to four limbs (beyond 2^192).
MASK_BITS = (0, 1, 8, 16, 32, 64, 128, 200)


def checkpoint(frontier) -> StreamCheckpoint:
    return StreamCheckpoint(
        fingerprint="f" * 64,
        cost_spec="fill",
        width_bound=None,
        next_rank=7,
        next_order=1 + max((entry[1] for entry in frontier), default=-1),
        frontier=tuple(FrontierEntry(*entry) for entry in frontier),
        graph=GRAPH,
    )


floats = st.floats(allow_nan=False)
ints = st.integers(-(2**70), 2**70)


@st.composite
def frontiers(draw):
    """A frontier in pop order: unique orders, ascending ``(value, order)``."""
    orders = draw(st.lists(st.integers(0, 2**40), unique=True, max_size=100))
    n = len(orders)
    value = floats if draw(st.booleans()) else st.one_of(floats, ints)
    values = draw(st.lists(value, min_size=n, max_size=n))
    masks = []
    for _ in range(3):
        bits = draw(st.sampled_from(MASK_BITS))
        masks.append(
            draw(st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n))
        )
    return sorted(zip(values, orders, *masks), key=lambda entry: entry[:2])


@settings(max_examples=200)
@given(frontiers())
def test_every_frontier_round_trips_to_its_bytes(frontier):
    original = checkpoint(frontier)
    blob = original.to_bytes()
    decoded = load_checkpoint(blob)
    assert decoded == original
    assert [type(entry.value) for entry in decoded.frontier] == [
        type(entry.value) for entry in original.frontier
    ]
    assert all(type(entry) is FrontierEntry for entry in decoded.frontier)
    assert decoded.to_bytes() == blob


def token(body: TokenWriter) -> bytes:
    """A direct token of one frontier entry whose body is ``body``."""
    writer = TokenWriter()
    write_header(writer, STREAM_KIND, checkpoint([(1.5, 0, 1, 0, 0)]))
    writer.out += body.out
    return writer.finish()


def body(values=(0, (1.5,)), columns=((1, (5,)),) * 4) -> TokenWriter:
    """A one-entry body: ``values`` is ``(kind, items)``, each column
    ``(width code, raw field bytes or field tuple)``."""
    writer = TokenWriter()
    writer.uint(1)
    kind, items = values
    writer.out.append(kind)
    if kind == 0:
        writer.pack(f"<{len(items)}d", items)
    else:
        for item in items:
            writer.value(item)
    for code, fields in columns:
        writer.uint(code)
        if isinstance(fields, bytes):
            writer.out += fields
        elif code & 7:
            writer.pack(f"<{len(fields)}{'xBHIQ'[code & 7]}", fields)
    return writer


class TestNonCanonicalColumns:
    def test_the_hand_built_canonical_body_decodes(self):
        decoded = load_checkpoint(token(body()))
        assert decoded.frontier == ((1.5, 5, 5, 5, 5),)
        assert decoded.to_bytes() == token(body())
        two_limbs = (4 | 1 << 3, (5 + (1 << 64)).to_bytes(16, "little"))
        mixed = load_checkpoint(token(body((1, (3,)), [two_limbs] * 4)))
        assert mixed.frontier == ((3, 5 + (1 << 64), 5 + (1 << 64),
                                   5 + (1 << 64), 5 + (1 << 64)),)
        assert type(mixed.frontier[0].value) is int

    @pytest.mark.parametrize(
        "column",
        [
            (2, (5,)),  # 2 bytes for a maximum of 5
            (3, (300,)),  # 4 bytes for a maximum that fits 2
            (4, (1 << 20,)),  # 8 bytes for a maximum that fits 4
            (4 | 1 << 3, (5).to_bytes(16, "little")),  # a zero top limb
            (1, (0,)),  # 1 byte for an all-zero column
        ],
    )
    def test_a_wider_code_than_the_maximum_needs_is_refused(self, column):
        forged = token(body(columns=[column] + [(1, (5,))] * 3))
        with pytest.raises(ValueError, match="wider than its maximum needs"):
            load_checkpoint(forged)

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_limbs_under_a_code_narrower_than_8_bytes_are_refused(self, size):
        fields = bytes(2 * (0, 1, 2, 4)[size])
        forged = token(body(columns=[(size | 1 << 3, fields)] + [(1, (5,))] * 3))
        with pytest.raises(ValueError, match="limbs under a width below 8 bytes"):
            load_checkpoint(forged)

    def test_a_tagged_value_column_of_floats_only_is_refused(self):
        with pytest.raises(ValueError, match="holds only floats"):
            load_checkpoint(token(body(values=(1, (1.5,)))))

    @pytest.mark.parametrize(
        "values, column, message",
        [
            ((2, ()), (1, (5,)), "unknown value column kind 2"),
            ((0, (1.5,)), (5, b"\x05" * 8), "unknown frontier column width code 5"),
            ((0, (1.5,)), (7, b""), "unknown frontier column width code 7"),
        ],
    )
    def test_an_unknown_code_is_refused(self, values, column, message):
        forged = token(body(values, [column] + [(1, (5,))] * 3))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(forged)
