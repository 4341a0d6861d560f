"""The canonical wire line of an enumerated answer: the byte-identity anchor.

Frames are canonically encoded — ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` plus ``"\\n"`` — so a frame's byte string is a
pure function of its content.  An ``answer`` frame carries no timing
fields and lists its bags in the canonical vertex order, so an answer's
line is a pure function of its cost, bags and rank (and clique tree, for
a decomposition): the bytes a client receives for a request are
bit-identical to :func:`answer_line` over the results of a serial
``Session.stream`` run.

This module is the one home of that line.  The service encodes each
answer once, where a slice takes it; the same bytes cross the worker
pipe, reach the door and are what the answers tier stores beside the
answer (:mod:`repro.cache.answers`), so a replay writes stored bytes as
they are.  :mod:`repro.service.protocol` re-exports everything here.

Vertex labels travel as JSON values with one extension: tuple labels
(e.g. grid coordinates) are encoded as JSON arrays.
"""

from __future__ import annotations

import json

from .graphs.graph import Vertex
from .graphs.ordering import vertex_set_sort_key, vertex_sort_key

__all__ = [
    "ProtocolError",
    "answer_frame",
    "answer_line",
    "encode_frame",
    "encode_label",
]


class ProtocolError(ValueError):
    """A frame that violates the wire protocol (malformed, wrong type)."""


def encode_frame(frame: dict) -> bytes:
    """One frame as its canonical NDJSON line (including the newline)."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def encode_label(label: Vertex):
    """A vertex label as its JSON value (a tuple becomes an array)."""
    if isinstance(label, tuple):
        return [encode_label(x) for x in label]
    if isinstance(label, (str, int, float, bool)) or label is None:
        return label
    raise ProtocolError(
        f"vertex label {label!r} of type {type(label).__name__} is not "
        "wire-encodable (use str/int/float/bool or tuples of those)"
    )


def _canonical_bags(bags) -> list:
    return [
        [encode_label(v) for v in bag]
        for bag in sorted(
            (sorted(bag, key=vertex_sort_key) for bag in bags),
            key=vertex_set_sort_key,
        )
    ]


def _tree_to_wire(decomposition) -> dict:
    """A :class:`~repro.core.decomposition.TreeDecomposition` on the wire.

    Nodes are renumbered into their sorted-id order, so the encoding is a
    pure function of the decomposition's content.
    """
    node_ids = sorted(decomposition.bags)
    index = {node: i for i, node in enumerate(node_ids)}
    edges = sorted(
        tuple(sorted((index[a], index[b]))) for a, b in decomposition.edges
    )
    return {
        "bags": [
            [
                encode_label(v)
                for v in sorted(decomposition.bags[node], key=vertex_sort_key)
            ]
            for node in node_ids
        ],
        "edges": [list(e) for e in edges],
    }


def answer_frame(result, rank: int | None = None) -> dict:
    """The canonical ``answer`` frame of one enumerated result.

    Accepts a :class:`~repro.core.ranked.RankedResult`, a
    :class:`~repro.core.proper.RankedDecomposition` or a bare
    :class:`~repro.core.mintriang.Triangulation` (diverse mode passes
    the selection index as ``rank``).  Deliberately timing-free: the
    frame bytes depend only on the enumerated structure, never on which
    pipeline, kernel, or interleaving produced it.  A decomposition result
    additionally carries its ``tree`` (node bags + tree edges), since
    distinct clique trees of one triangulation share the same bag set.
    """
    triangulation = getattr(result, "triangulation", result)
    if rank is None:
        rank = result.rank
    frame = {
        "type": "answer",
        "rank": rank,
        "cost": result.cost,
        "width": triangulation.width,
        "bags": _canonical_bags(triangulation.bags),
    }
    decomposition = getattr(result, "decomposition", None)
    if decomposition is not None:
        frame["tree"] = _tree_to_wire(decomposition)
    return frame


def answer_line(result, rank: int | None = None) -> bytes:
    """The canonical wire line of one enumerated result:
    :func:`encode_frame` of its :func:`answer_frame`."""
    return encode_frame(answer_frame(result, rank))
