"""Checkpoints of a ranked-enumeration stream and their binary tokens.

The ranked enumerator is a priority queue over Lawler–Murty partitions:
each frontier entry is a constraint pair ``[I, X]`` over minimal
separators together with its minimum-cost representative (its bag set and
κ-value) and the FIFO tie-break counter that fixes the order among
equal-cost entries.  That frontier — plus the next rank and the next
counter value — is the *entire* mutable state of the enumeration: the
shared initialization (separators, PMCs, blocks) and the unconstrained DP
table are deterministic functions of the graph and cost, so they are
rebuilt (or fetched from the session cache) on resume rather than stored.

:class:`StreamCheckpoint` captures that state as integers.  Every
constraint is a member of ``MinSep(G)`` (Parra–Scheffler) and every bag
of a minimal triangulation is a PMC of ``G`` (Bouchitté–Todinca), so a
:class:`FrontierEntry` holds its bags as a mask over
:meth:`~repro.core.context.TriangulationContext.root_pmc_order` and
``I``/``X`` as masks over the
:class:`~repro.core.context.SeparatorIndex` bits.  Both orders are
canonical (label-sorted, kernel-independent) and fixed by the graph and
the width bound the checkpoint carries.  Resuming via
:meth:`repro.api.Session.resume` continues the exact emission sequence —
bit-for-bit the suffix of an uninterrupted run — which is the serving
primitive behind paginated top-k.

Tokens.  ``to_bytes`` writes a versioned binary token, without pickle,
that any process can resume:

* ``RPCK``, a kind byte (``S`` direct, ``C`` composed) and the version;
* a header readable on its own (:func:`read_header`): fingerprint, cost
  spec, width bound, next rank, next order and an exhausted flag;
* the graph section (:class:`TokenGraph`): the canonical vertex labels,
  type-tagged — ``str``, ``int``, ``float``, ``bool``, ``None`` and
  tuples of these, the labels the service wire carries — and the edges
  as index pairs into them;
* the body: here the frontier length and, unless it is zero, the
  frontier in pop order as five columns, each (a tagged value column
  excepted) read with one :func:`struct.unpack_from` call:

  - the values: a kind byte, then either (kind 0, every value a float)
    one run of little-endian doubles, or (kind 1) one tagged value per
    entry, so an int stays an int;
  - the ``order``, ``bags``, ``include`` and ``exclude`` integers: per
    column a width code, then its fields, little-endian.  The code's low
    three bits give the field size (0: the column is all zero and
    carries no bytes; 1, 2, 3, 4: 1, 2, 4 or 8 bytes); the bits above
    count the 8-byte limbs past the first, for a column beyond 64 bits;
* a CRC32 trailer.

The encoding is canonical: ``decode(encode(x)) == x`` and
``encode(decode(b)) == b``.  A column therefore takes the narrowest
size that holds its maximum, and kind 1 needs an int among the values:
a wider code, limbs under a size below 8 bytes, an all-float kind 1 and
an unknown code are refused.  A label of any other type raises
:class:`ValueError` at ``to_bytes()``.  Every malformed token — truncated,
corrupted, of another kind, or of another version (a pickle payload is
the version-1 format) — raises :class:`ValueError`; nothing is
unpickled.  The CRC detects damage, not tampering: the service signs its
wire tokens with an HMAC (:func:`repro.service.protocol.sign_token`).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import ClassVar, NamedTuple

from ..graphs.bitgraph import iter_bits
from ..graphs.graph import Graph, Vertex
from .fingerprint import canonical_edges, canonical_vertices

__all__ = [
    "FrontierEntry",
    "StreamCheckpoint",
    "TokenGraph",
    "TokenHeader",
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "read_header",
]

#: v3: the frontier as columns (v2 wrote it entry by entry; v1 tokens
#: were pickle payloads).
CHECKPOINT_VERSION = 3

MAGIC = b"RPCK"
STREAM_KIND = 0x53  # "S"
COMPOSED_KIND = 0x43  # "C"

_DOUBLE = struct.Struct("<d")
_CRC = struct.Struct(">I")
#: Value tags (frontier values, drained values).
_FLOAT, _INT = 0, 1
#: Kinds of a frontier's value column: all doubles, or tagged values.
_DOUBLES, _TAGGED = 0, 1
#: ``struct`` codes of the frontier's integer fields by width code
#: (code 0, an all-zero column, has none), and the least column maximum
#: each code holds that the next narrower one does not.
_FIELD_CODES = "xBHIQ"
_LEAST_MAXIMUM = (0, 1, 1 << 8, 1 << 16, 1 << 32)
#: Label tags.
_L_NONE, _L_FALSE, _L_TRUE, _L_INT, _L_FLOAT, _L_STR, _L_TUPLE = range(7)
#: Longest accepted varint (counts, lengths, orders): 2^70.
_MAX_VARINT_BYTES = 10


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TokenWriter:
    """Appends the token primitives to a byte buffer."""

    __slots__ = ("out",)

    def __init__(self) -> None:
        self.out = bytearray()

    def uint(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"cannot encode {n} as an unsigned varint")
        out = self.out
        while n >= 0x80:
            out.append(n & 0x7F | 0x80)
            n >>= 7
        out.append(n)

    def mask(self, m: int) -> None:
        """A non-negative int as length-prefixed little-endian bytes."""
        data = m.to_bytes((m.bit_length() + 7) >> 3, "little")
        self.uint(len(data))
        self.out += data

    def integer(self, n: int) -> None:
        """A signed int of any size (zigzag, then :meth:`mask`)."""
        self.mask(n << 1 if n >= 0 else (~n << 1) | 1)

    def flag(self, value: bool) -> None:
        self.out.append(1 if value else 0)

    def text(self, s: str) -> None:
        self.blob(s.encode("utf-8", "surrogatepass"))

    def blob(self, data: bytes) -> None:
        self.uint(len(data))
        self.out += data

    def pack(self, layout: str, items) -> None:
        """``items`` packed by the :mod:`struct` ``layout``, in one call."""
        self.out += struct.pack(layout, *items)

    def optional_text(self, s: str | None) -> None:
        self.flag(s is not None)
        if s is not None:
            self.text(s)

    def optional_integer(self, n: int | None) -> None:
        self.flag(n is not None)
        if n is not None:
            self.integer(n)

    def value(self, v: float) -> None:
        """A cost value; an int stays an int, a float a float."""
        if isinstance(v, float):
            self.out.append(_FLOAT)
            self.out += _DOUBLE.pack(v)
        elif isinstance(v, int):
            self.out.append(_INT)
            self.integer(int(v))
        else:
            raise ValueError(
                f"cost value {v!r} of type {type(v).__name__} cannot be "
                "stored in a checkpoint token (ints and floats only)"
            )

    def label(self, v: Vertex) -> None:
        kind = type(v)
        if kind is int:
            self.out.append(_L_INT)
            self.integer(v)
        elif kind is str:
            self.out.append(_L_STR)
            self.text(v)
        elif kind is tuple:
            self.out.append(_L_TUPLE)
            self.uint(len(v))
            for item in v:
                self.label(item)
        elif kind is float:
            self.out.append(_L_FLOAT)
            self.out += _DOUBLE.pack(v)
        elif v is None:
            self.out.append(_L_NONE)
        elif kind is bool:
            self.out.append(_L_TRUE if v else _L_FALSE)
        else:
            raise ValueError(
                f"vertex label {v!r} of type {kind.__name__} cannot be stored "
                "in a checkpoint token (use str, int, float, bool, None or "
                "tuples of these)"
            )

    def frame(self, kind: int, version: int) -> None:
        self.out += MAGIC
        self.out.append(kind)
        self.uint(version)

    def finish(self) -> bytes:
        """The buffer with its CRC32 trailer."""
        self.out += _CRC.pack(zlib.crc32(self.out))
        return bytes(self.out)


class TokenReader:
    """Reads the token primitives back, refusing every non-canonical form.

    Out-of-range reads raise :class:`IndexError`; ``with decoding:``
    turns them, with every other structural failure, into
    :class:`ValueError`.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def uint(self) -> int:
        data = self.data
        pos = self.pos
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            self.pos = pos
            return byte
        n = byte & 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            n |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= 7 * _MAX_VARINT_BYTES:
                raise ValueError("varint too long")
        if not byte:
            raise ValueError("non-canonical varint")
        self.pos = pos
        return n

    def take(self, size: int) -> bytes:
        start = self.pos
        end = start + size
        chunk = self.data[start:end]
        if len(chunk) != size:
            raise IndexError("read past the end of the token")
        self.pos = end
        return chunk

    def mask(self) -> int:
        data = self.take(self.uint())
        if data and not data[-1]:
            raise ValueError("non-canonical mask")
        return int.from_bytes(data, "little")

    def integer(self) -> int:
        z = self.mask()
        return -(z >> 1) - 1 if z & 1 else z >> 1

    def flag(self) -> bool:
        byte = self.data[self.pos]
        if byte > 1:
            raise ValueError("flag byte is neither 0 nor 1")
        self.pos += 1
        return byte == 1

    def blob(self) -> bytes:
        return self.take(self.uint())

    def unpack(self, layout: str) -> tuple:
        """The fields of the :mod:`struct` ``layout``, in one call."""
        fields = struct.unpack_from(layout, self.data, self.pos)
        self.pos += struct.calcsize(layout)
        return fields

    def text(self) -> str:
        return self.blob().decode("utf-8", "surrogatepass")

    def optional_text(self) -> str | None:
        return self.text() if self.flag() else None

    def optional_integer(self) -> int | None:
        return self.integer() if self.flag() else None

    def value(self) -> float:
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _INT:
            return self.integer()
        if tag == _FLOAT:
            return _DOUBLE.unpack(self.take(8))[0]
        raise ValueError(f"unknown value tag {tag}")

    def label(self) -> Vertex:
        tag = self.data[self.pos]
        self.pos += 1
        if tag == _L_INT:
            return self.integer()
        if tag == _L_STR:
            return self.text()
        if tag == _L_TUPLE:
            return tuple(self.label() for _ in range(self.uint()))
        if tag == _L_FLOAT:
            return _DOUBLE.unpack(self.take(8))[0]
        if tag == _L_NONE:
            return None
        if tag in (_L_FALSE, _L_TRUE):
            return tag == _L_TRUE
        raise ValueError(f"unknown label tag {tag}")

    def vertex_set(self, vertices: tuple) -> frozenset:
        """A vertex mask over ``vertices``, as the set of its labels."""
        return mask_labels(self.mask(), vertices)

    def end(self) -> None:
        """Require that the body ends right before the CRC trailer."""
        if self.pos != len(self.data) - _CRC.size:
            raise ValueError("trailing bytes after the token body")


def mask_labels(mask: int, vertices: tuple) -> frozenset:
    """The labels of ``mask``'s bits, bit ``i`` naming ``vertices[i]``."""
    if mask >> len(vertices):
        raise ValueError("vertex mask names a vertex the graph lacks")
    return frozenset(vertices[i] for i in iter_bits(mask))


class _Decoding:
    """``with decoding: ...`` turns every structural failure of a token
    read into the :class:`ValueError` callers are promised."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, _tb) -> bool:
        if kind is not None and issubclass(
            kind, (IndexError, struct.error, OverflowError, RecursionError)
        ):
            raise ValueError("checkpoint token is truncated or corrupted") from None
        return False


decoding = _Decoding()


# ----------------------------------------------------------------------
# Graph section
# ----------------------------------------------------------------------
class TokenGraph:
    """A checkpoint's graph: canonical labels and edges, or their encoding.

    A stream's checkpoint shares its context's ``TokenGraph`` (built from
    the labels, encoded at the first ``to_bytes``); a decoded token gets
    one over its graph section, decoded on first access to the labels.
    Two are equal when they encode to the same bytes, that is when they
    are the same labelled graph.
    """

    __slots__ = ("_vertices", "_edges", "_data")

    def __init__(
        self,
        vertices: tuple[Vertex, ...] | None = None,
        edges: tuple[tuple[Vertex, Vertex], ...] | None = None,
        *,
        data: bytes | None = None,
    ) -> None:
        if (vertices is None) != (edges is None) or (
            vertices is None and data is None
        ):
            raise ValueError("TokenGraph needs vertices and edges, or data")
        self._vertices = None if vertices is None else tuple(vertices)
        self._edges = None if edges is None else tuple(map(tuple, edges))
        self._data = data

    @classmethod
    def of(cls, graph: Graph) -> "TokenGraph":
        """``graph`` in canonical (label-sorted) vertex and edge order."""
        return cls(canonical_vertices(graph), canonical_edges(graph))

    def _decode(self) -> None:
        with decoding:
            reader = TokenReader(self._data)
            vertices = tuple(reader.label() for _ in range(reader.uint()))
            n = len(vertices)
            edges = []
            for _ in range(reader.uint()):
                i, j = reader.uint(), reader.uint()
                if i >= n or j >= n:
                    raise ValueError("edge names a vertex the graph lacks")
                edges.append((vertices[i], vertices[j]))
            if reader.pos != len(self._data):
                raise ValueError("trailing bytes after the graph section")
        self._vertices, self._edges = vertices, tuple(edges)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        if self._vertices is None:
            self._decode()
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        if self._edges is None:
            self._decode()
        return self._edges

    def encoded(self) -> bytes:
        """The graph section; :class:`ValueError` for a label the token
        cannot carry."""
        data = self._data
        if data is None:
            writer = TokenWriter()
            writer.uint(len(self._vertices))
            position = {}
            for i, v in enumerate(self._vertices):
                writer.label(v)
                position[v] = i
            writer.uint(len(self._edges))
            for u, v in self._edges:
                writer.uint(position[u])
                writer.uint(position[v])
            data = self._data = bytes(writer.out)
        return data

    def restore(self) -> Graph:
        """A fresh :class:`Graph` with these labels and edges."""
        return Graph(vertices=self.vertices, edges=self.edges)

    def _key(self) -> object:
        try:
            return self.encoded()
        except ValueError:
            return (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TokenGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"TokenGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TokenHeader:
    """The header of a checkpoint token, read without its body.

    Enough to route a resume, pick its answer-cache keys and rebuild its
    graph (lazily, from the graph section) — the service reads only this
    before the job that resumes the token decodes the frontier.
    """

    composed: bool
    version: int
    fingerprint: str
    cost_spec: str | None
    width_bound: int | None
    next_rank: int
    next_order: int
    exhausted: bool
    graph: TokenGraph

    def restore_graph(self) -> Graph:
        """Rebuild the checkpointed graph."""
        return self.graph.restore()


_KIND_NAMES = {STREAM_KIND: "StreamCheckpoint", COMPOSED_KIND: "ComposedCheckpoint"}


def _supported_version(kind: int) -> int:
    if kind == STREAM_KIND:
        return CHECKPOINT_VERSION
    from ..preprocess.recompose import COMPOSED_CHECKPOINT_VERSION

    return COMPOSED_CHECKPOINT_VERSION


def write_header(writer: TokenWriter, kind: int, checkpoint) -> None:
    """The frame and header of ``checkpoint`` (either kind)."""
    writer.frame(kind, checkpoint.version)
    writer.text(checkpoint.fingerprint)
    writer.optional_text(checkpoint.cost_spec)
    writer.optional_integer(checkpoint.width_bound)
    writer.uint(checkpoint.next_rank)
    writer.uint(checkpoint.next_order)
    writer.flag(checkpoint.exhausted)
    writer.blob(checkpoint.graph.encoded())


def open_token(
    data: bytes, kinds: tuple[int, ...] = (STREAM_KIND, COMPOSED_KIND)
) -> tuple[TokenHeader, TokenReader]:
    """Check a token's frame, version and CRC and read its header.

    Returns the header and a reader positioned at the body.
    """
    expected = " or ".join(_KIND_NAMES[k] for k in kinds)
    data = bytes(data)
    if data[:1] == b"\x80":
        raise ValueError(
            "unsupported checkpoint version 1: the token is a pickle "
            "payload, the format of checkpoint version 1, which this build "
            f"no longer reads (it reads version {CHECKPOINT_VERSION}); "
            f"expected {expected}"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint token (bad magic); expected {expected}")
    with decoding:
        reader = TokenReader(data, len(MAGIC))
        kind = data[reader.pos]
        reader.pos += 1
        if kind not in _KIND_NAMES:
            raise ValueError(f"unknown checkpoint kind {kind}; expected {expected}")
        if kind not in kinds:
            raise ValueError(
                f"checkpoint token holds a {_KIND_NAMES[kind]}, expected {expected}"
            )
        version = reader.uint()
        supported = _supported_version(kind)
        if version != supported:
            label = "composed-checkpoint" if kind == COMPOSED_KIND else "checkpoint"
            raise ValueError(
                f"unsupported {label} version {version} "
                f"(this build reads version {supported})"
            )
        if len(data) < reader.pos + _CRC.size or _CRC.unpack_from(
            data, len(data) - _CRC.size
        )[0] != zlib.crc32(memoryview(data)[: len(data) - _CRC.size]):
            raise ValueError(
                "checkpoint token is truncated or corrupted (checksum mismatch)"
            )
        header = TokenHeader(
            composed=kind == COMPOSED_KIND,
            version=version,
            fingerprint=reader.text(),
            cost_spec=reader.optional_text(),
            width_bound=reader.optional_integer(),
            next_rank=reader.uint(),
            next_order=reader.uint(),
            exhausted=reader.flag(),
            graph=TokenGraph(data=reader.blob()),
        )
    return header, reader


def read_header(data: bytes) -> TokenHeader:
    """The header of a token of either kind, without decoding its body.

    Raises
    ------
    ValueError
        If the token is malformed, corrupted or of another version.
    """
    return open_token(data)[0]


# ----------------------------------------------------------------------
# Direct-stream checkpoints
# ----------------------------------------------------------------------
class FrontierEntry(NamedTuple):
    """One pending Lawler–Murty partition in the priority queue.

    Attributes
    ----------
    value:
        κ of the partition's representative (the heap priority); an int
        or a float, as the cost returned it.
    order:
        FIFO tie-break counter; unique per entry, so the heap order is a
        deterministic total order.
    bags:
        Bag set of the representative, as a mask over
        :meth:`~repro.core.context.TriangulationContext.root_pmc_order`.
    include, exclude:
        The ``[I, X]`` constraint pair, as masks over the
        :class:`~repro.core.context.SeparatorIndex` bits.
    """

    value: float
    order: int
    bags: int
    include: int
    exclude: int


@dataclass(frozen=True)
class StreamCheckpoint:
    """Full resumable state of a paused ranked stream."""

    fingerprint: str
    cost_spec: str | None
    width_bound: int | None
    next_rank: int
    next_order: int
    frontier: tuple[FrontierEntry, ...]
    graph: TokenGraph
    version: int = CHECKPOINT_VERSION
    #: Which checkpoint kind this is (the pipeline a resume takes).
    composed: ClassVar[bool] = False

    @property
    def exhausted(self) -> bool:
        """Whether the stream had no further answers when checkpointed."""
        return not self.frontier

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The graph's vertex labels in canonical order."""
        return self.graph.vertices

    @property
    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The graph's edges in canonical order."""
        return self.graph.edges

    def restore_graph(self) -> Graph:
        """Rebuild the checkpointed graph (labels and edges preserved)."""
        return self.graph.restore()

    def to_bytes(self) -> bytes:
        """Serialize to a binary token (see the module docstring)."""
        writer = TokenWriter()
        write_header(writer, STREAM_KIND, self)
        _write_frontier(writer, self.frontier)
        return writer.finish()

    @staticmethod
    def from_bytes(data: bytes) -> "StreamCheckpoint":
        """Decode a token produced by :meth:`to_bytes`.

        Raises
        ------
        ValueError
            If the token is malformed, corrupted, of the composed kind, or
            of an unsupported version.
        """
        return StreamCheckpoint._decode(*open_token(data, (STREAM_KIND,)))

    @staticmethod
    def _decode(header: TokenHeader, reader: TokenReader) -> "StreamCheckpoint":
        with decoding:
            frontier = _read_frontier(reader)
            reader.end()
        if header.exhausted != (not frontier):
            raise ValueError("checkpoint token's exhausted flag contradicts its frontier")
        return StreamCheckpoint(
            fingerprint=header.fingerprint,
            cost_spec=header.cost_spec,
            width_bound=header.width_bound,
            next_rank=header.next_rank,
            next_order=header.next_order,
            frontier=frontier,
            graph=header.graph,
            version=header.version,
        )


def frontier_entries(rows) -> tuple[FrontierEntry, ...]:
    """``(value, order, bags, include, exclude)`` rows as frontier
    entries, without the Python-level call ``FrontierEntry._make`` makes
    per row."""
    return tuple(map(tuple.__new__, repeat(FrontierEntry), rows))


def _write_frontier(writer: TokenWriter, frontier) -> None:
    writer.uint(len(frontier))
    if not frontier:
        return
    values, *columns = zip(*frontier)
    if all(map(isinstance, values, repeat(float))):
        writer.out.append(_DOUBLES)
        writer.pack(f"<{len(values)}d", values)
    else:
        writer.out.append(_TAGGED)
        for value in values:
            writer.value(value)
    for column in columns:
        _write_column(writer, column)


def _write_column(writer: TokenWriter, column: tuple[int, ...]) -> None:
    if min(column) < 0:
        raise ValueError("cannot encode a negative frontier order or mask")
    top = max(column)
    limbs = (top.bit_length() + 63) >> 6
    if limbs > 1:
        writer.uint(4 | (limbs - 1) << 3)
        writer.out += b"".join(
            map(int.to_bytes, column, repeat(8 * limbs), repeat("little"))
        )
        return
    code = bisect_right(_LEAST_MAXIMUM, top) - 1
    writer.uint(code)
    if code:
        writer.pack(f"<{len(column)}{_FIELD_CODES[code]}", column)


def _read_frontier(reader: TokenReader) -> tuple[FrontierEntry, ...]:
    """The frontier entries of a direct token's body."""
    n = reader.uint()
    if not n:
        return ()
    kind = reader.data[reader.pos]
    reader.pos += 1
    if kind == _DOUBLES:
        values = reader.unpack(f"<{n}d")
    elif kind == _TAGGED:
        values = tuple(reader.value() for _ in range(n))
        if all(map(isinstance, values, repeat(float))):
            raise ValueError("tagged value column holds only floats")
    else:
        raise ValueError(f"unknown value column kind {kind}")
    return frontier_entries(
        zip(values, *[_read_column(reader, n) for _ in range(4)])
    )


def _read_column(reader: TokenReader, n: int) -> tuple[int, ...]:
    """One integer column of ``n`` fields (see the module docstring)."""
    code = reader.uint()
    size, limbs = code & 7, (code >> 3) + 1
    if size >= len(_FIELD_CODES):
        raise ValueError(f"unknown frontier column width code {code}")
    if limbs > 1 and size < 4:
        raise ValueError("frontier column has limbs under a width below 8 bytes")
    if not size:
        return (0,) * n
    if limbs == 1:
        column = reader.unpack(f"<{n}{_FIELD_CODES[size]}")
        least = _LEAST_MAXIMUM[size]
    else:
        fields = reader.unpack("<" + f"{8 * limbs}s" * n)
        column = tuple(map(int.from_bytes, fields, repeat("little")))
        least = 1 << 64 * (limbs - 1)
    if max(column) < least:
        raise ValueError("frontier column is wider than its maximum needs")
    return column


def load_checkpoint(data: bytes):
    """Decode a resume token of either checkpoint kind.

    Direct streams pause into a :class:`StreamCheckpoint`; preprocessed
    (composed) streams pause into a
    :class:`~repro.preprocess.recompose.ComposedCheckpoint`.  Callers
    that accept both — :meth:`repro.api.Session.resume`, the CLI
    ``--resume`` path — load through this helper, which dispatches on
    the token's kind byte and applies the matching version check.

    Raises
    ------
    ValueError
        If the token is malformed, corrupted or carries an unsupported
        version (pickle payloads are version 1 and are never unpickled).
    """
    header, reader = open_token(data)
    if header.composed:
        from ..preprocess.recompose import ComposedCheckpoint

        return ComposedCheckpoint._decode(header, reader)
    return StreamCheckpoint._decode(header, reader)
