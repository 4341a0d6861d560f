"""The newline-delimited-JSON streaming protocol of the enumeration service.

One connection carries one job.  The client opens with a single
``request`` frame; the server answers with a stream of incremental
``answer`` frames followed by exactly one *terminal* frame:

* ``stats``     — normal completion (the page is served; a resume token
  is attached whenever the stream is pausable and not exhausted);
* ``deadline``  — the per-request deadline expired first (the token
  resumes exactly where the stream stopped);
* ``cancelled`` — the client sent an in-band ``cancel`` frame (or
  disconnected; nobody reads the frame then, but the job still winds
  down through it);
* ``error``     — the request was malformed or failed; the connection
  ends, the server lives on.

Frames are canonically encoded — ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` plus ``"\\n"`` — so a frame's byte string is a
pure function of its content.  ``answer`` frames carry no timing fields
and list their bags in the canonical vertex order: the byte sequence a
client receives for a given request is therefore **bit-identical** to
the serialization of the results ``Session.stream`` produces serially
(the service differential harness in ``tests/service/`` holds the
servers to exactly that).

Vertex labels travel as JSON values with one extension: tuple labels
(e.g. grid coordinates) are encoded as JSON arrays and decoded back to
tuples — a list is never a valid (hashable) vertex label, so the
round trip is unambiguous.

Resume tokens are the binary cross-process checkpoint tokens of
:mod:`repro.api.checkpoint`, base64-wrapped for the JSON transport.
Their CRC detects damage, not forgery, so a server resumes only tokens
it minted: every wire token is **HMAC-signed** with the scheduler's
token key (:func:`sign_token` / :func:`verify_token`), and a token that
fails authentication is rejected in-band before it is decoded.  A
structurally damaged token (too short to carry a tag, or a signed
payload the checkpoint codec refuses) is a ``bad-request``; a
well-formed token whose HMAC tag does not verify
raises :class:`TokenAuthError` and surfaces as the distinct error code
``token_key_mismatch`` — the signature of a key rotation or server
restart, not of corruption — so clients know re-submitting the job (not
fixing their bytes) is the remedy.  By default the key is random per
scheduler, so tokens resume against the server that minted them; share
one key across instances to make tokens portable across a pool or a
restart: pass ``token_key=`` / ``repro serve --token-secret``, or set
the ``REPRO_TOKEN_SECRET`` environment variable, which every scheduler
without an explicit key falls back to (:func:`resolve_token_key`).
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import secrets
from dataclasses import dataclass, field

from ..api.request import check_bounds
from ..graphs.graph import Graph, Vertex
from ..graphs.kernels import validate_kernel
from ..graphs.ordering import vertex_set_sort_key, vertex_sort_key

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TokenAuthError",
    "ENV_TOKEN_SECRET",
    "resolve_token_key",
    "ServiceRequest",
    "AnswerFrame",
    "StatsFrame",
    "ServiceStatsFrame",
    "DeadlineFrame",
    "CancelledFrame",
    "ErrorFrame",
    "TERMINAL_TYPES",
    "OPS",
    "OP_FIELDS",
    "encode_frame",
    "decode_frame",
    "typed_frame",
    "encode_token",
    "decode_token",
    "graph_to_wire",
    "graph_from_wire",
    "answer_frame",
    "terminal_frame",
    "serialize_answers",
    "parse_request",
]

PROTOCOL_VERSION = 1

#: The fields shared by every enumeration job kind.
_JOB_FIELDS = (
    "graph", "cost", "kernel", "preprocess", "width_bound", "deadline", "k",
)

#: The one request contract, held by both doors: the fields each job
#: kind reads.  A request frame may carry these plus ``type``, ``v`` and
#: ``op``, and nothing else.  ``stats`` is the observability kind: no
#: graph, no token, one terminal ``service-stats`` frame describing the
#: scheduler and its workers.
OP_FIELDS = {
    "enumerate": _JOB_FIELDS + ("token",),
    "top": _JOB_FIELDS + ("token",),
    "diverse": _JOB_FIELDS + ("min_distance", "scan_limit"),
    "decompositions": _JOB_FIELDS + ("per_triangulation",),
    "stats": (),
}

#: Valid job kinds a request frame may carry.
OPS = tuple(OP_FIELDS)

#: Frame types that end a response stream.
TERMINAL_TYPES = frozenset(
    {"stats", "service-stats", "deadline", "cancelled", "error"}
)


class ProtocolError(ValueError):
    """A frame that violates the wire protocol (malformed, wrong type)."""


class TokenAuthError(ProtocolError):
    """A structurally valid resume token whose HMAC tag does not verify.

    Distinguished from plain :class:`ProtocolError` so the service can
    answer with the ``token_key_mismatch`` error code: the token was
    minted under a different signing key (server restart without a
    shared secret, key rotation) rather than damaged in transit, and the
    client's remedy is to re-submit the job, not to fix its bytes.
    """


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def encode_frame(frame: dict) -> bytes:
    """One frame as its canonical NDJSON line (including the newline)."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes) -> dict:
    """Parse one NDJSON line into a frame dict.

    Raises
    ------
    ProtocolError
        If the line is not valid JSON or not a JSON object.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def encode_token(token: bytes) -> str:
    """A checkpoint byte string as its JSON-safe base64 form."""
    return base64.b64encode(token).decode("ascii")


def decode_token(raw: str) -> bytes:
    """Invert :func:`encode_token`."""
    try:
        return base64.b64decode(raw.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProtocolError(f"invalid resume token: {exc}") from None


#: Length of the HMAC-SHA256 tag prefixed to every signed wire token.
TOKEN_TAG_BYTES = 32


def new_token_key() -> bytes:
    """A fresh random token-signing key (32 bytes)."""
    return secrets.token_bytes(32)


#: Environment variable holding a shared token-signing secret (the
#: secret itself, not a file path) — the deployment-friendly way to keep
#: resume tokens valid across server restarts and instances.
ENV_TOKEN_SECRET = "REPRO_TOKEN_SECRET"


def resolve_token_key(explicit: bytes | None = None) -> bytes:
    """The effective token-signing key.

    Precedence: ``explicit`` bytes (``token_key=`` / ``--token-secret``),
    else the ``REPRO_TOKEN_SECRET`` environment secret (UTF-8 encoded),
    else a fresh random per-instance key.  Without the env fallback, a
    gateway or server restart silently invalidated every outstanding
    token even in deployments that *wanted* stable keys but could not
    thread a flag through their process manager.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_TOKEN_SECRET)
    if env:
        return env.encode("utf-8")
    return new_token_key()


def sign_token(key: bytes, payload: bytes) -> bytes:
    """Prefix ``payload`` with its HMAC-SHA256 tag under ``key``."""
    return hmac.new(key, payload, hashlib.sha256).digest() + payload


def verify_token(key: bytes, blob: bytes) -> bytes:
    """Authenticate a signed wire token; returns the raw payload.

    Raises
    ------
    ProtocolError
        If the blob is too short to carry a tag (structural corruption).
        Only an authenticated payload reaches the checkpoint codec, so a
        client cannot resume a frontier the server never minted.
    TokenAuthError
        If the tag does not verify: the token was signed under a
        different key (server restart / rotation) or tampered with —
        reported to clients as ``token_key_mismatch``.
    """
    if len(blob) <= TOKEN_TAG_BYTES:
        raise ProtocolError("resume token is truncated")
    tag, payload = blob[:TOKEN_TAG_BYTES], blob[TOKEN_TAG_BYTES:]
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise TokenAuthError(
            "resume token failed authentication: it was minted under a "
            "different signing key (server restart or key rotation — "
            "share a key via --token-secret or REPRO_TOKEN_SECRET to "
            "keep tokens portable), or tampered with"
        )
    return payload


# ----------------------------------------------------------------------
# Vertex labels and graphs on the wire
# ----------------------------------------------------------------------
def _encode_label(label: Vertex):
    if isinstance(label, tuple):
        return [_encode_label(x) for x in label]
    if isinstance(label, (str, int, float, bool)) or label is None:
        return label
    raise ProtocolError(
        f"vertex label {label!r} of type {type(label).__name__} is not "
        "wire-encodable (use str/int/float/bool or tuples of those)"
    )


def _decode_label(value) -> Vertex:
    if isinstance(value, list):
        return tuple(_decode_label(x) for x in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(
        f"wire label {value!r} of type {type(value).__name__} is not decodable"
    )


def graph_to_wire(graph: Graph) -> dict:
    """A graph as its canonical wire object (deterministic ordering)."""
    from ..api.fingerprint import canonical_edges, canonical_vertices

    return {
        "vertices": [_encode_label(v) for v in canonical_vertices(graph)],
        "edges": [
            [_encode_label(u), _encode_label(v)]
            for u, v in canonical_edges(graph)
        ],
    }


def graph_from_wire(wire) -> Graph:
    """Rebuild a graph from its wire object.

    Raises
    ------
    ProtocolError
        If the object is structurally invalid (wrong shapes, undecodable
        labels, edges over unknown vertices).
    """
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"graph must be a JSON object, got {type(wire).__name__}"
        )
    vertices_raw = wire.get("vertices")
    edges_raw = wire.get("edges", [])
    if not isinstance(vertices_raw, list) or not isinstance(edges_raw, list):
        raise ProtocolError("graph needs 'vertices' and 'edges' arrays")
    vertices = [_decode_label(v) for v in vertices_raw]
    known = set(vertices)
    edges = []
    for pair in edges_raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProtocolError(f"edge {pair!r} is not a 2-element array")
        u, v = (_decode_label(x) for x in pair)
        if u not in known or v not in known:
            raise ProtocolError(f"edge ({u!r}, {v!r}) references unknown vertices")
        edges.append((u, v))
    try:
        return Graph(vertices=vertices, edges=edges)
    except ValueError as exc:
        raise ProtocolError(f"invalid graph: {exc}") from None


# ----------------------------------------------------------------------
# Answer serialization — the byte-identity anchor
# ----------------------------------------------------------------------
def _canonical_bags(bags) -> list:
    return [
        [_encode_label(v) for v in bag]
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
                _encode_label(v)
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


def terminal_frame(stats, token: bytes | None = None) -> dict:
    """The terminal frame of a page whose record is ``stats`` (an
    :class:`~repro.api.response.EnumerationStats`): its ``type`` is
    ``stats.terminal``.

    Every terminal frame carries ``emitted``, ``next_rank`` and
    ``checkpoint`` (the signed resume ``token``, base64-wrapped, or
    ``null``); a ``stats`` frame also carries ``expansions``,
    ``exhausted``, ``elapsed_seconds`` (rounded to the microsecond),
    ``engine`` and ``preprocessed``.  A library response holds the same
    record, so ``terminal_frame(response.stats)`` equals the wire's
    frame but for ``elapsed_seconds`` and ``checkpoint``.
    """
    frame = {
        "type": stats.terminal,
        "emitted": stats.emitted,
        "next_rank": stats.next_rank,
        "checkpoint": encode_token(token) if token is not None else None,
    }
    if stats.terminal == "stats":
        frame.update(
            expansions=stats.expansions,
            exhausted=stats.exhausted,
            elapsed_seconds=round(stats.elapsed_seconds, 6),
            engine=stats.engine,
            preprocessed=stats.preprocessed,
        )
    return frame


def serialize_answers(results) -> list[bytes]:
    """The exact frame bytes a server streams for ``results``.

    The reference side of the service differential tests: feed it the
    output of a serial ``Session.stream`` run and compare against the
    raw ``answer`` lines a client received.
    """
    return [encode_frame(answer_frame(r)) for r in results]


# ----------------------------------------------------------------------
# Typed requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceRequest:
    """One validated job admitted to the scheduler.

    ``op`` is the job kind (:data:`OPS`).  Exactly one of ``graph`` and
    ``token`` is set: fresh jobs carry the graph, resumed ones carry the
    checkpoint token of a previous ``stats`` / ``deadline`` /
    ``cancelled`` frame (``enumerate`` / ``top`` only — diverse and
    decomposition jobs are not pausable).  ``deadline`` is wall-clock
    seconds from admission; on expiry an ``enumerate``/``top`` stream is
    paused into a token rather than discarded (non-pausable ops still
    stop at the deadline, but with ``checkpoint: null``).
    """

    op: str
    graph: Graph | None = None
    token: bytes | None = field(default=None, repr=False)
    cost: str = "width"
    k: int | None = None
    width_bound: int | None = None
    #: ``"bitset"`` or ``"sets"`` (:data:`repro.graphs.kernels.KERNELS`).
    kernel: str = "bitset"
    preprocess: bool | None = None
    min_distance: int = 1
    scan_limit: int | None = None
    per_triangulation: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(
                f"unknown op {self.op!r}; expected one of {', '.join(OPS)}"
            )
        try:
            validate_kernel(self.kernel)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        if self.op == "stats":
            if self.graph is not None or self.token is not None:
                raise ProtocolError("op 'stats' takes neither graph nor token")
        elif (self.graph is None) == (self.token is None):
            raise ProtocolError("request needs exactly one of graph and token")
        if self.token is not None and self.op not in ("enumerate", "top"):
            raise ProtocolError(f"op {self.op!r} cannot resume from a token")
        if not isinstance(self.cost, str):
            raise ProtocolError("cost must be a registry name string")
        if self.op in ("top", "diverse") and self.k is None:
            raise ProtocolError(f"op {self.op!r} requires field(s) k")
        try:
            check_bounds(self)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None

    @property
    def mode(self) -> str:
        """The job's :class:`~repro.api.request.EnumerationRequest` mode
        (``enumerate`` and ``top`` are ``ranked``)."""
        return "ranked" if self.op in ("enumerate", "top") else self.op

    def to_frame(self) -> dict:
        """The request as its wire frame (inverse of :func:`parse_request`),
        carrying only the fields its op reads."""
        values = {
            "graph": graph_to_wire(self.graph) if self.graph is not None else None,
            "token": encode_token(self.token) if self.token is not None else None,
            "kernel": self.kernel if self.kernel != "bitset" else None,
            "min_distance": self.min_distance if self.min_distance != 1 else None,
        }
        frame: dict = {"type": "request", "v": PROTOCOL_VERSION, "op": self.op}
        for key in OP_FIELDS[self.op]:
            value = values[key] if key in values else getattr(self, key)
            if value is not None:
                frame[key] = value
        return frame


def _check_field(frame: dict, key: str, types, what: str):
    value = frame.get(key)
    if value is not None and not isinstance(value, types):
        raise ProtocolError(f"{key} must be {what}, got {value!r}")
    return value


def parse_request(frame: dict) -> ServiceRequest:
    """Validate and type one ``request`` frame.

    The one request contract of both doors: the TCP server parses its
    opening frame here, and the HTTP gateway a submitted body.

    Raises
    ------
    ProtocolError
        On any structural violation — unknown frame type or op, a field
        the op does not read (:data:`OP_FIELDS`), missing or ill-typed
        fields, both/neither of graph and token, bad labels.  Semantic
        failures (unknown cost names, disconnected graphs, ...) are
        intentionally left to job start, where they surface as in-band
        ``error`` frames.
    """
    frame_type = frame.get("type")
    if frame_type != "request":
        raise ProtocolError(
            f"expected a 'request' frame, got type {frame_type!r}"
        )
    version = frame.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op' field")
    fields = OP_FIELDS.get(op)
    if fields is None:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    unknown = sorted(set(frame) - set(fields) - {"type", "v", "op"})
    if unknown:
        raise ProtocolError(
            f"op {op!r} does not accept field(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(fields) or 'none'}"
        )
    graph = None
    if frame.get("graph") is not None:
        graph = graph_from_wire(frame["graph"])
    token = None
    if frame.get("token") is not None:
        raw = frame["token"]
        if not isinstance(raw, str):
            raise ProtocolError("token must be a base64 string")
        token = decode_token(raw)
    cost = frame.get("cost", "width")
    # bool is an int subclass; reject it explicitly for the numeric fields.
    for key in ("k", "width_bound", "scan_limit", "per_triangulation",
                "min_distance", "deadline"):
        if isinstance(frame.get(key), bool):
            raise ProtocolError(f"{key} must be a number, got {frame[key]!r}")
    kernel = frame.get("kernel", "bitset")
    if not isinstance(kernel, str):
        raise ProtocolError(f"kernel must be a string, got {kernel!r}")
    # The name itself is checked by ServiceRequest.__post_init__ below.
    preprocess = _check_field(frame, "preprocess", bool, "a boolean")
    deadline = _check_field(frame, "deadline", (int, float), "a number")
    min_distance = _check_field(frame, "min_distance", int, "an integer")
    return ServiceRequest(
        op=op,
        graph=graph,
        token=token,
        cost=cost if cost is not None else "width",
        k=_check_field(frame, "k", int, "an integer"),
        width_bound=_check_field(frame, "width_bound", int, "an integer"),
        kernel=kernel,
        preprocess=preprocess,
        min_distance=min_distance if min_distance is not None else 1,
        scan_limit=_check_field(frame, "scan_limit", int, "an integer"),
        per_triangulation=_check_field(
            frame, "per_triangulation", int, "an integer"
        ),
        deadline=float(deadline) if deadline is not None else None,
    )


# ----------------------------------------------------------------------
# Typed server->client frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnswerFrame:
    """One incremental answer; ``raw`` is the exact line as received.

    ``tree`` is present on ``decompositions`` answers only: a
    ``(bags, edges)`` pair where edges index into the listed bags.
    """

    rank: int
    cost: float
    width: int
    bags: tuple
    tree: "tuple | None" = None
    raw: bytes = field(compare=False, repr=False, default=b"")


@dataclass(frozen=True)
class StatsFrame:
    """Terminal frame of a normally completed job."""

    emitted: int
    expansions: int
    exhausted: bool
    elapsed_seconds: float
    engine: str
    preprocessed: bool
    next_rank: int | None
    checkpoint: bytes | None = field(repr=False, default=None)
    raw: bytes = field(compare=False, repr=False, default=b"")


@dataclass(frozen=True)
class ServiceStatsFrame:
    """Terminal frame of a ``stats`` job: server observability.

    ``scheduler`` holds the admission counters, ``workers`` one row per
    backend worker (queue depth, warm-session fingerprints, cache hit
    counts), and ``cache`` the fleet-aggregated disk-cache view —
    ``{"enabled", "path", "kinds": {kind: {hits, misses, stores,
    evictions, corrupt, entries, bytes}}}`` — empty when the server runs
    without a persistent store.
    """

    scheduler: dict
    backend: str
    workers: tuple
    cache: dict = field(default_factory=dict)
    raw: bytes = field(compare=False, repr=False, default=b"")


@dataclass(frozen=True)
class DeadlineFrame:
    """Terminal frame of a job cut short by its deadline."""

    emitted: int
    next_rank: int | None
    checkpoint: bytes | None = field(repr=False, default=None)
    raw: bytes = field(compare=False, repr=False, default=b"")


@dataclass(frozen=True)
class CancelledFrame:
    """Terminal frame of a cancelled job."""

    emitted: int
    next_rank: int | None
    checkpoint: bytes | None = field(repr=False, default=None)
    raw: bytes = field(compare=False, repr=False, default=b"")


@dataclass(frozen=True)
class ErrorFrame:
    """Terminal in-band error; the server connection ends, the server lives."""

    code: str
    message: str
    raw: bytes = field(compare=False, repr=False, default=b"")


def _optional_token(frame: dict) -> bytes | None:
    raw = frame.get("checkpoint")
    return decode_token(raw) if raw is not None else None


def typed_frame(frame: dict, raw: bytes = b""):
    """Lift a decoded server frame into its typed form.

    Raises
    ------
    ProtocolError
        On an unknown frame type or missing fields.
    """
    frame_type = frame.get("type")
    try:
        if frame_type == "answer":
            tree = frame.get("tree")
            return AnswerFrame(
                rank=frame["rank"],
                cost=frame["cost"],
                width=frame["width"],
                bags=tuple(
                    tuple(_decode_label(v) for v in bag)
                    for bag in frame["bags"]
                ),
                tree=(
                    (
                        tuple(
                            tuple(_decode_label(v) for v in bag)
                            for bag in tree["bags"]
                        ),
                        tuple(tuple(e) for e in tree["edges"]),
                    )
                    if tree is not None
                    else None
                ),
                raw=raw,
            )
        if frame_type == "stats":
            return StatsFrame(
                emitted=frame["emitted"],
                expansions=frame["expansions"],
                exhausted=frame["exhausted"],
                elapsed_seconds=frame["elapsed_seconds"],
                engine=frame["engine"],
                preprocessed=frame["preprocessed"],
                next_rank=frame.get("next_rank"),
                checkpoint=_optional_token(frame),
                raw=raw,
            )
        if frame_type == "service-stats":
            return ServiceStatsFrame(
                scheduler=frame["scheduler"],
                backend=frame["backend"],
                workers=tuple(frame["workers"]),
                cache=frame.get("cache") or {},
                raw=raw,
            )
        if frame_type == "deadline":
            return DeadlineFrame(
                emitted=frame["emitted"],
                next_rank=frame.get("next_rank"),
                checkpoint=_optional_token(frame),
                raw=raw,
            )
        if frame_type == "cancelled":
            return CancelledFrame(
                emitted=frame["emitted"],
                next_rank=frame.get("next_rank"),
                checkpoint=_optional_token(frame),
                raw=raw,
            )
        if frame_type == "error":
            return ErrorFrame(
                code=frame["code"], message=frame["message"], raw=raw
            )
    except KeyError as exc:
        raise ProtocolError(
            f"{frame_type} frame is missing field {exc.args[0]!r}"
        ) from None
    raise ProtocolError(f"unknown frame type {frame_type!r}")
