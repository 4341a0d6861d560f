"""The disk-backed artifact store: one sqlite file, many processes.

Layout
------
A store is a directory holding a single ``artifacts.sqlite`` database in
WAL mode.  Each row is one artifact::

    (kind, key) -> (schema_tag, payload, nbytes, created_at, last_used)

``kind`` names the artifact family (``"context"``, ``"prepared"``,
``"plan"``, ``"answers"``); ``key`` is the versioned content key built
by :func:`context_key` / :func:`prepared_key` / :func:`plan_key` /
:func:`answers_key` from the graph's content fingerprint plus every
input the artifact depends on (width bound, graph kernel, cost spec,
duplicate-sensitivity, preprocess mode; the answers key has no kernel,
since every kernel enumerates the same sequence).  The
schema tag — :func:`default_schema_tag`, which folds in the cache format
version and the checkpoint payload versions — rides both in the row and
*inside* the payload, so a blob read by a build with different persisted
semantics is refused as a clean miss, never deserialized into wrong
answers.

Payload format (:func:`encode_payload` / :func:`decode_payload`)::

    MAGIC | tag length (2 bytes) | schema tag | sha256(body) | body

where ``body`` is the pickled artifact.  Readers verify magic, tag and
checksum before unpickling; any failure — truncation, bit rot, a
foreign tag — raises :class:`PayloadError`, which the store translates
into *miss + evict + warning*.  Cache contents are trusted local state
(the same trust domain as the session's in-memory caches), not wire
input; the checksum defends against corruption, not attackers.

Concurrency
-----------
Safe for many threads (one connection behind a lock) and many processes
(sqlite WAL: readers never block, one writer at a time with a busy
timeout).  Writes are atomic ``INSERT OR REPLACE`` transactions, so a
reader sees either the old complete entry or the new complete one,
never a partial write; two processes warming the same key both succeed
and leave exactly one valid entry (``tests/cache/test_concurrency.py``
stress-proves this).

Eviction
--------
LRU by total payload bytes: when a put pushes the store past
``max_bytes`` (default 1 GiB, env ``REPRO_CACHE_MAX_BYTES``), least
recently *used* entries are deleted until it fits.  An artifact larger
than the whole cap is refused outright.

Recency is a **monotonic access counter**, not a wall-clock timestamp:
every hit and every store assigns ``last_used = MAX(last_used) + 1``
inside the same statement/transaction, so the ordering is a pure
function of access order — shared correctly across processes, and
immune to backwards clock steps (NTP corrections, VM suspends), which
under wall-clock recency would scramble eviction order and could evict
the hottest artifacts first.  ``created_at`` stays a wall-clock
timestamp; it is informational only and never drives eviction.

A store whose sqlite file is unreadable at open (truncated, garbage) is
moved aside and recreated cold — the cache never takes the service
down.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
import time
import warnings
from pathlib import Path

__all__ = [
    "ArtifactStore",
    "CacheIntegrityWarning",
    "PayloadError",
    "DEFAULT_MAX_BYTES",
    "ENV_CACHE_DIR",
    "ENV_MAX_BYTES",
    "CACHE_FORMAT_VERSION",
    "context_key",
    "prepared_key",
    "plan_key",
    "answers_key",
    "default_schema_tag",
    "encode_payload",
    "decode_payload",
    "open_store",
    "resolve_cache_dir",
]

#: Environment variable naming the fleet-wide cache directory; consulted
#: by every :class:`~repro.api.session.Session` that was not given an
#: explicit ``cache_dir``/``store``.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable overriding the default size cap (bytes).
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Default LRU size cap: 1 GiB of payload bytes.
DEFAULT_MAX_BYTES = 1 << 30

#: Version of the on-disk payload framing and the artifact pickle
#: schemas.  Bump on any change to what the cached artifacts contain —
#: old entries then become clean misses instead of wrong answers.
#: v2: ``last_used`` became a monotonic access counter (was wall clock).
#: v3: the ``prepared`` DP table became a list of ``(value, fold state,
#: argmin candidate)`` entries parallel to the context's blocks (was a
#: ``Block``-keyed dict of bag lists).
#: v4: the ``context`` carries its compiled candidate lists and its block
#: and separator masks, and no longer its label-level block → PMC index.
#: v5: the ``context`` has two lazy tables for checkpoint tokens (PMC
#: positions, token graph), and the checkpoints inside ``answers``
#: records are binary tokens.
#: v6: the ``context``'s separator index carries the tables of its
#: crossing rows (vertex → separators, each separator's two smallest
#: full components) and the rows built so far.
#: v7: a ``plan`` read off ``MinSep(G)`` (a non-decomposable graph's)
#: carries that list as vertex masks (``PreprocessPlan.separator_masks``).
CACHE_FORMAT_VERSION = 7

_MAGIC = b"REPROART\x01"
_DIGEST_BYTES = 32
_DB_NAME = "artifacts.sqlite"

#: Counter names reported per kind by :meth:`ArtifactStore.stats`.
_COUNTERS = ("hits", "misses", "stores", "evictions", "corrupt")


class CacheIntegrityWarning(UserWarning):
    """A cache entry (or the index itself) failed validation and was
    discarded — the operation continues as a miss."""


class PayloadError(ValueError):
    """A persisted blob failed validation (bad frame, checksum, or tag)."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        #: ``"schema"`` for a tag from a different build, ``"corrupt"``
        #: for structural damage (truncation, checksum, unpickle).
        self.reason = reason


def default_schema_tag() -> str:
    """The schema tag of this build's persisted artifacts.

    Folds in the cache format version and both checkpoint payload
    versions: artifacts embed checkpoint-adjacent structures (frontier
    bags, reduction steps), so a build that changed either serialization
    must not trust blobs from the other.
    """
    from ..api.checkpoint import CHECKPOINT_VERSION
    from ..preprocess.recompose import COMPOSED_CHECKPOINT_VERSION

    return (
        f"repro-artifacts/{CACHE_FORMAT_VERSION}"
        f"+ckpt{CHECKPOINT_VERSION}+composed{COMPOSED_CHECKPOINT_VERSION}"
    )


# ----------------------------------------------------------------------
# Versioned keys
# ----------------------------------------------------------------------
def context_key(fingerprint: str, width_bound: int | None, kernel: str) -> str:
    """Key of a cached :class:`~repro.core.context.TriangulationContext`."""
    return f"{fingerprint}|wb={width_bound}|kernel={kernel}"


def prepared_key(
    fingerprint: str, cost_spec: str, width_bound: int | None, kernel: str
) -> str:
    """Key of a cached ``(first, DP table)`` pair for one cost spec."""
    return f"{fingerprint}|cost={cost_spec}|wb={width_bound}|kernel={kernel}"


def plan_key(fingerprint: str, duplicate_sensitive: bool) -> str:
    """Key of a cached :class:`~repro.preprocess.recompose.PreprocessPlan`."""
    return f"{fingerprint}|dup={int(duplicate_sensitive)}"


def answers_key(
    fingerprint: str,
    cost_spec: str,
    width_bound: int | None,
    preprocess: bool,
) -> str:
    """Key of a cached :class:`~repro.cache.answers.AnswerPrefix`.

    ``preprocess`` is the *requested* mode (resolved against whether the
    cost composes — see :func:`repro.cache.answers.preprocess_applies_for`),
    not the plan outcome, so it is computable before any plan exists.
    No kernel: every kernel enumerates the same sequence.  The answers
    record version rides in the key: a layout change makes old prefixes
    clean misses.
    """
    from .answers import ANSWERS_VERSION

    return (
        f"{fingerprint}|cost={cost_spec}|wb={width_bound}"
        f"|pp={int(preprocess)}|av={ANSWERS_VERSION}"
    )


# ----------------------------------------------------------------------
# Payload framing
# ----------------------------------------------------------------------
def encode_payload(schema_tag: str, obj: object) -> bytes:
    """Frame ``obj`` as a self-validating blob under ``schema_tag``."""
    tag = schema_tag.encode("utf-8")
    if len(tag) > 0xFFFF:
        raise ValueError("schema tag too long")
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _MAGIC
        + len(tag).to_bytes(2, "big")
        + tag
        + hashlib.sha256(body).digest()
        + body
    )


def decode_payload(schema_tag: str, blob: bytes) -> object:
    """Validate and unpickle a blob written by :func:`encode_payload`.

    Raises
    ------
    PayloadError
        ``reason="schema"`` when the embedded tag differs from
        ``schema_tag``; ``reason="corrupt"`` for any structural failure
        (bad magic, truncation, checksum mismatch, unpicklable body).
    """
    header = len(_MAGIC) + 2
    if len(blob) < header or blob[: len(_MAGIC)] != _MAGIC:
        raise PayloadError("corrupt", "artifact blob has no valid header")
    tag_len = int.from_bytes(blob[len(_MAGIC) : header], "big")
    if len(blob) < header + tag_len + _DIGEST_BYTES:
        raise PayloadError("corrupt", "artifact blob is truncated")
    tag = blob[header : header + tag_len]
    try:
        tag_text = tag.decode("utf-8")
    except UnicodeDecodeError:
        raise PayloadError("corrupt", "artifact schema tag is undecodable") from None
    if tag_text != schema_tag:
        raise PayloadError(
            "schema",
            f"artifact was written under schema tag {tag_text!r}, "
            f"this build reads {schema_tag!r}",
        )
    digest = blob[header + tag_len : header + tag_len + _DIGEST_BYTES]
    body = blob[header + tag_len + _DIGEST_BYTES :]
    if hashlib.sha256(body).digest() != digest:
        raise PayloadError("corrupt", "artifact checksum mismatch")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise PayloadError("corrupt", f"artifact body failed to load: {exc}") from None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ArtifactStore:
    """A size-capped, LRU-evicting, corruption-tolerant artifact store.

    Parameters
    ----------
    path:
        Directory of the store (created if missing); the database lives
        at ``<path>/artifacts.sqlite``.
    max_bytes:
        LRU cap on total payload bytes (default: ``REPRO_CACHE_MAX_BYTES``
        or 1 GiB).
    schema_tag:
        Overrides :func:`default_schema_tag` — tests use this to plant
        wrong-tag entries; production code should not.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        max_bytes: int | None = None,
        schema_tag: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_MAX_BYTES, DEFAULT_MAX_BYTES))
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.schema_tag = schema_tag if schema_tag is not None else default_schema_tag()
        self._lock = threading.RLock()
        self._counters: dict[str, dict[str, int]] = {}
        self._closed = False
        self._conn = self._connect()

    # -- connection / recovery -----------------------------------------
    @property
    def db_path(self) -> Path:
        """Location of the sqlite database file."""
        return self.path / _DB_NAME

    def _connect(self) -> sqlite3.Connection:
        try:
            return self._open_db()
        except sqlite3.DatabaseError as exc:
            # A damaged index must never take the caller down: move the
            # wreck aside (diagnosable, not silently destroyed) and
            # start cold.
            warnings.warn(
                f"artifact store index {self.db_path} is unreadable ({exc}); "
                "starting with an empty cache",
                CacheIntegrityWarning,
                stacklevel=3,
            )
            wreck = self.db_path.with_name(f"{_DB_NAME}.corrupt-{os.getpid()}")
            try:
                self.db_path.replace(wreck)
            except OSError:
                pass
            for suffix in ("-wal", "-shm"):
                try:
                    Path(f"{self.db_path}{suffix}").unlink()
                except OSError:
                    pass
            return self._open_db()

    def _open_db(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.db_path,
            timeout=30.0,
            check_same_thread=False,
            isolation_level=None,  # autocommit; transactions are explicit
        )
        try:
            # Belt and braces with the connect() timeout: the busy
            # handler also covers statements issued after connect (the
            # recency bump, checkpoint writes), so a writer holding the
            # lock surfaces as a wait, not an instant
            # ``sqlite3.OperationalError: database is locked``.
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                """
                CREATE TABLE IF NOT EXISTS artifacts (
                    kind TEXT NOT NULL,
                    key TEXT NOT NULL,
                    schema_tag TEXT NOT NULL,
                    payload BLOB NOT NULL,
                    nbytes INTEGER NOT NULL,
                    created_at REAL NOT NULL,
                    last_used REAL NOT NULL,
                    PRIMARY KEY (kind, key)
                )
                """
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS artifacts_lru ON artifacts(last_used)"
            )
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _counter(self, kind: str) -> dict[str, int]:
        counters = self._counters.get(kind)
        if counters is None:
            counters = self._counters[kind] = dict.fromkeys(_COUNTERS, 0)
        return counters

    # -- core operations -----------------------------------------------
    def get(self, kind: str, key: str) -> object | None:
        """The artifact stored under ``(kind, key)``, or ``None``.

        A row that exists but fails validation — foreign schema tag,
        damaged payload — is evicted and reported as a miss, with a
        :class:`CacheIntegrityWarning`; this method never raises for
        bad cache contents.
        """
        with self._lock:
            if self._closed:
                return None
            counters = self._counter(kind)
            try:
                row = self._retry_locked(
                    lambda: self._conn.execute(
                        "SELECT schema_tag, payload FROM artifacts "
                        "WHERE kind = ? AND key = ?",
                        (kind, key),
                    ).fetchone()
                )
            except sqlite3.DatabaseError as exc:
                counters["misses"] += 1
                counters["corrupt"] += 1
                warnings.warn(
                    f"artifact store read failed for {kind}:{key}: {exc}",
                    CacheIntegrityWarning,
                    stacklevel=2,
                )
                return None
            if row is None:
                counters["misses"] += 1
                return None
            row_tag, blob = row
            try:
                if row_tag != self.schema_tag:
                    raise PayloadError(
                        "schema",
                        f"entry was written under schema tag {row_tag!r}, "
                        f"this build reads {self.schema_tag!r}",
                    )
                obj = decode_payload(self.schema_tag, blob)
            except PayloadError as exc:
                counters["misses"] += 1
                counters["corrupt"] += 1
                counters["evictions"] += 1
                self._delete_row(kind, key)
                warnings.warn(
                    f"evicting invalid cache entry {kind}:{key[:40]}… "
                    f"({exc.reason}): {exc}",
                    CacheIntegrityWarning,
                    stacklevel=2,
                )
                return None
            counters["hits"] += 1
            try:
                # Monotonic recency: the next counter value comes from the
                # table itself (one atomic statement), never the wall
                # clock — a backwards clock step must not reorder LRU.
                # Retried on lock contention, but *never* allowed to
                # raise: recency is best-effort, the hit already served.
                self._retry_locked(
                    lambda: self._conn.execute(
                        "UPDATE artifacts SET last_used = "
                        "(SELECT COALESCE(MAX(last_used), 0) + 1 FROM artifacts) "
                        "WHERE kind = ? AND key = ?",
                        (kind, key),
                    )
                )
            except sqlite3.DatabaseError:
                pass
            return obj

    @staticmethod
    def _retry_locked(op, attempts: int = 3, backoff: float = 0.01):
        """Run ``op``, retrying brief ``database is locked`` bursts.

        The 30 s ``busy_timeout`` handles writers that hold the lock;
        this covers the raced window sqlite's busy handler does not (a
        writer committing between our statement's lock probe and
        acquisition).  The final failure propagates for the caller's
        own miss/ignore policy.
        """
        for attempt in range(attempts):
            try:
                return op()
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc).lower() or attempt == attempts - 1:
                    raise
                time.sleep(backoff * (attempt + 1))

    def put(self, kind: str, key: str, obj: object) -> bool:
        """Publish an artifact; returns whether it was stored.

        Atomic: concurrent writers of the same key both succeed and the
        survivor is one complete entry.  An artifact bigger than the
        whole size cap is refused (``False``); any sqlite failure is
        contained to a warning (the fill that produced ``obj`` already
        served its caller — persistence is best-effort).
        """
        blob = encode_payload(self.schema_tag, obj)
        if len(blob) > self.max_bytes:
            return False
        now = time.time()
        with self._lock:
            if self._closed:
                return False
            counters = self._counter(kind)
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    # last_used is the monotonic access counter (see the
                    # module docstring): MAX + 1 inside this transaction,
                    # so a fresh store counts as the most recent access
                    # even when the wall clock stepped backwards.
                    self._conn.execute(
                        "INSERT OR REPLACE INTO artifacts "
                        "(kind, key, schema_tag, payload, nbytes, created_at, "
                        "last_used) VALUES (?, ?, ?, ?, ?, ?, "
                        "(SELECT COALESCE(MAX(last_used), 0) + 1 FROM artifacts))",
                        (kind, key, self.schema_tag, blob, len(blob), now),
                    )
                    self._evict_over_cap(keep=(kind, key))
                    self._conn.execute("COMMIT")
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
            except sqlite3.DatabaseError as exc:
                warnings.warn(
                    f"artifact store write failed for {kind}:{key[:40]}…: {exc}",
                    CacheIntegrityWarning,
                    stacklevel=2,
                )
                return False
            counters["stores"] += 1
            return True

    def _evict_over_cap(self, keep: tuple[str, str]) -> None:
        """Delete LRU entries until total bytes fit the cap (in-txn)."""
        (total,) = self._conn.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM artifacts"
        ).fetchone()
        while total > self.max_bytes:
            row = self._conn.execute(
                "SELECT kind, key, nbytes FROM artifacts "
                "WHERE NOT (kind = ? AND key = ?) "
                "ORDER BY last_used ASC, kind ASC, key ASC LIMIT 1",
                keep,
            ).fetchone()
            if row is None:
                break  # only the just-written entry remains
            victim_kind, victim_key, nbytes = row
            self._conn.execute(
                "DELETE FROM artifacts WHERE kind = ? AND key = ?",
                (victim_kind, victim_key),
            )
            self._counter(victim_kind)["evictions"] += 1
            total -= nbytes

    def _delete_row(self, kind: str, key: str) -> None:
        try:
            self._conn.execute(
                "DELETE FROM artifacts WHERE kind = ? AND key = ?", (kind, key)
            )
        except sqlite3.DatabaseError:
            pass

    def delete(self, kind: str, key: str) -> None:
        """Drop one entry (missing is fine)."""
        with self._lock:
            if not self._closed:
                self._delete_row(kind, key)

    def clear(self, kind: str | None = None) -> int:
        """Delete every entry (of ``kind``, when given); returns the count."""
        with self._lock:
            if self._closed:
                return 0
            if kind is None:
                cursor = self._conn.execute("DELETE FROM artifacts")
            else:
                cursor = self._conn.execute(
                    "DELETE FROM artifacts WHERE kind = ?", (kind,)
                )
            return cursor.rowcount

    # -- observability ---------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe store statistics.

        ``kinds`` maps each artifact kind to its counters — ``hits`` /
        ``misses`` / ``stores`` / ``evictions`` / ``corrupt`` are this
        process's session counters; ``entries`` / ``bytes`` are the
        current on-disk truth shared by every process on the directory.
        """
        with self._lock:
            if self._closed:
                rows = []
            else:
                try:
                    rows = self._conn.execute(
                        "SELECT kind, COUNT(*), COALESCE(SUM(nbytes), 0) "
                        "FROM artifacts GROUP BY kind"
                    ).fetchall()
                except sqlite3.DatabaseError:
                    rows = []
            on_disk = {kind: (count, nbytes) for kind, count, nbytes in rows}
            kinds = {}
            for kind in sorted(set(on_disk) | set(self._counters)):
                count, nbytes = on_disk.get(kind, (0, 0))
                entry = dict(self._counter(kind))
                entry["entries"] = count
                entry["bytes"] = nbytes
                kinds[kind] = entry
            return {
                "path": str(self.path),
                "schema_tag": self.schema_tag,
                "max_bytes": self.max_bytes,
                "entries": sum(c for c, _b in on_disk.values()),
                "total_bytes": sum(b for _c, b in on_disk.values()),
                "kinds": kinds,
            }

    def close(self) -> None:
        """Close the database connection.  Idempotent."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Resolution helpers
# ----------------------------------------------------------------------
def resolve_cache_dir(cache_dir: "str | os.PathLike[str] | None" = None) -> Path | None:
    """The effective cache directory: the argument, else ``REPRO_CACHE_DIR``,
    else ``None`` (caching disabled)."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


def open_store(
    cache_dir: "str | os.PathLike[str] | None" = None, **kwargs: object
) -> ArtifactStore | None:
    """An :class:`ArtifactStore` on the resolved directory, or ``None``
    when no directory is configured (argument or environment)."""
    path = resolve_cache_dir(cache_dir)
    if path is None:
        return None
    return ArtifactStore(path, **kwargs)
