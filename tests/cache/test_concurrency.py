"""Multi-process safety of the artifact store (ISSUE 7 satellite).

Two processes racing to warm the same key must both succeed — last
writer wins — and readers must only ever observe complete, decodable
entries. Worker functions live at module level so the ``spawn`` start
method can import them.
"""

from __future__ import annotations

import multiprocessing
import sqlite3

from repro.cache import ArtifactStore
from repro.cache.store import decode_payload

TAG = "concurrency-test"


def _write_same_key(path, barrier, label, out):
    store = ArtifactStore(path, schema_tag=TAG)
    try:
        barrier.wait(timeout=30)
        ok = store.put("prepared", "shared-key", {"writer": label, "table": list(range(200))})
        out.put((label, bool(ok)))
    finally:
        store.close()


def _write_many_keys(path, barrier, label, count, out):
    store = ArtifactStore(path, schema_tag=TAG)
    try:
        barrier.wait(timeout=30)
        written = 0
        for i in range(count):
            if store.put("context", f"{label}-{i}", {"writer": label, "i": i}):
                written += 1
        out.put((label, written))
    finally:
        store.close()


def _read_loop(path, barrier, label, rounds, out):
    """Hammer ``get`` on one hot key; every hit bumps recency (a write)."""
    store = ArtifactStore(path, schema_tag=TAG)
    try:
        barrier.wait(timeout=30)
        hits = 0
        for _ in range(rounds):
            value = store.get("context", "hot-key")
            if value == {"payload": "hot"}:
                hits += 1
        out.put((label, hits))
    finally:
        store.close()


def _churn_writes(path, barrier, rounds, out):
    store = ArtifactStore(path, schema_tag=TAG)
    try:
        barrier.wait(timeout=30)
        written = 0
        for i in range(rounds):
            if store.put("prepared", f"churn-{i}", {"i": i}):
                written += 1
        out.put(("writer", written))
    finally:
        store.close()


def test_concurrent_readers_survive_recency_contention(tmp_path):
    """ISSUE 9 satellite: the per-hit recency bump is an UPDATE, so
    concurrent multi-process readers (plus a churning writer) contend on
    the sqlite write lock.  A busy/locked error on the bump must never
    surface — not as a raised ``sqlite3.OperationalError`` and not as a
    hit silently turned into a miss."""
    ctx = multiprocessing.get_context("spawn")
    path = tmp_path / "c"
    with ArtifactStore(path, schema_tag=TAG) as seed:
        assert seed.put("context", "hot-key", {"payload": "hot"})
    readers = 3
    rounds = 60
    barrier = ctx.Barrier(readers + 1)
    out = ctx.Queue()
    procs = [
        ctx.Process(
            target=_read_loop, args=(path, barrier, f"r{i}", rounds, out)
        )
        for i in range(readers)
    ]
    procs.append(
        ctx.Process(target=_churn_writes, args=(path, barrier, rounds, out))
    )
    for p in procs:
        p.start()
    results = dict(out.get(timeout=120) for _ in procs)
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    for i in range(readers):
        assert results[f"r{i}"] == rounds
    assert results["writer"] == rounds


def test_two_processes_warming_same_key(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    path = tmp_path / "c"
    # Create the database up front so the racing children contend on
    # writes, not on schema creation.
    ArtifactStore(path, schema_tag=TAG).close()
    barrier = ctx.Barrier(2)
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_write_same_key, args=(path, barrier, name, out))
        for name in ("alpha", "beta")
    ]
    for p in procs:
        p.start()
    results = dict(out.get(timeout=60) for _ in procs)
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    # Both writers must report success...
    assert results == {"alpha": True, "beta": True}
    # ...and exactly one complete, decodable entry survives.
    conn = sqlite3.connect(path / "artifacts.sqlite")
    try:
        rows = conn.execute(
            "SELECT schema_tag, payload FROM artifacts WHERE kind = 'prepared'"
        ).fetchall()
    finally:
        conn.close()
    assert len(rows) == 1
    tag, blob = rows[0]
    assert tag == TAG
    value = decode_payload(TAG, blob)
    assert value["writer"] in {"alpha", "beta"}
    assert value["table"] == list(range(200))
    with ArtifactStore(path, schema_tag=TAG) as store:
        assert store.get("prepared", "shared-key") == value


def test_concurrent_writers_distinct_keys(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    path = tmp_path / "c"
    ArtifactStore(path, schema_tag=TAG).close()
    count = 20
    barrier = ctx.Barrier(2)
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_write_many_keys, args=(path, barrier, name, count, out))
        for name in ("alpha", "beta")
    ]
    for p in procs:
        p.start()
    results = dict(out.get(timeout=120) for _ in procs)
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert results == {"alpha": count, "beta": count}
    with ArtifactStore(path, schema_tag=TAG) as store:
        assert store.stats()["kinds"]["context"]["entries"] == 2 * count
        for label in ("alpha", "beta"):
            for i in range(count):
                assert store.get("context", f"{label}-{i}") == {
                    "writer": label,
                    "i": i,
                }
