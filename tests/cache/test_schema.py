"""Schema versioning of persisted blobs (ISSUE 7 satellite).

Every persisted artifact embeds a schema tag and a checksum; a loader
handed a blob from a different build — or a blob damaged on disk — must
treat it as a clean miss with a warning and evict it, never crash and
never deserialize it into wrong answers.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cache import ArtifactStore, CacheIntegrityWarning, default_schema_tag
from repro.cache.store import PayloadError, decode_payload, encode_payload


def test_default_schema_tag_folds_in_payload_versions():
    from repro.api.checkpoint import CHECKPOINT_VERSION
    from repro.preprocess.recompose import COMPOSED_CHECKPOINT_VERSION

    tag = default_schema_tag()
    assert f"ckpt{CHECKPOINT_VERSION}" in tag
    assert f"composed{COMPOSED_CHECKPOINT_VERSION}" in tag


def test_payload_roundtrip():
    blob = encode_payload("tag-a", {"x": [1, 2]})
    assert decode_payload("tag-a", blob) == {"x": [1, 2]}


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda b: b"junk" + b[4:], "corrupt"),  # bad magic
        (lambda b: b[: len(b) // 2], "corrupt"),  # truncated
        (lambda b: b[:-3] + bytes(3), "corrupt"),  # body bit rot
        (lambda b: b, "schema"),  # decoded under another tag (below)
    ],
)
def test_decode_rejects_damage(mutate, reason):
    blob = mutate(encode_payload("tag-a", "value"))
    read_tag = "tag-a" if reason == "corrupt" else "tag-b"
    with pytest.raises(PayloadError) as excinfo:
        decode_payload(read_tag, blob)
    assert excinfo.value.reason == reason


def test_wrong_tag_entry_is_miss_plus_eviction(tmp_path):
    path = tmp_path / "c"
    with ArtifactStore(path, schema_tag="old-build") as old:
        old.put("context", "k", "stale-artifact")
    new = ArtifactStore(path, schema_tag="new-build")
    try:
        with pytest.warns(CacheIntegrityWarning, match="schema"):
            assert new.get("context", "k") is None
        counters = new.stats()["kinds"]["context"]
        assert counters["misses"] == 1
        assert counters["corrupt"] == 1
        assert counters["evictions"] == 1
        # The bad row is gone: the next read is a plain quiet miss.
        assert new.get("context", "k") is None
        assert new.stats()["kinds"]["context"]["corrupt"] == 1
    finally:
        new.close()


def test_hand_corrupted_payload_is_miss_plus_eviction(tmp_path):
    path = tmp_path / "c"
    store = ArtifactStore(path, schema_tag="t")
    try:
        store.put("prepared", "k", {"big": list(range(100))})
        # Flip bytes in the stored blob body behind the store's back,
        # as disk corruption would.
        conn = sqlite3.connect(store.db_path)
        try:
            (blob,) = conn.execute(
                "SELECT payload FROM artifacts WHERE key = 'k'"
            ).fetchone()
            damaged = blob[:-20] + bytes(20)
            conn.execute(
                "UPDATE artifacts SET payload = ? WHERE key = 'k'", (damaged,)
            )
            conn.commit()
        finally:
            conn.close()
        with pytest.warns(CacheIntegrityWarning, match="corrupt"):
            assert store.get("prepared", "k") is None
        assert store.stats()["kinds"]["prepared"]["entries"] == 0
    finally:
        store.close()


def test_session_falls_back_to_build_on_wrong_tag(tmp_path):
    """A cache full of foreign-schema blobs must not poison a session:
    every read is a miss, the session rebuilds, and answers match a
    cache-less run."""
    from repro.api import Session
    from repro.graphs.generators import connected_erdos_renyi

    graph = connected_erdos_renyi(9, 0.4, seed=5)
    plain = Session()
    expected = plain.top(graph, "fill", k=8)
    plain.close()

    path = tmp_path / "c"
    warm = Session(cache_dir=path)
    warm.top(graph, "fill", k=8)
    warm.close()

    stale = ArtifactStore(path, schema_tag="a-different-build")
    session = Session(store=stale)
    try:
        with pytest.warns(CacheIntegrityWarning):
            response = session.top(graph, "fill", k=8)
        assert [r.cost for r in response.results] == [
            r.cost for r in expected.results
        ]
        assert session.cache_info()["builds"] >= 1
    finally:
        session.close()
        stale.close()


def _parent_shaped_table(context, table):
    """The DP table as format-2 builds stored it: a ``Block``-keyed dict
    of ``(bag list or None, value)``."""
    from repro.core.mintriang import _rebuild_bags

    per_block, _root = context.candidates()
    shaped = {}
    for position, (value, _state, index) in enumerate(table):
        bags = (
            _rebuild_bags(per_block[position][index], per_block, table)
            if index >= 0
            else None
        )
        shaped[context.blocks[position]] = (bags, value)
    return shaped


@pytest.mark.parametrize("name", ["petersen", "grid-3x4"])
def test_format_2_prepared_table_reads_as_clean_miss(tmp_path, name):
    """A store filled by a format-2 build holds ``prepared`` tables this
    build's DP cannot read (``Block``-keyed dicts where it indexes a
    list); the format bump turns them into misses, and the answers equal
    an uncached session's."""
    from repro.api import Session
    from repro.api.fingerprint import graph_fingerprint
    from repro.cache.store import CACHE_FORMAT_VERSION, context_key, prepared_key
    from repro.core.context import TriangulationContext
    from repro.core.mintriang import constrained_min_bags, min_triangulation_and_table
    from repro.costs.classic import FillInCost
    from repro.graphs.generators import grid_graph, petersen_graph

    graph = {"petersen": petersen_graph, "grid-3x4": lambda: grid_graph(3, 4)}[name]()
    plain = Session(kernel="bitset", preprocess=False)
    expected = plain.top(graph, "fill", k=12)
    plain.close()

    context = TriangulationContext.build(graph, kernel="bitset")
    first, table = min_triangulation_and_table(context, FillInCost())
    parent_table = _parent_shaped_table(context, table)
    separator = next(iter(first.minimal_separators))
    with pytest.raises((KeyError, TypeError)):
        # What reading it would do: the constrained DP cannot use it.
        constrained_min_bags(
            context,
            FillInCost(),
            parent_table,
            0,
            context.separator_index().mask_of([separator]),
        )

    current = default_schema_tag()
    format_2 = current.replace(
        f"repro-artifacts/{CACHE_FORMAT_VERSION}", "repro-artifacts/2"
    )
    assert format_2 != current
    path = tmp_path / "c"
    fp = graph_fingerprint(graph)
    with ArtifactStore(path, schema_tag=format_2) as parent:
        parent.put("context", context_key(fp, None, "bitset"), context)
        parent.put(
            "prepared",
            prepared_key(fp, "fill", None, "bitset"),
            (first, parent_table),
        )

    session = Session(kernel="bitset", preprocess=False, cache_dir=path)
    try:
        with pytest.warns(CacheIntegrityWarning, match="schema"):
            response = session.top(graph, "fill", k=12)
        kinds = session.cache_info()["disk"]["kinds"]
        assert kinds["prepared"]["misses"] == 1
        assert kinds["prepared"]["corrupt"] == 1
        assert kinds["context"]["corrupt"] == 1
    finally:
        session.close()
    assert [(r.cost, r.triangulation.bags) for r in response.results] == [
        (r.cost, r.triangulation.bags) for r in expected.results
    ]


#: Field names of the persisted context under ``CACHE_FORMAT_VERSION``.
PERSISTED_SHAPE = (
    5,
    (
        "graph",
        "separators",
        "pmcs",
        "block_masks",
        "separator_masks",
        "indexer",
        "_pmc_order",
        "_candidates",
        "width_bound",
        "init_seconds",
        "kernel",
        "_blocks",
        "_block_subgraphs",
        "_separator_index",
        "_pmc_positions",
        "_token_graph",
    ),
    ("separators", "bits", "blocks", "pmcs", "candidates"),
)


def test_persisted_context_shape_is_pinned_to_the_format_version():
    """Contexts are pickled into the store, so a change to their fields
    must come with a format bump, or another build's entries load into
    objects this build cannot use."""
    from dataclasses import fields

    from repro.cache.store import CACHE_FORMAT_VERSION
    from repro.core.context import SeparatorIndex, TriangulationContext

    shape = (
        CACHE_FORMAT_VERSION,
        tuple(f.name for f in fields(TriangulationContext)),
        tuple(f.name for f in fields(SeparatorIndex)),
    )
    assert shape == PERSISTED_SHAPE, (
        "TriangulationContext or SeparatorIndex changed shape, so contexts "
        "persisted by other builds no longer load. Bump CACHE_FORMAT_VERSION "
        "in repro/cache/store.py (with a line in its comment), then update "
        "PERSISTED_SHAPE here."
    )


def _format_3_context(context):
    """``context`` as format-3 builds pickled it: label-level ``blocks``
    and ``pmc_index`` fields and a ``bitgraph``, with the candidate lists
    left to the first DP run."""
    from repro.core.context import TriangulationContext
    from repro.graphs.bitgraph import BitGraph

    per_block, _root = context.candidates()
    shaped = object.__new__(TriangulationContext)
    shaped.__dict__.update(
        graph=context.graph,
        separators=context.separators,
        pmcs=context.pmcs,
        blocks=context.blocks,
        pmc_index={
            block: [omega for omega, *_rest in candidates]
            for block, candidates in zip(context.blocks, per_block)
        },
        width_bound=context.width_bound,
        init_seconds=context.init_seconds,
        kernel=context.kernel,
        indexer=context.indexer,
        bitgraph=BitGraph.from_graph(context.graph, context.indexer),
        _pmc_order=context.root_pmc_order(),
        _block_subgraphs={},
        _children_cache={},
        _candidates=None,
        _separator_index=None,
    )
    return shaped


@pytest.mark.parametrize("name", ["petersen", "grid-3x4"])
def test_format_3_context_reads_as_clean_miss(tmp_path, name):
    """A store filled by a format-3 build holds contexts without the
    compiled lists this build's DP reads; the format bump turns them into
    misses, and the answers equal an uncached session's."""
    from repro.api import Session
    from repro.api.fingerprint import graph_fingerprint
    from repro.cache.store import CACHE_FORMAT_VERSION, context_key
    from repro.core.context import TriangulationContext
    from repro.core.mintriang import min_triangulation_and_table
    from repro.costs.classic import FillInCost
    from repro.graphs.generators import grid_graph, petersen_graph

    graph = {"petersen": petersen_graph, "grid-3x4": lambda: grid_graph(3, 4)}[name]()
    plain = Session(kernel="bitset", preprocess=False)
    expected = plain.top(graph, "fill", k=12)
    plain.close()

    parent_context = _format_3_context(TriangulationContext.build(graph, kernel="bitset"))
    with pytest.raises((AttributeError, TypeError)):
        # What reading it would do: the DP finds no compiled lists.
        min_triangulation_and_table(parent_context, FillInCost())

    current = default_schema_tag()
    format_3 = current.replace(
        f"repro-artifacts/{CACHE_FORMAT_VERSION}", "repro-artifacts/3"
    )
    assert format_3 != current
    path = tmp_path / "c"
    with ArtifactStore(path, schema_tag=format_3) as parent:
        parent.put(
            "context", context_key(graph_fingerprint(graph), None, "bitset"), parent_context
        )

    session = Session(kernel="bitset", preprocess=False, cache_dir=path)
    try:
        with pytest.warns(CacheIntegrityWarning, match="schema"):
            response = session.top(graph, "fill", k=12)
        kinds = session.cache_info()["disk"]["kinds"]
        assert kinds["context"]["misses"] == 1
        assert kinds["context"]["corrupt"] == 1
        assert session.cache_info()["builds"] == 1
    finally:
        session.close()
    assert [(r.cost, r.triangulation.bags) for r in response.results] == [
        (r.cost, r.triangulation.bags) for r in expected.results
    ]


def test_warm_context_load_carries_the_compile(tmp_path):
    """The persisted context holds its candidate lists: a warm session
    loads it without building or compiling anything."""
    from repro.api import Session
    from repro.core.context import TriangulationContext
    from repro.graphs.generators import queen_graph

    graph = queen_graph(4, 4)
    fresh = TriangulationContext.build(graph, kernel="bitset")
    path = tmp_path / "c"
    with Session(kernel="bitset", preprocess=False, cache_dir=path) as cold:
        cold.context(graph)
    with Session(kernel="bitset", preprocess=False, cache_dir=path) as warm:
        loaded = warm.context(graph)
        assert warm.cache_info()["builds"] == 0
        assert loaded.candidates() == fresh.candidates()
        assert loaded.block_masks == fresh.block_masks
        assert loaded._blocks is None
