"""The cold/warm byte-identity gate (ISSUE 7 acceptance).

For every covered corpus entry the answer stream produced by a session
that just *filled* the cache must be byte-for-byte identical to the one
produced by a session that *reads* it back — across both pipelines and
both cost specs.  CI runs the same gate over the full golden corpus by
regenerating it twice against one ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.cache import ArtifactStore
from tests.core.test_golden import GRAPHS, MODES, TOP_K, serialize_sequence
from tests.preprocess.test_plan_shortcut import count_calls

# A representative slice of the corpus: random, structured, and
# decomposition-friendly instances.  The full sweep runs in CI.
CASES = ("gnp-n10-p0.35-a", "grid-4x4", "bowtie-k4", "ring-of-c5")
#: Two of the golden corpus's costs.  ``lex-width-fill`` never
#: preprocesses, so it stores no plan for the stored-plans gate to read;
#: CI's full sweep covers all four.
COST_SPECS = ("width", "fill")


def _run(name, cost, mode, cache_dir):
    factory, _decoder = GRAPHS[name]
    with Session(cache_dir=cache_dir, preprocess=(mode == "preprocess")) as session:
        response = session.top(factory(), cost, k=TOP_K)
        disk = session.cache_info().get("disk", {})
    return json.dumps(serialize_sequence(response.results)), disk


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cost", COST_SPECS)
@pytest.mark.parametrize("name", CASES)
def test_cold_equals_warm_bytes(tmp_path, name, cost, mode):
    cache_dir = tmp_path / "cache"
    cold, _ = _run(name, cost, mode, cache_dir)
    warm, disk = _run(name, cost, mode, cache_dir)
    assert warm == cold
    # The warm leg really came from disk, not from a silent rebuild:
    # the whole request replayed from the cached answer prefix.
    assert disk["kinds"]["answers"]["hits"] >= 1
    hits = sum(k["hits"] for k in disk["kinds"].values())
    assert hits >= 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cost", COST_SPECS)
@pytest.mark.parametrize("name", CASES)
def test_stored_plans_only_equal_cold_bytes(tmp_path, monkeypatch, name, cost, mode):
    """With only the plans left in the store, every request reads its
    plan from disk and builds the rest: a stored plan routes to the
    direct or the composed stream as a fresh one does, and a
    non-decomposable graph's plan still hands its separators to the
    context build."""
    cache_dir = tmp_path / "cache"
    cold, _ = _run(name, cost, mode, cache_dir)
    with ArtifactStore(cache_dir) as store:
        for kind in ("context", "prepared", "answers"):
            store.clear(kind)
    listings = count_calls(monkeypatch, "minimal_separator_masks")
    plans, disk = _run(name, cost, mode, cache_dir)
    assert plans == cold
    if mode == "preprocess":
        assert disk["kinds"]["plan"]["hits"] >= 1
        factory, _decoder = GRAPHS[name]
        if Session().plan_for(factory()).separator_masks is not None:
            assert listings == []


#: The extension gate triples the enumeration work per case, so it runs
#: on one random and one decomposition-friendly instance.
EXTENSION_CASES = ("gnp-n10-p0.35-a", "ring-of-c5")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cost", COST_SPECS)
@pytest.mark.parametrize("name", EXTENSION_CASES)
def test_prefix_extension_equals_straight_run(tmp_path, name, cost, mode):
    """k=5 then k=20 against one cache dir equals a straight k=20.

    The second leg replays the stored 5-answer head and resumes live
    from the stored frontier; the spliced sequence must be identical to
    an uncached run, and the extended prefix must then serve a third
    request entirely from disk.
    """
    factory, _decoder = GRAPHS[name]
    preprocess = mode == "preprocess"
    with Session(preprocess=preprocess) as plain:
        reference = plain.top(factory(), cost, k=20)
    cache_dir = tmp_path / "cache"

    def run(k):
        with Session(cache_dir=cache_dir, preprocess=preprocess) as session:
            response = session.top(factory(), cost, k=k)
        return response

    run(5)
    extended = run(20)
    assert json.dumps(serialize_sequence(extended.results)) == json.dumps(
        serialize_sequence(reference.results)
    )
    replay = run(20)
    assert replay.stats.engine == "cache"
    assert json.dumps(serialize_sequence(replay.results)) == json.dumps(
        serialize_sequence(reference.results)
    )


def test_warm_leg_matches_plain_session(tmp_path):
    """The cache must be invisible: a warm read equals a cache-less run."""
    name, cost = "gnp-n10-p0.35-a", "fill"
    cache_dir = tmp_path / "cache"
    _run(name, cost, "preprocess", cache_dir)
    warm, _ = _run(name, cost, "preprocess", cache_dir)
    factory, _decoder = GRAPHS[name]
    with Session() as plain:
        response = plain.top(factory(), cost, k=TOP_K)
    assert warm == json.dumps(serialize_sequence(response.results))
