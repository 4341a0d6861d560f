"""The cache must survive a ``repro serve`` restart (ISSUE 7 acceptance).

A server pointed at a cache directory, stopped, and started again must
answer its first request from disk — byte-identically to the first
run's answers and with the stats op reporting disk hits, on both
execution backends.
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import connected_erdos_renyi, ring_of_cycles
from repro.service import ServerThread, ServiceClient

#: Both a direct instance and one that routes through the preprocessing
#: pipeline (composed stream → plan + per-atom artifacts).
WORKLOADS = [
    ("gnp", lambda: connected_erdos_renyi(10, 0.35, seed=0), "fill"),
    ("ring", lambda: ring_of_cycles(2, 5), "width"),
]

K = 6


def _run_once(cache_dir, backend):
    """One server lifetime: submit every workload, return raw answer
    lines per workload plus the aggregated disk-cache stats."""
    with ServerThread(backend=backend, cache_dir=str(cache_dir)) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        lines = {}
        for name, factory, cost in WORKLOADS:
            result = client.top(factory(), cost, k=K)
            lines[name] = list(result.answer_lines)
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()
    return lines, stats.cache


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_cache_survives_server_restart(tmp_path, backend):
    cache_dir = tmp_path / "cache"

    cold_lines, cold_cache = _run_once(cache_dir, backend)
    assert cold_cache.get("enabled") is True
    cold_kinds = cold_cache["kinds"]
    for kind in ("context", "prepared", "plan", "answers"):
        assert cold_kinds[kind]["stores"] >= 1, kind

    # A brand-new server process tree against the same directory: every
    # job is satisfied from the cached answer prefixes, and the bytes on
    # the wire are identical.  The init kinds are not even consulted —
    # the scheduler serves covered jobs before a worker seat exists.
    warm_lines, warm_cache = _run_once(cache_dir, backend)
    assert warm_lines == cold_lines
    warm_kinds = warm_cache["kinds"]
    assert warm_kinds["answers"]["hits"] >= len(WORKLOADS)
    for kind in ("answers", "context", "prepared", "plan"):
        assert warm_kinds[kind]["stores"] == 0, kind
        assert warm_kinds[kind]["misses"] == 0, kind


def test_cacheless_server_reports_disabled():
    with ServerThread(workers=1) as handle:
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()
    assert stats.cache.get("enabled") is False
