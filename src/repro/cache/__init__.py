"""``repro.cache`` — the persistent on-disk artifact store.

Every expensive artifact of the reproduction is a deterministic function
of content-addressed inputs: a
:class:`~repro.core.context.TriangulationContext` of the graph
fingerprint (plus width bound and kernel), a prepared DP table of the
context and a cost spec, a :class:`~repro.preprocess.recompose
.PreprocessPlan` of the graph and a duplicate-sensitivity flag — and,
since the ranked sequence itself is deterministic, the enumerated
*answers*: :class:`~repro.cache.answers.AnswerPrefix` records hold the
first k results plus the frontier checkpoint at k, so repeat requests
replay from disk and longer requests resume mid-sequence.  The session
layer and the service scheduler both reach those records through one
:class:`~repro.cache.answers.AnswerCache`.  The
session layer already caches the first three in memory — this package makes
those caches survive the process: a single sqlite-backed
:class:`~repro.cache.store.ArtifactStore` shared by every session (and
every ``repro serve`` worker process) pointed at the same directory, so
a restarted fleet pays each enumeration's initialization once,
fleet-wide.

Wiring:

* ``Session(cache_dir=...)`` opens a handle on the directory's one
  sqlite file (every session on the directory shares it); without it,
  the ``REPRO_CACHE_DIR`` environment variable is consulted, so an
  exported variable warms every session in the fleet (CLI runs, service
  workers, benchmarks) without code changes.
* ``repro serve --cache-dir`` / ``EnumerationScheduler(cache_dir=...)``
  hand one directory to every worker seat.
* ``repro cache stats | warm | clear`` is the operational surface.

Correctness is differential: answers served from a warm store are
byte-identical to cold runs (the golden-drift CI job runs the corpus
cold and warm against one cache directory and requires identity).  A
stale, corrupted or foreign-schema entry is never trusted: every blob
embeds a schema tag and a checksum, and anything that fails validation
is treated as a miss and evicted — never a crash (see
:mod:`repro.cache.store`).
"""

from __future__ import annotations

from .answers import (
    ANSWERS_VERSION,
    MAX_PREFIX,
    AnswerCache,
    AnswerPage,
    AnswerPrefix,
    CachedAnswer,
    merge_prefix,
)
from .store import (
    ArtifactStore,
    CacheIntegrityWarning,
    DEFAULT_MAX_BYTES,
    ENV_CACHE_DIR,
    ENV_MAX_BYTES,
    answers_key,
    context_key,
    default_schema_tag,
    open_store,
    plan_key,
    prepared_key,
    resolve_cache_dir,
)
from .warm import WarmReport, warm_graphs

__all__ = [
    "ANSWERS_VERSION",
    "AnswerCache",
    "AnswerPage",
    "AnswerPrefix",
    "ArtifactStore",
    "CacheIntegrityWarning",
    "CachedAnswer",
    "DEFAULT_MAX_BYTES",
    "ENV_CACHE_DIR",
    "ENV_MAX_BYTES",
    "MAX_PREFIX",
    "WarmReport",
    "answers_key",
    "context_key",
    "default_schema_tag",
    "merge_prefix",
    "open_store",
    "plan_key",
    "prepared_key",
    "resolve_cache_dir",
    "warm_graphs",
]
