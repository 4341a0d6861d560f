"""The reference answers every request is checked against, and the pins.

The oracle is a ``sets``-kernel :class:`~repro.api.Session` — the
label-level reference kernel — run with the same pipeline settings as
the measured request, outside the timed phase and outside ``setup_s``.
Answers are compared as the service's canonical ``answer`` frame bytes
(``serialize_answers``), so library and wire answers share one check.

For the default seed the digest of each workload's full answer sequence
is pinned in ``digests.json``: a change that alters answers under every
kernel at once (and so fools the oracle) still fails there.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker

from repro.api import Session
from repro.service.protocol import serialize_answers

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def ranked_prefix(session: Session, graph, cost: str, n: int, width_bound=None) -> list[bytes]:
    """The first ``n`` answers of one uninterrupted stream, as frame bytes."""
    stream = session.stream(graph, cost, width_bound=width_bound)
    try:
        results = []
        for result in stream:
            results.append(result)
            if len(results) >= n:
                break
    finally:
        stream.close()
    return serialize_answers(results)


#: ``(kind, graph, cost, n, width_bound)``: ``kind`` is ``"ranked"`` (the
#: first ``n`` answers of a stream) or ``"decompositions"`` (``n`` trees).
OracleTask = tuple

_worker_session: Session | None = None


def _start_worker() -> None:
    global _worker_session
    _worker_session = Session(kernel="sets")


def _solve(task: OracleTask) -> list[bytes]:
    kind, graph, cost, n, width_bound = task
    if kind == "decompositions":
        return serialize_answers(_worker_session.decompositions(graph, cost, k=n).results)
    return ranked_prefix(_worker_session, graph, cost, n, width_bound)


def oracle_answers(tasks: list[OracleTask]) -> list[list[bytes]]:
    """Reference answer bytes of every task, one process per core.

    The oracle runs after the timed phase, so it may use every core; the
    pool is shut down (and its processes joined) before this returns.
    """
    workers = min(os.cpu_count() or 1, max(1, len(tasks)))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_start_worker,
    ) as pool:
        answers = list(pool.map(_solve, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    # The spawn pool started multiprocessing's resource tracker; stop and
    # reap it too, so no process of the run outlives it.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    return answers


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def digest_key(workload: str, seed: int, seconds: int, tiny: bool) -> str:
    """The tiny self-test size ignores ``--seconds``."""
    return f"{workload}:seed={seed}:" + ("tiny" if tiny else f"seconds={seconds}")


def check_digest(key: str, value: str) -> bool | None:
    """Compare with the pinned digest (``None`` when none is pinned).

    To re-pin after an intended answer change, copy the digest the run
    prints into ``digests.json``.
    """
    with open(DIGESTS) as fh:
        pins = json.load(fh)
    if key not in pins:
        return None
    return pins[key] == value


def corrupt(lines: list[bytes]) -> list[bytes]:
    """``lines`` with the first answer altered: the self-test's proof
    that a wrong answer is counted."""
    if not lines:
        return lines
    return [lines[0].replace(b'"rank"', b'"rank" ', 1)] + lines[1:]


def pin(report, workload: str, args, chunks) -> None:
    """Compare the digest of ``chunks`` (answer bytes) with the pin."""
    key = digest_key(workload, args.seed, args.seconds, args.tiny)
    value = digest(chunks)
    verdict = check_digest(key, value)
    shown = {True: "matches pin", False: "DIFFERS from pin", None: "(no pin)"}[verdict]
    report.note(f"answer digest {key} {value} {shown}")
    if verdict is False:
        report.fail(f"{key}: answer digest differs from the pinned one")
