"""Scheduler-level tests: fairness, budgets, deadlines, cancellation.

These drive :class:`~repro.service.scheduler.EnumerationScheduler`
directly inside ``asyncio.run`` — no sockets — so the concurrency
semantics are tested apart from the transport.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.api import Session
from repro.graphs.generators import (
    connected_erdos_renyi,
    grid_graph,
    paper_example_graph,
)
from repro.graphs.graph import Graph
from repro.service.protocol import ServiceRequest, serialize_answers
from repro.service.scheduler import EnumerationScheduler


def run(coro):
    return asyncio.run(coro)


def answers_of(frames):
    return [f for f in frames if f["type"] == "answer"]


def serial_lines(graph, cost, k, kernel="bitset"):
    """The reference: frame bytes of a serial ``Session.stream`` run."""
    session = Session(kernel=kernel)
    stream = session.stream(graph, cost)
    try:
        results = list(itertools.islice(stream, k))
    finally:
        stream.close()
    return serialize_answers(results)


def job_lines(frames):
    from repro.service.protocol import encode_frame

    return [encode_frame(f) for f in answers_of(frames)]


class TestBasicServing:
    def test_top_job_matches_serial_stream(self):
        graph = connected_erdos_renyi(10, 0.35, seed=0)

        async def main():
            scheduler = EnumerationScheduler(workers=2)
            job = await scheduler.submit(
                ServiceRequest(op="top", graph=graph, cost="fill", k=8)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "stats"
        assert job_lines(frames) == serial_lines(graph, "fill", 8)
        assert frames[-1]["checkpoint"] is not None
        assert frames[-1]["next_rank"] == len(frames) - 1

    def test_enumerate_drains_to_exhaustion(self):
        graph = paper_example_graph()

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        stats = frames[-1]
        assert stats["type"] == "stats"
        assert stats["exhausted"] is True
        assert stats["emitted"] == len(answers_of(frames))
        assert stats["checkpoint"] is None  # nothing left to resume

    def test_sets_kernel_jobs_match_bitset_jobs(self):
        graph = connected_erdos_renyi(9, 0.4, seed=3)

        async def main(kernel):
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(
                    op="top", graph=graph, cost="width", k=6, kernel=kernel
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        assert job_lines(run(main("bitset"))) == job_lines(run(main("sets")))

    def test_same_graph_jobs_share_one_context(self):
        graph = connected_erdos_renyi(10, 0.35, seed=1)

        async def main():
            scheduler = EnumerationScheduler(workers=2)
            jobs = [
                await scheduler.submit(
                    ServiceRequest(op="top", graph=graph, cost="fill", k=4)
                )
                for _ in range(3)
            ]
            frame_sets = [await job.drain() for job in jobs]
            info = scheduler.session("bitset").cache_info()
            await scheduler.close()
            return frame_sets, info

        frame_sets, info = run(main())
        reference = job_lines(frame_sets[0])
        assert all(job_lines(fs) == reference for fs in frame_sets)
        assert info["builds"] == 1  # one context served every client

    def test_diverse_and_decompositions_jobs(self):
        graph = paper_example_graph()

        async def main(op, **kw):
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op=op, graph=graph, cost="fill", **kw)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        diverse = run(main("diverse", k=2, min_distance=2))
        assert diverse[-1]["type"] == "stats"
        session = Session()
        expected = session.diverse(graph, "fill", k=2, min_distance=2)
        assert len(answers_of(diverse)) == len(expected.results)

        decomp = run(main("decompositions", k=5))
        expected = session.decompositions(graph, "fill", k=5)
        got = answers_of(decomp)
        assert [f["rank"] for f in got] == [r.rank for r in expected.results]
        assert [f["cost"] for f in got] == [r.cost for r in expected.results]


class TestFairness:
    def test_expensive_job_does_not_starve_cheap_one(self):
        """With ONE worker slot, a later cheap job finishes while an
        earlier expensive one is still streaming — the slices interleave."""
        expensive = connected_erdos_renyi(11, 0.4, seed=7)
        cheap = paper_example_graph()

        async def main():
            scheduler = EnumerationScheduler(workers=1, slice_answers=1)
            order: list[str] = []

            async def consume(tag, job):
                frames = await job.drain()
                order.append(tag)
                return frames

            big = await scheduler.submit(
                ServiceRequest(op="top", graph=expensive, cost="fill", k=40)
            )
            small = await scheduler.submit(
                ServiceRequest(op="top", graph=cheap, cost="fill", k=2)
            )
            big_frames, small_frames = await asyncio.gather(
                consume("big", big), consume("small", small)
            )
            await scheduler.close()
            return order, big_frames, small_frames

        order, big_frames, small_frames = run(main())
        assert order[0] == "small", "cheap job was starved by the big one"
        # Interleaving never corrupts either sequence.
        assert job_lines(big_frames) == serial_lines(expensive, "fill", 40)
        assert job_lines(small_frames) == serial_lines(cheap, "fill", 2)

    def test_many_concurrent_jobs_all_serve_exact_sequences(self):
        cases = [
            (connected_erdos_renyi(10, 0.35, seed=0), "fill"),
            (connected_erdos_renyi(10, 0.35, seed=100), "width"),
            (grid_graph(3, 3), "fill"),
            (paper_example_graph(), "width"),
        ]

        async def main():
            scheduler = EnumerationScheduler(workers=3, slice_answers=2)
            jobs = [
                await scheduler.submit(
                    ServiceRequest(op="top", graph=g, cost=c, k=6)
                )
                for g, c in cases
            ]
            frame_sets = await asyncio.gather(*(j.drain() for j in jobs))
            await scheduler.close()
            return frame_sets

        for (graph, cost), frames in zip(cases, run(main())):
            assert job_lines(frames) == serial_lines(graph, cost, 6)


class TestBudgetsDeadlinesCancellation:
    def test_k_caps_and_checkpoints(self):
        graph = connected_erdos_renyi(10, 0.35, seed=2)

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill", k=3)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        stats = frames[-1]
        assert len(answers_of(frames)) == 3
        assert stats["type"] == "stats"
        assert stats["next_rank"] == 3
        assert stats["exhausted"] is False
        assert stats["checkpoint"] is not None

    def test_deadline_emits_terminal_deadline_frame_with_resume_token(self):
        # 4,000+ answers: seconds of enumeration, far past the deadline.
        graph = connected_erdos_renyi(16, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(slice_answers=1)
            job = await scheduler.submit(
                ServiceRequest(
                    op="enumerate", graph=graph, cost="fill", deadline=0.05
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames, scheduler

        (frames, scheduler) = run(main())
        terminal = frames[-1]
        assert terminal["type"] == "deadline"
        assert terminal["checkpoint"] is not None
        assert terminal["emitted"] == len(answers_of(frames))
        # The token is a real (signed) checkpoint resuming the exact suffix.
        from repro.service.protocol import decode_token

        token = scheduler.open_token(decode_token(terminal["checkpoint"]))
        session = Session()
        resumed = session.resume(token, k=4)
        emitted = len(answers_of(frames))
        reference = serial_lines(graph, "fill", emitted + 4)
        got = job_lines(frames) + serialize_answers(resumed.results)
        assert got == reference

    def test_cancel_releases_and_reports(self):
        graph = connected_erdos_renyi(12, 0.3, seed=6)

        async def main():
            scheduler = EnumerationScheduler(workers=1, slice_answers=1)
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            frames = []
            while True:
                frame = await job.next_frame()
                frames.append(frame)
                if frame["type"] != "answer":
                    break
                if len(frames) == 2:
                    scheduler.cancel(job)
            await job.wait()
            stats = scheduler.stats()
            await scheduler.close()
            return frames, stats

        frames, stats = run(main())
        assert frames[-1]["type"] == "cancelled"
        assert frames[-1]["checkpoint"] is not None
        assert stats["active"] == 0
        assert stats["completed"] == stats["admitted"] == 1

    def test_cancel_before_any_answer(self):
        graph = connected_erdos_renyi(10, 0.35, seed=4)

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            scheduler.cancel(job)
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "cancelled"


class TestErrorPaths:
    def test_unknown_cost_is_in_band_error(self):
        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(
                    op="enumerate", graph=paper_example_graph(), cost="nope"
                )
            )
            frames = await job.drain()
            stats = scheduler.stats()
            await scheduler.close()
            return frames, stats

        frames, stats = run(main())
        assert frames[-1]["type"] == "error"
        assert frames[-1]["code"] == "bad-request"
        assert stats["active"] == 0

    def test_disconnected_graph_without_composition_is_in_band_error(self):
        graph = Graph(vertices=[1, 2, 3, 4], edges=[(1, 2), (3, 4)])

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(
                    op="enumerate",
                    graph=graph,
                    cost="lex-width-fill",  # no composition: no atom split
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "error"
        assert "connected" in frames[-1]["message"]

    def test_scheduler_survives_failed_jobs(self):
        async def main():
            scheduler = EnumerationScheduler()
            bad = await scheduler.submit(
                ServiceRequest(
                    op="enumerate", graph=paper_example_graph(), cost="nope"
                )
            )
            await bad.drain()
            good = await scheduler.submit(
                ServiceRequest(
                    op="top", graph=paper_example_graph(), cost="fill", k=2
                )
            )
            frames = await good.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "stats"
        assert answers_of(frames)

    def test_corrupt_resume_token_is_in_band_error(self):
        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", token=b"garbage")
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "error"

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EnumerationScheduler(workers=0)
        with pytest.raises(ValueError):
            EnumerationScheduler(slice_answers=0)

    def test_submit_after_close_raises(self):
        async def main():
            scheduler = EnumerationScheduler()
            await scheduler.close()
            with pytest.raises(RuntimeError):
                await scheduler.submit(
                    ServiceRequest(
                        op="top", graph=paper_example_graph(), cost="fill", k=1
                    )
                )

        run(main())


class TestBackpressure:
    def test_slow_consumer_bounds_the_frame_queue(self):
        """A job whose consumer stalls stops slicing at the queue bound
        instead of buffering the whole enumeration server-side."""
        graph = connected_erdos_renyi(12, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(
                workers=1, slice_answers=1, max_pending_frames=3
            )
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            # Let the producer run without any consumption: it must stall
            # at the bound rather than keep enumerating.
            for _ in range(50):
                await asyncio.sleep(0.005)
                if job.frames.qsize() >= 3:
                    break
            stalled_at = job.frames.qsize()
            assert stalled_at <= 3
            await asyncio.sleep(0.05)
            assert job.frames.qsize() <= 3  # still bounded after a pause
            # Catching up resumes the stream with the exact sequence.
            frames = []
            while True:
                frame = await job.next_frame()
                frames.append(frame)
                if frame["type"] != "answer":
                    break
                if len([f for f in frames if f["type"] == "answer"]) >= 8:
                    scheduler.cancel(job)
            answer_frames = [f for f in frames if f["type"] == "answer"]
            await scheduler.close()
            return answer_frames

        from repro.service.protocol import encode_frame

        answer_frames = run(main())
        got = [encode_frame(f) for f in answer_frames]
        assert got == serial_lines(graph, "fill", len(got))

    def test_close_unblocks_abandoned_backpressured_jobs(self):
        graph = connected_erdos_renyi(12, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(
                workers=1, slice_answers=1, max_pending_frames=2
            )
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            # Never consume: the producer blocks on the full queue.
            for _ in range(50):
                await asyncio.sleep(0.005)
                if job.frames.qsize() >= 2:
                    break
            await scheduler.close()  # must not deadlock
            return scheduler.stats()

        stats = run(main())
        assert stats["active"] == 0

    def test_validation_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            EnumerationScheduler(max_pending_frames=0)


class TestExhaustionReporting:
    def test_capped_decompositions_are_not_reported_exhausted(self):
        graph = paper_example_graph()  # 10 width-ranked decompositions

        async def main(k):
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="decompositions", graph=graph, cost="width", k=k)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        capped = run(main(2))
        assert len(answers_of(capped)) == 2
        assert capped[-1]["exhausted"] is False
        drained = run(main(20))
        assert len(answers_of(drained)) == 10
        assert drained[-1]["exhausted"] is True


class TestDiverseParity:
    def test_k_matches_session_surface(self):
        """The service's diverse jobs and Session.diverse are one
        implementation: they must keep the same answers."""
        graph = connected_erdos_renyi(10, 0.35, seed=0)

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(
                    op="diverse", graph=graph, cost="fill", k=2, min_distance=1,
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        from repro.api import EnumerationRequest

        frames = run(main())
        expected = Session().execute(
            EnumerationRequest(
                graph=graph, cost="fill", k=2, mode="diverse", min_distance=1,
            )
        )
        got = answers_of(frames)
        assert len(got) == len(expected.results) == 2
        assert [f["cost"] for f in got] == [t.cost for t in expected.results]


class TestTokenAuthentication:
    def test_tampered_token_is_rejected_before_unpickling(self):
        graph = connected_erdos_renyi(10, 0.35, seed=2)

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="top", graph=graph, cost="fill", k=3)
            )
            frames = await job.drain()
            from repro.service.protocol import decode_token

            token = bytearray(decode_token(frames[-1]["checkpoint"]))
            token[-1] ^= 0xFF  # flip one payload byte
            bad = await scheduler.submit(
                ServiceRequest(op="enumerate", token=bytes(token))
            )
            bad_frames = await bad.drain()
            await scheduler.close()
            return bad_frames

        frames = run(main())
        assert frames[-1]["type"] == "error"
        # Tampered bytes and a rotated key are indistinguishable to the
        # HMAC check, so both report the key-mismatch code (distinct
        # from ``bad-request`` structural errors like truncation).
        assert frames[-1]["code"] == "token_key_mismatch"
        assert "authentication" in frames[-1]["message"]

    def test_foreign_token_is_rejected(self):
        """A token minted by one scheduler instance does not resume on
        another (random per-instance keys) unless keys are shared."""
        graph = connected_erdos_renyi(10, 0.35, seed=2)

        async def mint():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="top", graph=graph, cost="fill", k=3)
            )
            frames = await job.drain()
            await scheduler.close()
            from repro.service.protocol import decode_token

            return decode_token(frames[-1]["checkpoint"]), scheduler.token_key

        token, key = run(mint())

        async def replay(token_key=None):
            scheduler = EnumerationScheduler(token_key=token_key)
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", token=token, k=2)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        foreign = run(replay())
        assert foreign[-1]["type"] == "error"
        assert "authentication" in foreign[-1]["message"]
        shared = run(replay(token_key=key))  # shared key: portable tokens
        assert shared[-1]["type"] == "stats"
        assert [f["rank"] for f in answers_of(shared)] == [3, 4]

    def test_raw_pickle_never_reaches_the_loader(self):
        """The signing gate rejects unauthenticated bytes outright —
        the pickle loader must never see them."""
        payload = b"cos\nsystem\n(S'true'\ntR."  # classic reduce payload

        async def main():
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(op="enumerate", token=payload * 3)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "error"
        assert "authentication" in frames[-1]["message"]


class TestTokenHeaderReads:
    def test_wire_resume_decodes_its_frontier_once(self, tmp_path, monkeypatch):
        """With an answers store, the scheduler's cache probe reads only
        the token's header; on a miss, the job that resumes the token
        decodes its frontier, once."""
        import repro.api.checkpoint as checkpoint_mod
        from repro.service.protocol import decode_token

        graph = connected_erdos_renyi(10, 0.35, seed=2)
        decodes = []
        original = checkpoint_mod._read_frontier

        def counting(reader):
            decodes.append(reader.pos)
            return original(reader)

        monkeypatch.setattr(checkpoint_mod, "_read_frontier", counting)

        async def main():
            scheduler = EnumerationScheduler(
                backend="inprocess", cache_dir=str(tmp_path)
            )
            first = await scheduler.submit(
                ServiceRequest(
                    op="top", graph=graph, cost="fill", k=3, preprocess=False
                )
            )
            head = await first.drain()
            decodes.clear()
            resumed = await scheduler.submit(
                ServiceRequest(
                    op="enumerate",
                    token=decode_token(head[-1]["checkpoint"]),
                    k=3,
                )
            )
            tail = await resumed.drain()
            await scheduler.close()
            return head, tail

        head, tail = run(main())
        assert tail[-1]["type"] == "stats"
        assert tail[-1]["engine"] != "cache"  # a miss: the job resumed live
        assert len(decodes) == 1
        stream = Session(preprocess=False).stream(graph, "fill")
        assert job_lines(head) + job_lines(tail) == serialize_answers(
            itertools.islice(stream, 6)
        )


class TestOneHashPerRequest:
    @pytest.mark.parametrize("cached", [False, True])
    def test_request_graph_is_hashed_once(self, tmp_path, monkeypatch, cached):
        """The answers probe and the job share one hash of a fresh
        request's graph (the atoms preprocessing splits off are other
        graphs, hashed once each)."""
        import repro.api.session as session_mod
        import repro.service.scheduler as scheduler_mod

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        hashed = []
        original = session_mod.graph_fingerprint

        def counting(g):
            hashed.append(len(g))
            return original(g)

        monkeypatch.setattr(session_mod, "graph_fingerprint", counting)
        monkeypatch.setattr(scheduler_mod, "graph_fingerprint", counting)

        async def main():
            scheduler = EnumerationScheduler(
                backend="inprocess",
                cache_dir=str(tmp_path) if cached else None,
            )
            job = await scheduler.submit(
                ServiceRequest(op="top", graph=graph, cost="fill", k=3)
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "stats"
        assert frames[-1]["engine"] != "cache"
        assert hashed.count(len(graph)) == 1
        assert job_lines(frames) == serial_lines(graph, "fill", 3)


class TestDiverseExhaustionSemantics:
    def test_scan_cap_is_not_reported_as_exhaustion(self):
        graph = connected_erdos_renyi(12, 0.3, seed=5)  # 200+ answers

        async def main(scan_limit):
            scheduler = EnumerationScheduler()
            job = await scheduler.submit(
                ServiceRequest(
                    op="diverse", graph=graph, cost="fill", k=50,
                    min_distance=10, scan_limit=scan_limit,
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main(scan_limit=3))
        stats = frames[-1]
        assert stats["type"] == "stats"
        # Only the 3-deep scan window ended; the ranked space did not.
        assert stats["exhausted"] is False
        assert stats["expansions"] > 0  # real source-stream measurements
        assert stats["engine"] != "none"


class TestDiverseInterruption:
    def test_deadline_interrupts_a_long_diverse_scan(self):
        """Cancel/deadline land mid-scan (between scanned candidates),
        not only between kept answers — a diverse job that keeps nothing
        must still honor its deadline."""
        # 4,000+ answers: seconds of scanning, far past the deadline.
        graph = connected_erdos_renyi(16, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(slice_answers=1)
            job = await scheduler.submit(
                ServiceRequest(
                    op="diverse", graph=graph, cost="fill", k=50,
                    min_distance=10_000,  # nothing after the first matches
                    scan_limit=100_000, deadline=0.15,
                )
            )
            frames = await job.drain()
            await scheduler.close()
            return frames

        import time as _time

        started = _time.monotonic()
        frames = run(main())
        elapsed = _time.monotonic() - started
        assert frames[-1]["type"] == "deadline"
        assert elapsed < 5, f"deadline ignored for {elapsed:.1f}s of scanning"

    def test_cancel_interrupts_a_long_diverse_scan(self):
        graph = connected_erdos_renyi(16, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(slice_answers=1)
            job = await scheduler.submit(
                ServiceRequest(
                    op="diverse", graph=graph, cost="fill", k=50,
                    min_distance=10_000, scan_limit=100_000,
                )
            )
            await asyncio.sleep(0.1)  # let the scan get going
            scheduler.cancel(job)
            frames = await job.drain()
            await scheduler.close()
            return frames

        frames = run(main())
        assert frames[-1]["type"] == "cancelled"


class TestSliceEnd:
    def test_the_slice_that_streams_the_kth_answer_ends_the_job(
        self, backend, monkeypatch
    ):
        """A job whose k is a multiple of the slice size ends in the slice
        that streams its k-th answer, not one slice later; its answer
        bytes and terminal fields (but elapsed time) match a run whose
        slice size does not divide k."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        graph = connected_erdos_renyi(10, 0.35, seed=0)

        async def main(slice_answers):
            scheduler = EnumerationScheduler(
                backend=backend,
                workers=1,
                slice_answers=slice_answers,
                token_key=b"slice-end",
            )
            runs = []
            try:
                for k in (4, 8):
                    before = scheduler.metrics_snapshot()["slice_seconds"]
                    job = await scheduler.submit(
                        ServiceRequest(op="top", graph=graph, cost="fill", k=k)
                    )
                    frames = await job.drain()
                    after = scheduler.metrics_snapshot()["slice_seconds"]
                    terminal = dict(frames[-1])
                    del terminal["elapsed_seconds"]
                    runs.append(
                        (after["count"] - before["count"], job_lines(frames), terminal)
                    )
            finally:
                await scheduler.close()
            return runs

        aligned, offset = run(main(4)), run(main(3))
        assert [slices for slices, _, _ in aligned] == [1, 2]
        assert [slices for slices, _, _ in offset] == [2, 3]
        assert [run[1:] for run in aligned] == [run[1:] for run in offset]
        assert aligned[1][1] == serial_lines(graph, "fill", 8)
        assert aligned[1][2]["type"] == "stats"
        assert aligned[1][2]["checkpoint"] is not None


class TestStatsJob:
    """The ``stats`` op runs in the one job loop, on the executor's
    spare thread and outside the slot semaphore."""

    def test_stats_answers_while_every_slot_runs_a_scan(
        self, backend, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        # Its diverse scan runs for well over ten seconds: far longer than
        # the process backend's two-second wait for a busy seat's lock.
        graph = connected_erdos_renyi(18, 0.3, seed=5)

        async def main():
            scheduler = EnumerationScheduler(backend=backend, workers=1)
            try:
                scan = await scheduler.submit(
                    ServiceRequest(
                        op="diverse", graph=graph, cost="fill", k=50,
                        min_distance=10_000, scan_limit=100_000,
                    )
                )
                while scheduler.metrics_snapshot()["slots_free"]:
                    await asyncio.sleep(0.01)
                job = await scheduler.submit(ServiceRequest(op="stats"))
                frames = await asyncio.wait_for(job.drain(), timeout=60)
                scanning = not scan.finished
                scheduler.cancel(scan)
                return frames, scanning, (await scan.drain())[-1]
            finally:
                await scheduler.close()

        frames, scanning, scan_end = run(main())
        assert [frame["type"] for frame in frames] == ["service-stats"]
        assert frames[0]["scheduler"]["active"] == 2
        assert scanning and scan_end["type"] == "cancelled"

    def test_a_failing_stats_job_ends_in_one_internal_error(self, monkeypatch):
        def failing(scheduler):
            raise RuntimeError("introspection failed")

        monkeypatch.setattr(EnumerationScheduler, "service_stats", failing)

        async def main():
            scheduler = EnumerationScheduler()
            try:
                job = await scheduler.submit(ServiceRequest(op="stats"))
                frames = await job.drain()
                await job.wait()
                return frames, job, scheduler.stats()
            finally:
                await scheduler.close()

        frames, job, counters = run(main())
        assert frames == [
            {"type": "error", "code": "internal", "message": "introspection failed"}
        ]
        assert job.frames.empty() and job.status == "error"
        assert (counters["completed"], counters["active"]) == (1, 0)
