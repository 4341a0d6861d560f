"""Checkpoint/resume tests: the resumed stream must be bit-identical.

The acceptance bar: a stream paused at rank ``k`` and resumed emits the
exact same (rank, cost, bags) suffix an uninterrupted run would — within
one session, and across sessions via the serialized token.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Session, StreamCheckpoint
from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.generators import cycle_graph, paper_example_graph
from tests.conftest import connected_random_graphs


def signature(results):
    """The identity of a ranked prefix: ranks, costs and bag sets."""
    return [(r.rank, r.cost, frozenset(r.triangulation.bags)) for r in results]


def paused_and_resumed(session, graph, cost, pause_at):
    """Emit ``pause_at`` results, checkpoint, resume, drain; concatenated."""
    stream = session.stream(graph, cost)
    head = [next(stream) for _ in range(pause_at)]
    token = stream.checkpoint()
    stream.close()
    resumed = session.resume_stream(token)
    tail = list(resumed)
    return signature(head) + signature(tail)


class TestResumeEquivalence:
    def test_every_pause_point_cycle6(self):
        session = Session()
        g = cycle_graph(6)
        uninterrupted = signature(session.stream(g, "fill"))
        assert len(uninterrupted) == 14
        for k in range(len(uninterrupted) + 1):
            assert paused_and_resumed(session, g, "fill", k) == uninterrupted, k

    def test_random_graphs_serial(self):
        session = Session()
        for g in connected_random_graphs(8, 0.4, 3, seed_base=7000):
            for spec in ("width", "fill"):
                uninterrupted = signature(session.stream(g, spec))
                pause = max(1, len(uninterrupted) // 3)
                assert (
                    paused_and_resumed(session, g, spec, pause) == uninterrupted
                )

    def test_checkpoint_is_nondestructive(self):
        """Taking a checkpoint must not perturb the live stream."""
        session = Session()
        g = cycle_graph(6)
        uninterrupted = signature(session.stream(g, "fill"))
        stream = session.stream(g, "fill")
        emitted = []
        for _ in range(3):
            emitted.append(next(stream))
            stream.checkpoint()
        emitted.extend(stream)
        assert signature(emitted) == uninterrupted

    def test_resume_chain_pagination(self):
        """top(k) → resume(k) → resume(k)... covers the space in order."""
        session = Session()
        g = cycle_graph(7)
        uninterrupted = signature(session.stream(g, "fill"))
        page = session.top(g, "fill", k=4)
        collected = list(page.results)
        while not page.exhausted:
            page = session.resume(page.checkpoint, k=4)
            collected.extend(page.results)
        assert signature(collected) == uninterrupted
        assert [r.rank for r in collected] == list(range(len(uninterrupted)))


class TestSerializedTokens:
    def test_bytes_roundtrip(self):
        session = Session(preprocess=False)
        g = paper_example_graph()
        stream = session.stream(g, "width")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        restored = StreamCheckpoint.from_bytes(token.to_bytes())
        assert restored == token

    def test_bytes_roundtrip_composed(self):
        """The paper graph routes through preprocessing by default; its
        token is a ComposedCheckpoint and roundtrips the same way."""
        from repro.api.checkpoint import load_checkpoint
        from repro.preprocess import ComposedCheckpoint

        session = Session()
        g = paper_example_graph()
        stream = session.stream(g, "width")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        assert isinstance(token, ComposedCheckpoint)
        restored = ComposedCheckpoint.from_bytes(token.to_bytes())
        assert restored == token
        assert load_checkpoint(token.to_bytes()) == token

    def test_resume_in_fresh_session_from_bytes(self):
        """The token embeds the graph: a cold process can resume it."""
        emitting = Session()
        g = cycle_graph(6)
        uninterrupted = signature(emitting.stream(g, "fill"))
        stream = emitting.stream(g, "fill")
        head = [next(stream) for _ in range(5)]
        blob = stream.checkpoint().to_bytes()
        stream.close()

        cold = Session()  # no cached context, no graph object
        tail = list(cold.resume_stream(blob))
        assert signature(head) + signature(tail) == uninterrupted
        assert cold.cache_info()["builds"] == 1  # rebuilt from the token

    def test_from_bytes_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="expected StreamCheckpoint"):
            StreamCheckpoint.from_bytes(pickle.dumps({"not": "a checkpoint"}))

    def test_composed_loaders_reject_foreign_payload_and_versions(self):
        import dataclasses

        from repro.api import load_checkpoint
        from repro.preprocess import ComposedCheckpoint

        blob = pickle.dumps(["neither", "kind"])
        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(blob)
        with pytest.raises(ValueError, match="expected ComposedCheckpoint"):
            ComposedCheckpoint.from_bytes(blob)

        session = Session()
        stream = session.stream(paper_example_graph(), "width")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        assert isinstance(token, ComposedCheckpoint)
        future = dataclasses.replace(token, version=999)
        with pytest.raises(ValueError, match="version"):
            ComposedCheckpoint.from_bytes(future.to_bytes())

    def test_version_gate(self):
        session = Session()
        stream = session.stream(cycle_graph(5), "fill")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        stale = StreamCheckpoint(
            fingerprint=token.fingerprint,
            cost_spec=token.cost_spec,
            width_bound=token.width_bound,
            next_rank=token.next_rank,
            next_order=token.next_order,
            frontier=token.frontier,
            graph=token.graph,
            version=999,
        )
        with pytest.raises(ValueError, match="version"):
            StreamCheckpoint.from_bytes(stale.to_bytes())


class TestCostSpecHandling:
    def test_object_cost_checkpoint_needs_explicit_cost(self):
        session = Session()
        g = cycle_graph(6)
        stream = session.stream(g, FillInCost())
        next(stream)
        token = stream.checkpoint()
        stream.close()
        with pytest.raises(ValueError, match="pass cost="):
            session.resume_stream(token)
        uninterrupted = signature(session.stream(g, FillInCost()))
        tail = list(session.resume_stream(token, cost=FillInCost()))
        assert signature(tail) == uninterrupted[1:]

    def test_cost_spec_mismatch_rejected(self):
        session = Session()
        stream = session.stream(cycle_graph(6), "fill")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        with pytest.raises(ValueError, match="resume requested"):
            session.resume_stream(token, cost="width")

    def test_width_bound_survives_the_token(self):
        session = Session()
        g = cycle_graph(6)
        uninterrupted = signature(session.stream(g, "fill", width_bound=2))
        stream = session.stream(g, "fill", width_bound=2)
        head = [next(stream) for _ in range(3)]
        token = stream.checkpoint()
        stream.close()
        assert token.width_bound == 2
        tail = list(Session().resume_stream(token.to_bytes()))
        assert signature(head) + signature(tail) == uninterrupted


class TestExhaustedCheckpoints:
    def test_resume_after_exhaustion_is_empty(self):
        session = Session()
        g = paper_example_graph()
        stream = session.stream(g, "width")
        results = list(stream)
        token = stream.checkpoint()
        assert token.exhausted
        response = session.resume(token)
        assert response.results == ()
        assert response.exhausted
        # Resume never touched the cache for an exhausted token.
        assert len(results) == 2

    def test_exhausted_token_preserves_rank(self):
        session = Session()
        stream = session.stream(paper_example_graph(), "width")
        list(stream)
        token = stream.checkpoint()
        assert token.next_rank == 2


class TestLegacyEquivalence:
    def test_wrappers_match_session_streams(self):
        """The deprecated free functions are views over the session API."""
        from repro.core.ranked import ranked_triangulations, top_k_triangulations

        session = Session()
        for g in connected_random_graphs(7, 0.45, 2, seed_base=7300):
            via_session = signature(session.stream(g, "width"))
            via_legacy = signature(ranked_triangulations(g, WidthCost()))
            assert via_legacy == via_session
            top = top_k_triangulations(g, WidthCost(), 3)
            assert [frozenset(t.bags) for t in top] == [
                s[2] for s in via_session[:3]
            ]
