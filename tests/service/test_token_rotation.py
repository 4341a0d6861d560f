"""Resume-token keying across server restarts and key rotation.

Resume tokens are HMAC-signed, and the checkpoint inside is decoded
only after the tag verifies, so the signing key decides whether a token
survives a server restart.  These tests pin down the three regimes:

* a shared secret (``REPRO_TOKEN_SECRET`` or ``token_key=``) makes a
  token minted by one server instance resume the *exact* answer
  sequence on a fresh instance;
* a rotated key rejects the stale token with the distinct
  ``token_key_mismatch`` error code (not the generic ``bad-request``),
  so operators can tell key drift from client bugs;
* a structurally broken token stays a plain ``bad-request``.

The suite runs against both execution backends.  Either way the
scheduler checks a token once, when it admits the job, and the job
(in-process, or in a worker child) resumes from the verified payload;
the scheduler also signs every token it hands out, so the key never
reaches a worker process.
"""

from __future__ import annotations

import itertools

import pytest

from repro.api import Session
from repro.graphs.generators import connected_erdos_renyi
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceError,
    serialize_answers,
)
from repro.service.protocol import ENV_TOKEN_SECRET, resolve_token_key

def server(backend, **options):
    return ServerThread(backend=backend, slice_answers=2, **options)


def serial_lines(graph, cost, k):
    session = Session()
    stream = session.stream(graph, cost)
    try:
        results = list(itertools.islice(stream, k))
    finally:
        stream.close()
    return serialize_answers(results)


class TestResolveTokenKey:
    def test_explicit_key_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_TOKEN_SECRET, "env-secret")
        assert resolve_token_key(b"explicit") == b"explicit"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_TOKEN_SECRET, "env-secret")
        assert resolve_token_key(None) == b"env-secret"

    def test_random_key_without_either(self, monkeypatch):
        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        assert resolve_token_key(None) != resolve_token_key(None)


class TestRestartWithSharedSecret:
    def test_env_secret_makes_tokens_survive_restart(
        self, backend, monkeypatch
    ):
        monkeypatch.setenv(ENV_TOKEN_SECRET, "rotation-suite-secret")
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        with server(backend) as first:
            client = ServiceClient(*first.address, timeout=60.0)
            page = client.top(graph, "fill", k=4)
            token = page.checkpoint
        assert token is not None
        # A brand-new server process-equivalent: fresh scheduler, fresh
        # backend, same environment secret.  The token must continue the
        # exact global answer sequence, byte for byte.
        with server(backend) as second:
            client = ServiceClient(*second.address, timeout=60.0)
            rest = client.resume(token, k=4)
        got = list(page.answer_lines) + list(rest.answer_lines)
        assert got == serial_lines(graph, "fill", 8)
        assert [a.rank for a in rest.answers] == [4, 5, 6, 7]

    def test_explicit_key_equivalent_to_env(self, backend, monkeypatch):
        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        key = b"shared-file-secret"
        with server(backend, token_key=key) as first:
            client = ServiceClient(*first.address, timeout=60.0)
            token = client.top(graph, "fill", k=3).checkpoint
        with server(backend, token_key=key) as second:
            client = ServiceClient(*second.address, timeout=60.0)
            rest = client.resume(token, k=3)
        assert [a.rank for a in rest.answers] == [3, 4, 5]


class TestKeyRotation:
    def test_rotated_key_yields_distinct_error_code(
        self, backend, monkeypatch
    ):
        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        with server(backend, token_key=b"key-alpha") as first:
            client = ServiceClient(*first.address, timeout=60.0)
            token = client.top(graph, "fill", k=3).checkpoint
        with server(backend, token_key=b"key-beta") as second:
            client = ServiceClient(*second.address, timeout=60.0)
            with pytest.raises(ServiceError) as excinfo:
                client.resume(token, k=3)
        assert excinfo.value.frame.code == "token_key_mismatch"

    def test_default_random_keys_do_not_share_tokens(
        self, backend, monkeypatch
    ):
        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        with server(backend) as first:
            client = ServiceClient(*first.address, timeout=60.0)
            token = client.top(graph, "fill", k=3).checkpoint
        with server(backend) as second:
            client = ServiceClient(*second.address, timeout=60.0)
            with pytest.raises(ServiceError) as excinfo:
                client.resume(token, k=3)
        assert excinfo.value.frame.code == "token_key_mismatch"

    def test_truncated_token_stays_bad_request(self, backend, monkeypatch):
        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        with server(backend) as handle:
            client = ServiceClient(*handle.address, timeout=60.0)
            with pytest.raises(ServiceError) as excinfo:
                client.resume(b"ABC", k=3)  # shorter than the HMAC tag
        assert excinfo.value.frame.code == "bad-request"


class TestOneTokenCheck:
    def test_resume_is_verified_once_in_the_scheduler_process(
        self, backend, monkeypatch, tmp_path
    ):
        """With a cache directory, the answers probe, the routing step
        and the runner all start from one verified token."""
        import repro.service.scheduler as scheduler_mod
        import repro.service.workers as workers_mod

        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        checks = []

        def counting(verify):
            def wrapper(key, blob):
                checks.append(blob)
                return verify(key, blob)

            return wrapper

        for module in (scheduler_mod, workers_mod):
            if hasattr(module, "verify_token"):
                monkeypatch.setattr(
                    module, "verify_token", counting(module.verify_token)
                )
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        with server(backend, cache_dir=str(tmp_path / "cache")) as handle:
            client = ServiceClient(*handle.address, timeout=60.0)
            page = client.top(graph, "fill", k=4)
            checks.clear()
            rest = client.resume(page.checkpoint, k=4)
        assert checks == [page.checkpoint]
        got = list(page.answer_lines) + list(rest.answer_lines)
        assert got == serial_lines(graph, "fill", 8)


class TestOneTokenMint:
    def test_every_wire_token_is_signed_in_the_scheduler_process(
        self, backend, monkeypatch, tmp_path
    ):
        """A live page's token and a page the answers tier replays are
        both signed by the scheduler."""
        import repro.service.scheduler as scheduler_mod
        import repro.service.workers as workers_mod

        monkeypatch.delenv(ENV_TOKEN_SECRET, raising=False)
        signed = []

        def recording(sign):
            def wrapper(key, payload):
                signed.append(sign(key, payload))
                return signed[-1]

            return wrapper

        for module in (scheduler_mod, workers_mod):
            if hasattr(module, "sign_token"):
                monkeypatch.setattr(
                    module, "sign_token", recording(module.sign_token)
                )
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        with server(backend, cache_dir=str(tmp_path / "cache")) as handle:
            client = ServiceClient(*handle.address, timeout=60.0)
            live = client.top(graph, "fill", k=4)
            replayed = client.top(graph, "fill", k=4)
            served = handle.scheduler.stats()["answers_served"]
        assert served == 1
        assert signed == [live.checkpoint, replayed.checkpoint]

    def test_no_backend_holds_the_key(self):
        import inspect

        import repro.service.workers as workers_mod
        from repro.service.scheduler import InProcessBackend, _JobRunner

        for target in (
            InProcessBackend,
            workers_mod.ProcessWorkerBackend,
            workers_mod.WorkerPool,
            _JobRunner,
            workers_mod._worker_main,
            workers_mod._worker_loop,
        ):
            assert "token_key" not in inspect.signature(target).parameters
        assert not hasattr(workers_mod, "sign_token")
        assert not hasattr(workers_mod, "verify_token")
