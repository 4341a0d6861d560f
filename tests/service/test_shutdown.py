"""SIGINT shutdown ordering of a foreground ``repro serve``.

A real ``repro serve --backend process --http 0`` subprocess (both
doors) is interrupted while a slice is in flight.  The teardown
contract under audit:

* the signal triggers the *orderly* stop path (cancel jobs → join every
  worker seat → close backend sessions), not an exception unwinding
  mid-teardown;
* no worker child outlives the server — workers ignore the terminal's
  SIGINT (they share the foreground process group) and wait for the
  parent's ``shutdown`` message;
* the shared on-disk artifact store is closed, not abandoned: after
  exit the sqlite WAL sidecar is checkpointed away (a hot non-empty
  ``-wal`` file is the signature of a store handle that died mid-write).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.gateway import GatewayClient
from repro.graphs.generators import connected_erdos_renyi
from repro.service import AnswerFrame, ServiceClient, ServiceRequest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="child enumeration and signal delivery use /proc and POSIX signals",
)


def _children_of(pid: int) -> set[int]:
    """Direct child PIDs of ``pid`` (every thread's children)."""
    found: set[int] = set()
    task_dir = f"/proc/{pid}/task"
    try:
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as fh:
                    found.update(int(tok) for tok in fh.read().split())
            except OSError:
                continue
    except OSError:
        pass
    return found


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _survivors(pids: set[int], timeout: float = 10.0) -> set[int]:
    """PIDs of ``pids`` still alive after a grace window.

    Worker seats are joined *before* the parent exits, but the
    multiprocessing resource tracker (also a child) only notices the
    parent's death via pipe EOF, asynchronously — give it a moment.
    """
    deadline = time.monotonic() + timeout
    alive = {pid for pid in pids if _pid_alive(pid)}
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = {pid for pid in alive if _pid_alive(pid)}
    return alive


@pytest.fixture
def serve_proc(tmp_path):
    cache_dir = tmp_path / "cache"
    # The child imports the same ``repro`` as this process, installed or
    # not: pyproject's pytest ``pythonpath`` does not reach subprocesses.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--backend",
            "process",
            "--workers",
            "2",
            "--http",
            "0",
            "--cache-dir",
            str(cache_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        yield proc, cache_dir
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


def _bound_port(proc) -> int:
    """The port of the next door ``repro serve`` announces."""
    line = proc.stdout.readline()
    assert "listening on" in line, f"unexpected line: {line!r}"
    return int(line.rsplit(":", 1)[1])


def test_sigint_mid_slice_reaps_workers_and_cools_the_wal(serve_proc):
    proc, cache_dir = serve_proc
    port = _bound_port(proc)

    # Two worker seats spawn with the backend, before any job arrives.
    deadline = time.monotonic() + 30
    children: set[int] = set()
    while time.monotonic() < deadline and len(children) < 2:
        children = _children_of(proc.pid)
        time.sleep(0.05)
    assert len(children) >= 2, f"worker seats never appeared: {children}"

    # Put a slice in flight: open a long job and wait for the first
    # answer frame, which proves a worker is actively enumerating (and
    # writing artifacts through the shared store).
    client = ServiceClient("127.0.0.1", port, timeout=60.0)
    stream = client.open(
        ServiceRequest(
            op="enumerate",
            graph=connected_erdos_renyi(12, 0.3, seed=6),
            cost="fill",
            k=100_000,
        )
    )
    first = next(stream)
    assert isinstance(first, AnswerFrame)

    # Interrupt exactly as Ctrl-C would, mid-stream.
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=60) == 0
    output = proc.stdout.read()
    assert "shutting down" in output

    stream.close()

    # Every worker seat was joined before the parent exited.
    survivors = _survivors(children)
    assert not survivors, f"orphaned worker processes: {survivors}"

    # The shared store closed cleanly: sqlite checkpoints and removes
    # the WAL sidecar when the last handle closes; a hot WAL means a
    # handle was abandoned mid-write.
    assert (cache_dir / "artifacts.sqlite").exists()
    wal = cache_dir / "artifacts.sqlite-wal"
    assert not wal.exists() or wal.stat().st_size == 0, (
        f"hot WAL left behind ({wal.stat().st_size} bytes)"
    )


def test_sigterm_is_an_orderly_stop_too(serve_proc):
    proc, cache_dir = serve_proc
    port = _bound_port(proc)
    http_port = _bound_port(proc)
    client = ServiceClient("127.0.0.1", port, timeout=60.0)
    result = client.top(
        connected_erdos_renyi(10, 0.35, seed=0), "fill", k=3
    )
    assert len(result.answers) == 3
    assert GatewayClient("127.0.0.1", http_port, timeout=60.0).health().status == 200
    children = _children_of(proc.pid)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    assert not _survivors(children)
    wal = cache_dir / "artifacts.sqlite-wal"
    assert not wal.exists() or wal.stat().st_size == 0
