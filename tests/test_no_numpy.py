"""The library and the CLI never import numpy.

A stub ``numpy`` package goes first on the import path of a fresh
interpreter: importing it writes a marker file and raises ImportError.
The tests drive the paths that used to reach numpy — ranked ``top``
answers, a ``diverse`` selection (it saturates every scanned
triangulation) and ``python -m repro enumerate`` — and require that the
marker was never written.  Because the stub stands in for numpy, the
check means the same whether or not numpy is installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LIBRARY_CALLS = """
from repro.api import Session
from repro.graphs.generators import petersen_graph

session = Session()
assert len(session.top(petersen_graph(), "fill", k=3)) == 3
assert len(session.diverse(petersen_graph(), "fill", k=2, min_distance=2)) == 2
"""


@pytest.fixture
def numpy_stub(tmp_path):
    """``(import path holding the stub, marker file it writes)``."""
    marker = tmp_path / "numpy-imported"
    package = tmp_path / "stub" / "numpy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        f"open({str(marker)!r}, 'w').close()\n"
        "raise ImportError('numpy is stubbed out')\n"
    )
    return package.parent, marker


def _run(args, stub_dir, cwd):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(stub_dir), str(ROOT / "src")])
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_library_never_imports_numpy(numpy_stub, tmp_path):
    stub_dir, marker = numpy_stub
    proc = _run(["-c", LIBRARY_CALLS], stub_dir, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not marker.exists(), "the library imported numpy"


def test_cli_never_imports_numpy(numpy_stub, tmp_path):
    stub_dir, marker = numpy_stub
    graph = tmp_path / "c5-chord.gr"
    graph.write_text("p tw 5 6\n1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n")
    proc = _run(
        ["-m", "repro", "enumerate", str(graph), "--cost", "fill", "--top", "3"],
        stub_dir,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("#0: cost=1.0")
    assert not marker.exists(), "the CLI imported numpy"
