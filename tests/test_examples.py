"""Every example script runs to completion.

Each ``examples/*.py`` runs in a fresh interpreter with ``src`` on the
import path and every ``REPRO_*`` variable cleared, so an inherited cache
directory or setting cannot change what an example does.  The examples
end in assertions about their own output, so exit status 0 is the check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited with status {proc.returncode}:\n"
        f"{proc.stderr[-4000:]}"
    )
