"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Run from the repository root.  Arguments: ``--workload`` (ranked-deep,
cold-first, serve-mixed), ``--seed N``, ``--seconds N``, ``--trace 0|1``.
The last line of standard output is the result as one JSON object.

This file only prepares the interpreter: it byte-compiles ``src/`` (the
"build") and re-executes ``perfbench.main`` with a fixed hash seed, the
repository's ``src`` as the only extra import path and every ``REPRO_*``
variable removed.  Without ``src/repro`` next to it, it exits with code 2
and prints no result.
"""

from __future__ import annotations

import compileall
import os
import sys


def clean_environment() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    return env


def main() -> None:
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        raise SystemExit(2)
    compileall.compile_dir("src", quiet=1)
    argv = [sys.executable, "-m", "perfbench.main", *sys.argv[1:]]
    sys.stdout.flush()
    os.execve(sys.executable, argv, clean_environment())


if __name__ == "__main__":
    main()
