"""Smoke self-test of the benchmark: ``python3 perfbench/selftest.py``.

Run from the repository root; takes well under a minute.  For each
workload at its tiny size it checks, untraced and traced, that the run
exits 0, that every metric of the catalog is printed by name with its
unit and sample count, that the JSON result line carries exactly the
four result keys, that every predicted split of a traced run holds, and
that the answer digest matches its pin.  It then
injects one wrong answer per workload and checks that ``failed`` counts
it, so the correctness check cannot rot silently.  Finally it checks
that ``BENCHMARK.json`` lists the catalog, and that ``run.py`` refuses
to run without ``src/repro``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.getcwd())

from perfbench.common import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.main import OUT_DIR, WORKLOADS  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def bench(*args: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace), "--tiny")
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    catalog = dict(PER_LAYER if trace else END_TO_END)
    assert set(result["metrics"]) == set(catalog), f"{where}: metric names"
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (match.group(3), int(match.group(4)))
    for name, unit in catalog.items():
        assert name in printed, f"{where}: {name} not printed"
        assert printed[name][0] == unit, f"{where}: {name} printed with unit {printed[name][0]}"
        assert result["metrics"][name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(result["metrics"][name]["value"], float), f"{where}: {name} value"
    assert any(line.startswith("failed_share ") for line in lines), f"{where}: no failed_share"
    if trace:
        checks = [line for line in lines if line.startswith("note split-check ")]
        assert checks, f"{where}: no predicted split checked"
        for line in checks:
            assert ": holds (" in line, f"{where}: {line}"
    if not (workload == "cold-first" and trace):  # that run checks a third
        assert any("matches pin" in line for line in lines), f"{where}: digest not pinned"
    print(f"ok   {where}: {len(catalog)} metrics, {result['attempted']} attempted")


def check_injected(workload: str) -> None:
    proc = bench("--workload", workload, "--seed", "1", "--trace", "0", "--tiny",
                 "--inject-wrong-answer")
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1, (
        f"{workload}: an injected wrong answer was not counted"
    )
    share = next(line for line in lines if line.startswith("failed_share "))
    assert float(share.split()[1]) > 0, f"{workload}: {share}"
    print(f"ok   {workload}: injected wrong answer counted ({share})")


def check_benchmark_json() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    print("ok   BENCHMARK.json lists the metric catalog and the workloads")


def check_refuses_without_program() -> None:
    bare = os.path.join(OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "ranked-deep", "--seed", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without src/repro"
    print("ok   refuses to run without src/repro")


def main() -> int:
    check_benchmark_json()
    check_refuses_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
        check_injected(workload)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
