"""One workload run; start it through ``perfbench/run.py``.

``run.py`` re-executes this module in a fresh interpreter with a fixed
``PYTHONHASHSEED``, ``PYTHONPATH=src`` and every ``REPRO_*`` variable
cleared, so an inherited cache directory or kernel switch cannot change
what is measured.
"""

from __future__ import annotations

import argparse
import json
import os

WORKLOADS = ("ranked-deep", "cold-first", "serve-mixed")

#: Where traced runs write their spans (ignored by git).
OUT_DIR = ".perfbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test size: a few requests per workload, seconds to run",
    )
    parser.add_argument(
        "--inject-wrong-answer", action="store_true",
        help="corrupt one received answer (the self-test's check of the check)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from .common import Report, environment

    os.makedirs(OUT_DIR, exist_ok=True)
    args.trace_file = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"
    )
    args.scratch = os.path.abspath(os.path.join(OUT_DIR, "scratch"))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} tiny={int(args.tiny)}"
    )
    report = Report(tiny=args.tiny)
    if args.workload == "ranked-deep":
        from .ranked_deep import run
    elif args.workload == "cold-first":
        from .cold_first import run
    else:
        from .serve_mixed import run
    run(args, report)
    report.emit(trace=bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
