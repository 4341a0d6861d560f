"""Command-line interface.

Usage examples::

    python -m repro stats graph.gr
    python -m repro treewidth graph.gr
    python -m repro enumerate graph.gr --cost fill --top 5 --diverse 2
    python -m repro serve --port 8737 --backend process --workers 4
    python -m repro submit graph.gr --cost fill --top 5 --port 8737
    python -m repro submit --stats --port 8737
    python -m repro cache warm graph.gr --cache-dir /var/cache/repro
    python -m repro cache stats --cache-dir /var/cache/repro
    python -m repro datasets
    python -m repro experiments figure5 table2

Graphs are read in the PACE ``.gr`` or DIMACS ``.col`` formats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from .api import Session, graph_fingerprint
from .graphs.io import read_graph
from .costs.registry import available_costs, resolve_cost
from .core.exact import minimum_fill_in, treewidth
from .separators.berry import SeparatorLimitExceeded

__all__ = ["main", "run", "build_parser"]


class _BadInput(Exception):
    """A named input file that is missing, unreadable or malformed."""


def _read_input(path: str, read=read_graph):
    """``read(path)`` for a file named on the command line; on a bad file
    :func:`main` prints ``error: PATH: message`` and exits 2."""
    try:
        return read(Path(path))
    except (OSError, ValueError) as exc:
        raise _BadInput(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--kernel`` flag of every context-building subcommand."""
    from .graphs.kernels import KERNELS

    parser.add_argument(
        "--kernel",
        default=KERNELS[0],
        choices=KERNELS,
        help="graph kernel for the enumeration hot path (default: "
        f"{KERNELS[0]}); the output is identical under both kernels",
    )


def _add_cache_dir_option(parser: argparse.ArgumentParser) -> None:
    """The shared ``--cache-dir`` flag of cache-touching subcommands."""
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory of the persistent artifact cache (defaults to "
        "the REPRO_CACHE_DIR environment variable)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranked enumeration of minimal triangulations (PODS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="poly-MS statistics of a graph")
    p_stats.add_argument("graph", help="path to a .gr or .col file")
    _add_kernel_option(p_stats)

    p_tw = sub.add_parser("treewidth", help="exact treewidth and fill-in")
    p_tw.add_argument("graph")
    _add_kernel_option(p_tw)

    p_enum = sub.add_parser("enumerate", help="ranked enumeration")
    p_enum.add_argument("graph")
    p_enum.add_argument(
        "--cost",
        default="width",
        choices=available_costs(),
        help="split-monotone bag cost to rank by",
    )
    p_enum.add_argument("--top", type=int, default=10, help="results to print")
    p_enum.add_argument(
        "--width-bound",
        type=int,
        default=None,
        help="restrict to width <= bound (MinTriangB mode)",
    )
    p_enum.add_argument(
        "--diverse",
        type=int,
        default=None,
        metavar="D",
        help="keep only results pairwise >= D fill edges apart",
    )
    _add_kernel_option(p_enum)
    p_enum.add_argument(
        "--no-preprocess",
        action="store_true",
        help="disable the preprocessing pipeline (safe reductions + "
        "clique-separator atoms with ranked recomposition) and run the "
        "direct enumerator; costs and answer sets are identical either "
        "way, but preprocessing is much faster on decomposable graphs",
    )
    p_enum.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="after printing, write the stream frontier to PATH; a later "
        "run with --resume PATH continues the exact sequence",
    )
    p_enum.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume from a checkpoint written by --checkpoint instead of "
        "starting at rank 0 (--cost/--width-bound come from the token)",
    )

    p_dec = sub.add_parser(
        "decompose", help="write an optimal tree decomposition (.td)"
    )
    p_dec.add_argument("graph")
    p_dec.add_argument("output", help="path of the .td file to write")
    p_dec.add_argument(
        "--cost", default="width", choices=available_costs(), help="objective"
    )

    p_val = sub.add_parser(
        "validate", help="check a .td decomposition against a graph"
    )
    p_val.add_argument("graph")
    p_val.add_argument("decomposition", help="path to the .td file")
    p_val.add_argument(
        "--proper",
        action="store_true",
        help="additionally require properness (clique tree of a minimal triangulation)",
    )

    p_serve = sub.add_parser(
        "serve", help="run the concurrent enumeration service (asyncio TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8737,
        help="bind port (0 picks a free port; the bound address is printed)",
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="concurrent stream slices; with --backend process (the "
        "default) this is the size of the worker-process pool "
        "(default: the CPU count, at least 2), with --backend inprocess "
        "the executor thread count (default: 2)",
    )
    p_serve.add_argument(
        "--backend",
        default="process",
        choices=("process", "inprocess"),
        help="where enumeration slices run: process = long-lived worker "
        "processes with session-affinity routing and crash re-dispatch "
        "(scales past the GIL; default), inprocess = this process's "
        "executor threads (the differential-oracle backend)",
    )
    p_serve.add_argument(
        "--slice-answers",
        type=_positive_int,
        default=None,
        metavar="M",
        help="answers a job streams per slice before yielding its worker "
        "slot (smaller = fairer + faster cancellation; default: the "
        "scheduler's DEFAULT_SLICE_ANSWERS)",
    )
    p_serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="additionally serve the HTTP gateway on PORT (0 picks a "
        "free port): REST job submission with SSE/NDJSON streaming, "
        "plus /metrics (Prometheus) and /health — sharing this "
        "server's scheduler, sessions and worker pool",
    )
    p_serve.add_argument(
        "--token-secret",
        metavar="PATH",
        default=None,
        help="file whose bytes sign the resume tokens; share it across "
        "server instances (or restarts) to make tokens portable — "
        "without it the REPRO_TOKEN_SECRET environment variable is "
        "used, and failing both each server mints a random per-process "
        "key, so tokens only resume against the instance that minted "
        "them",
    )
    _add_cache_dir_option(p_serve)

    p_sub = sub.add_parser(
        "submit", help="submit one job to a running enumeration service"
    )
    p_sub.add_argument(
        "graph", nargs="?", default=None,
        help="path to a .gr or .col file (omit with --resume)",
    )
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8737)
    p_sub.add_argument(
        "--mode",
        default="top",
        choices=("enumerate", "top", "diverse", "decompositions"),
        help="job kind (enumerate = stream until exhausted or capped)",
    )
    p_sub.add_argument(
        "--cost", default="width", choices=available_costs(), help="objective"
    )
    p_sub.add_argument("--top", type=int, default=10, help="answers to request")
    p_sub.add_argument("--width-bound", type=int, default=None)
    p_sub.add_argument(
        "--min-distance", type=_positive_int, default=1,
        help="diverse mode: minimum pairwise fill distance",
    )
    p_sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="seconds before the server pauses the stream into a resume "
        "token (delivered in the terminal frame)",
    )
    p_sub.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write the terminal frame's resume token to PATH",
    )
    p_sub.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume from a token written by --checkpoint (new connection, "
        "same exact sequence)",
    )
    p_sub.add_argument(
        "--format",
        default="plain",
        choices=("plain", "table", "csv", "json"),
        help="answer rendering: plain = one annotated line per answer "
        "(default), table/csv/json = structured rows (rank, cost, width, "
        "bags); structured modes keep stdout machine-readable and move "
        "the terminal summary to stderr",
    )
    p_sub.add_argument(
        "--stats",
        action="store_true",
        help="instead of submitting a job, report server observability: "
        "scheduler counters plus per-worker queue depth, warm-session "
        "fingerprints and cache hit counts",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect and manage the persistent on-disk artifact cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    c_stats = cache_sub.add_parser(
        "stats", help="entry counts, sizes and per-kind counters"
    )
    _add_cache_dir_option(c_stats)
    c_warm = cache_sub.add_parser(
        "warm",
        help="pre-populate the cache from a graph list so later sessions "
        "and service workers start warm",
    )
    c_warm.add_argument(
        "graphs", nargs="+", metavar="GRAPH",
        help="paths to .gr or .col files",
    )
    c_warm.add_argument(
        "--cost",
        action="append",
        choices=available_costs(),
        default=None,
        metavar="COST",
        help="cost spec to warm the prepared DP table for (repeatable; "
        "default: width and fill)",
    )
    c_warm.add_argument(
        "--width-bound", type=int, default=None,
        help="warm the width-bounded (MinTriangB) context instead",
    )
    c_warm.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="additionally store the top-K ranked answer prefix per "
        "graph/cost pair, so repeat enumerate/top requests are served "
        "straight from disk without a worker seat",
    )
    _add_kernel_option(c_warm)
    _add_cache_dir_option(c_warm)
    c_clear = cache_sub.add_parser("clear", help="delete cached entries")
    c_clear.add_argument(
        "--kind",
        choices=("context", "prepared", "plan", "answers"),
        default=None,
        help="only drop one artifact kind (default: everything)",
    )
    _add_cache_dir_option(c_clear)

    sub.add_parser("datasets", help="list the built-in dataset families")

    p_exp = sub.add_parser("experiments", help="run experiment drivers")
    p_exp.add_argument(
        "targets",
        nargs="+",
        choices=["figure5", "figure6", "figure7", "table2", "figure8", "figure9", "all"],
    )
    p_exp.add_argument(
        "--budget",
        type=float,
        default=None,
        help="per-graph seconds for figure7, table2 and figure8 (figure9 "
        "runs max(4, 2 x BUDGET)); unset, each driver runs at its own "
        "default budget",
    )
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _read_input(args.graph)
    print(f"vertices: {graph.num_vertices()}")
    print(f"edges:    {graph.num_edges()}")
    started = time.perf_counter()
    try:
        ctx = Session(kernel=args.kernel).context(graph)
    except SeparatorLimitExceeded as exc:
        print(f"initialization failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = ctx.stats()
    print(f"kernel: {stats['kernel']}")
    print(f"minimal separators: {stats['minimal_separators']:.0f}")
    print(f"potential maximal cliques: {stats['pmcs']:.0f}")
    print(f"full blocks: {stats['full_blocks']:.0f}")
    print(f"initialization: {time.perf_counter() - started:.2f}s")
    return 0


def _cmd_treewidth(args: argparse.Namespace) -> int:
    graph = _read_input(args.graph)
    ctx = None
    if graph.num_vertices() and graph.is_connected():
        ctx = Session(kernel=args.kernel).context(graph)
    print(f"treewidth: {treewidth(graph, context=ctx)}")
    print(f"minimum fill-in: {minimum_fill_in(graph, context=ctx)}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.resume is not None and args.diverse is not None:
        print("error: --resume cannot be combined with --diverse", file=sys.stderr)
        return 2
    graph = _read_input(args.graph)
    session = Session(kernel=args.kernel, preprocess=not args.no_preprocess)
    if args.diverse is not None:
        response = session.diverse(
            graph,
            args.cost,
            k=args.top,
            min_distance=args.diverse,
            width_bound=args.width_bound,
        )
        for i, tri in enumerate(response.results):
            print(f"#{i}: cost={tri.cost} width={tri.width} fill={tri.fill_in()}")
        return 0

    if args.resume is not None:
        from .api.checkpoint import load_checkpoint

        data = _read_input(args.resume, Path.read_bytes)
        try:
            token = load_checkpoint(data)
        except ValueError as exc:
            print(f"error: checkpoint {args.resume}: {exc}", file=sys.stderr)
            return 2
        if graph_fingerprint(graph) != token.fingerprint:
            print(
                f"error: checkpoint {args.resume} was taken on a different "
                f"graph than {args.graph}",
                file=sys.stderr,
            )
            return 2
        try:
            stream = session.resume_stream(token)
        except ValueError as exc:
            print(f"error: checkpoint {args.resume}: {exc}", file=sys.stderr)
            return 2
    else:
        stream = session.stream(graph, args.cost, width_bound=args.width_bound)
    emitted = 0
    for result in stream:
        tri = result.triangulation
        bags = sorted(sorted(map(str, b)) for b in tri.bags)
        print(f"#{result.rank}: cost={result.cost} width={tri.width} bags={bags}")
        emitted += 1
        if emitted >= args.top:
            break
    if args.checkpoint is not None:
        token = stream.checkpoint()
        with open(args.checkpoint, "wb") as fh:
            fh.write(token.to_bytes())
        state = "exhausted" if token.exhausted else f"rank {token.next_rank}"
        print(f"checkpoint written to {args.checkpoint} ({state})")
    if emitted == 0:
        if args.resume is not None:
            print("(nothing left to enumerate)")
        else:
            print("(no feasible triangulation)")
    return 0


def format_output(rows, columns, fmt: str = "table", title: str | None = None) -> str:
    """Render result rows as an aligned table, CSV, or JSON.

    ``rows`` are sequences parallel to ``columns``.  JSON keeps the
    values as-is (lists stay lists); table and CSV stringify them.
    """
    if fmt == "json":
        return json.dumps(
            [dict(zip(columns, row)) for row in rows],
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
        return buffer.getvalue().rstrip("\n")
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(name)), *(len(row[i]) for row in rendered), 0)
        if rendered
        else len(str(name))
        for i, name in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(
        str(name).ljust(width) for name, width in zip(columns, widths)
    ).rstrip())
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip())
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return "|".join(
            ",".join(str(v) for v in bag) if isinstance(bag, (list, tuple))
            else str(bag)
            for bag in value
        )
    return str(value)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve
    from .service.scheduler import DEFAULT_SLICE_ANSWERS

    token_key = None
    if args.token_secret is not None:
        token_key = _read_input(args.token_secret, Path.read_bytes)
        if not token_key:
            print(
                f"error: token secret {args.token_secret} is empty",
                file=sys.stderr,
            )
            return 2
    if args.workers is not None:
        workers = args.workers
    elif args.backend == "process":
        workers = max(os.cpu_count() or 1, 2)
    else:
        workers = 2
    serve(
        host=args.host,
        port=args.port,
        http_port=args.http,
        workers=workers,
        slice_answers=args.slice_answers or DEFAULT_SLICE_ANSWERS,
        token_key=token_key,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError, ServiceRequest
    from .service.protocol import DeadlineFrame, StatsFrame

    if args.stats:
        return _cmd_submit_stats(args)
    if (args.graph is None) == (args.resume is None):
        print(
            "error: submit needs a graph file or --resume PATH (not both)",
            file=sys.stderr,
        )
        return 2
    if args.resume is not None:
        # The token fixes the job: reject flags it would silently override.
        conflicts = [
            flag
            for flag, clashes in (
                ("--mode", args.mode not in ("top", "enumerate")),
                ("--cost", args.cost != "width"),
                ("--width-bound", args.width_bound is not None),
                ("--min-distance", args.min_distance != 1),
            )
            if clashes
        ]
        if conflicts:
            print(
                f"error: {', '.join(conflicts)} cannot be combined with "
                "--resume (cost, bound and mode come from the token)",
                file=sys.stderr,
            )
            return 2
        token = _read_input(args.resume, Path.read_bytes)
        request = ServiceRequest(
            op="enumerate", token=token, k=args.top, deadline=args.deadline
        )
    else:
        request = ServiceRequest(
            op=args.mode,
            graph=_read_input(args.graph),
            cost=args.cost,
            k=args.top,
            width_bound=args.width_bound,
            min_distance=args.min_distance,
            deadline=args.deadline,
        )
    from .service import ProtocolError

    client = ServiceClient(args.host, args.port)
    try:
        result = client.collect(request)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        # e.g. the server was stopped mid-stream: report, don't traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach service at {args.host}:{args.port} ({exc}); "
            "is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    if args.format == "plain":
        for answer in result.answers:
            bags = [list(map(str, bag)) for bag in answer.bags]
            print(
                f"#{answer.rank}: cost={answer.cost} width={answer.width} bags={bags}"
            )
    else:
        rows = [
            (
                answer.rank,
                answer.cost,
                answer.width,
                [list(map(str, bag)) for bag in answer.bags],
            )
            for answer in result.answers
        ]
        print(format_output(rows, ("rank", "cost", "width", "bags"), args.format))
    # Structured formats keep stdout parseable; the summary goes aside.
    summary_out = sys.stdout if args.format == "plain" else sys.stderr
    terminal = result.terminal
    if isinstance(terminal, StatsFrame):
        state = "exhausted" if terminal.exhausted else "more available"
        print(
            f"stats: {terminal.emitted} answers, {terminal.expansions} "
            f"expansions, {terminal.elapsed_seconds:.3f}s ({state})",
            file=summary_out,
        )
    elif isinstance(terminal, DeadlineFrame):
        print(
            f"deadline: paused after {terminal.emitted} answers",
            file=summary_out,
        )
    else:
        print(
            f"cancelled after {terminal.emitted} answers", file=summary_out
        )
    if args.checkpoint is not None:
        if result.checkpoint is not None:
            with open(args.checkpoint, "wb") as fh:
                fh.write(result.checkpoint)
            print(f"resume token written to {args.checkpoint}")
        elif result.exhausted:
            # A fully drained enumeration is success, not an error.
            print("enumeration exhausted; no resume token to write")
        else:
            print(
                f"error: mode {args.mode!r} produced no resume token "
                "(only enumerate/top jobs are pausable)",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_submit_stats(args: argparse.Namespace) -> int:
    """``repro submit --stats``: the service observability report."""
    from .service import ServiceClient, ServiceError

    if args.graph is not None or args.resume is not None:
        print(
            "error: --stats takes no graph and no --resume",
            file=sys.stderr,
        )
        return 2
    client = ServiceClient(args.host, args.port)
    try:
        frame = client.service_stats()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach service at {args.host}:{args.port} ({exc}); "
            "is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    sched = frame.scheduler
    print(
        f"backend: {frame.backend}  jobs: {sched['admitted']} admitted, "
        f"{sched['completed']} completed, {sched['active']} active"
    )
    for row in frame.workers:
        line = (
            f"worker {row['worker']}: pid={row['pid']} "
            f"alive={row['alive']}"
        )
        if row.get("active_jobs") is not None:
            line += f" jobs={row['active_jobs']}"
        if row.get("respawns") is not None:
            line += f" respawns={row['respawns']}"
        print(line)
        if row.get("busy"):
            print("  (busy; session detail unavailable)")
        for kernel, info in sorted((row.get("sessions") or {}).items()):
            cache = info["cache"]
            warm = info["warm"]
            print(
                f"  {kernel}: contexts={cache['contexts']} "
                f"hits={cache['hits']} misses={cache['misses']} "
                f"prepared={cache.get('prepared_tables', 0)}"
            )
            for fp in warm:
                print(f"    warm {fp[:16]}…")
    disk = getattr(frame, "cache", None) or {}
    if disk.get("enabled"):
        print(f"disk cache: {disk.get('path')}")
        for kind, c in sorted((disk.get("kinds") or {}).items()):
            print(
                f"  {kind}: hits={c['hits']} misses={c['misses']} "
                f"stores={c['stores']} evictions={c['evictions']} "
                f"entries={c['entries']} bytes={c['bytes']}"
            )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache stats|warm|clear``: the store's operational surface."""
    from .cache import ENV_CACHE_DIR, open_store, resolve_cache_dir

    if resolve_cache_dir(args.cache_dir) is None:
        print(
            "error: no cache directory; pass --cache-dir or set "
            f"{ENV_CACHE_DIR}",
            file=sys.stderr,
        )
        return 2
    if args.cache_command == "stats":
        store = open_store(args.cache_dir)
        try:
            stats = store.stats()
        finally:
            store.close()
        print(
            f"cache {stats['path']}: {stats['entries']} entries, "
            f"{stats['total_bytes']} bytes (cap {stats['max_bytes']})"
        )
        print(f"schema tag: {stats['schema_tag']}")
        for kind, c in sorted(stats["kinds"].items()):
            print(
                f"  {kind}: entries={c['entries']} bytes={c['bytes']} "
                f"hits={c['hits']} misses={c['misses']} "
                f"evictions={c['evictions']} corrupt={c['corrupt']}"
            )
        return 0
    if args.cache_command == "clear":
        store = open_store(args.cache_dir)
        try:
            dropped = store.clear(args.kind)
        finally:
            store.close()
        what = f"{args.kind} entries" if args.kind else "entries"
        print(f"cleared {dropped} {what}")
        return 0
    # warm
    from .cache import warm_graphs

    costs = tuple(args.cost) if args.cost else ("width", "fill")
    try:
        report = warm_graphs(
            args.graphs,
            costs=costs,
            cache_dir=args.cache_dir,
            kernel=args.kernel,
            width_bound=args.width_bound,
            top=args.top,
            announce=print,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = report.store
    print(
        f"cache {stats['path']}: {stats['entries']} entries, "
        f"{stats['total_bytes']} bytes"
    )
    if not report.ok:
        print(
            f"error: {len(report.errors)} graphs or graph/cost pairs "
            "failed to warm",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .core.decomposition import TreeDecomposition
    from .core.mintriang import min_triangulation
    from .graphs.td_io import write_td

    graph = _read_input(args.graph)
    cost = resolve_cost(args.cost, graph)
    result = min_triangulation(graph, cost)
    assert result is not None
    td = TreeDecomposition.from_bags(result.bags)
    write_td(td, args.output, graph)
    print(
        f"wrote {args.output}: {len(td)} bags, width {td.width}, "
        f"{args.cost} cost {result.cost}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .graphs.td_io import read_td

    graph = _read_input(args.graph)
    td = _read_input(args.decomposition, read_td)
    if not td.is_valid(graph):
        print("INVALID: tree-decomposition axioms violated")
        return 1
    print(f"valid tree decomposition, width {td.width}")
    if args.proper:
        if not td.is_proper(graph):
            print("NOT PROPER: strictly subsumed by another decomposition")
            return 1
        print("proper (clique tree of a minimal triangulation)")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .workloads.registry import DATASETS, dataset

    for name in DATASETS:
        instances = dataset(name)
        sizes = [g.num_vertices() for _n, g in instances]
        print(
            f"{name:18s} {len(instances):3d} graphs, "
            f"|V| in [{min(sizes)}, {max(sizes)}]"
        )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from functools import cache

    from .bench import experiments
    from .bench.reporting import format_table, save_report

    budget = {} if args.budget is None else {"budget": args.budget}
    long_budget = (
        {} if args.budget is None else {"budget": max(4.0, 2 * args.budget)}
    )
    # Figure 6 plots the separator counts Figure 5's probes found.
    figure5 = cache(experiments.figure5)
    targets = {
        "figure5": ("Figure 5: poly-MS tractability per dataset",
                    lambda: figure5()[0]),
        "figure6": ("Figure 6: #minseps vs #edges",
                    lambda: experiments.figure6(figure5()[1])),
        "figure7": ("Figure 7: |MinSep| on G(n,p)",
                    lambda: experiments.figure7(**budget)),
        "table2": ("Table 2: RankedTriang vs CKK",
                   lambda: experiments.table2(**budget)),
        "figure8": ("Figure 8: delays and ratios on G(n,p)",
                    lambda: experiments.figure8(**budget)),
        "figure9": ("Figure 9: case-study time series",
                    lambda: experiments.figure9(**long_budget)),
    }
    for name, (title, run) in targets.items():
        if name not in args.targets and "all" not in args.targets:
            continue
        rows = run()
        text = format_table(rows, title=title)
        print(text)
        save_report(name, rows, text)
        if name == "figure5":
            probes = figure5()[1]
            save_report("figure5_probes", probes, format_table(probes))
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "treewidth": _cmd_treewidth,
    "enumerate": _cmd_enumerate,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "cache": _cmd_cache,
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "datasets": _cmd_datasets,
    "experiments": _cmd_experiments,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Safe to call as a library function: a downstream consumer closing the
    pipe (``BrokenPipeError``) yields the conventional SIGPIPE status 141
    without touching the process's file descriptors, and a missing or
    malformed input file prints ``error: PATH: message`` and returns 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 141
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # pragma: no cover - thin process wrapper
    """Console-script entry point (process-owning variant of :func:`main`).

    Redirects stdout to ``/dev/null`` after a broken pipe so the
    interpreter's exit-time flush cannot raise a second
    ``BrokenPipeError`` traceback — an fd-level action that would be
    wrong inside :func:`main`, which library callers may invoke under a
    redirected or in-memory stdout.
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
