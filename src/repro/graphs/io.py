"""Reading and writing graphs in the PACE ``.gr`` and DIMACS formats.

The PACE treewidth challenges exchange graphs in the ``.gr`` format::

    c a comment
    p tw <n> <m>
    1 2
    2 3

and DIMACS coloring instances use ``p edge <n> <m>`` with ``e u v`` lines.
Both use 1-based vertex numbering; we keep the integer labels as-is.
"""

from __future__ import annotations

from pathlib import Path

from .graph import Graph

__all__ = ["parse_gr", "to_gr", "parse_dimacs", "to_dimacs", "read_graph", "write_graph"]


def parse_int(token: str, lineno: int) -> int:
    """``int(token)``, refused as ``line N: ...`` like any malformed line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {token!r}") from None


def parse_gr(text: str) -> Graph:
    """Parse a PACE ``.gr`` document into a :class:`Graph`."""
    graph = Graph()
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "tw":
                raise ValueError(f"line {lineno}: malformed problem line {line!r}")
            declared = parse_int(parts[2], lineno)
            for v in range(1, declared + 1):
                graph.add_vertex(v)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed edge line {line!r}")
        u, v = (parse_int(t, lineno) for t in parts)
        if u != v:
            graph.add_edge(u, v)
    if declared is not None and graph.num_vertices() != declared:
        raise ValueError(
            f"problem line declared {declared} vertices, found {graph.num_vertices()}"
        )
    return graph


def to_gr(graph: Graph) -> str:
    """Serialize ``graph`` to the PACE ``.gr`` format.

    Vertices are renumbered to ``1..n`` in iteration order.
    """
    mapping = {v: i for i, v in enumerate(graph.vertices, start=1)}
    lines = [f"p tw {graph.num_vertices()} {graph.num_edges()}"]
    for u, v in sorted((mapping[a], mapping[b]) for a, b in graph.edges()):
        if u > v:
            u, v = v, u
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS ``p edge`` coloring document into a :class:`Graph`."""
    graph = Graph()
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 3 or parts[1] not in {"edge", "edges", "col"}:
                raise ValueError(f"line {lineno}: malformed problem line {line!r}")
            declared = parse_int(parts[2], lineno)
            for v in range(1, declared + 1):
                graph.add_vertex(v)
        elif parts[0] == "e":
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}")
            u, v = (parse_int(t, lineno) for t in parts[1:3])
            if u != v:
                graph.add_edge(u, v)
        elif parts[0] in {"n", "x"}:  # node weights / extensions: ignored
            continue
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    return graph


def to_dimacs(graph: Graph) -> str:
    """Serialize ``graph`` to the DIMACS ``p edge`` format (1-based)."""
    mapping = {v: i for i, v in enumerate(graph.vertices, start=1)}
    lines = [f"p edge {graph.num_vertices()} {graph.num_edges()}"]
    for u, v in sorted((mapping[a], mapping[b]) for a, b in graph.edges()):
        if u > v:
            u, v = v, u
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path) -> Graph:
    """Read a graph file, dispatching on extension (``.gr`` or ``.col``)."""
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".col" or "p edge" in text[:2000]:
        return parse_dimacs(text)
    return parse_gr(text)


def write_graph(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` in a format chosen by the file extension."""
    p = Path(path)
    if p.suffix == ".col":
        p.write_text(to_dimacs(graph))
    else:
        p.write_text(to_gr(graph))
