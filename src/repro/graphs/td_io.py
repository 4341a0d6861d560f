"""The PACE ``.td`` tree-decomposition exchange format.

PACE challenges exchange computed decompositions as::

    c an optional comment
    s td <num_bags> <max_bag_size> <num_vertices>
    b 1 1 2 3
    b 2 2 3 4
    1 2

(``b <bag-id> <vertices...>`` lines, then tree edges between bag ids; all
ids 1-based).  Writing our :class:`~repro.core.decomposition.TreeDecomposition`
in this format makes the library's output consumable by PACE validators
and downstream solvers, and reading lets us validate third-party
decompositions against a graph (the CLI's ``validate`` command).
"""

from __future__ import annotations

from pathlib import Path

from ..core.decomposition import TreeDecomposition
from .graph import Graph
from .io import parse_int

__all__ = ["parse_td", "to_td", "read_td", "write_td"]


def parse_td(text: str) -> TreeDecomposition:
    """Parse a PACE ``.td`` document.

    Vertex labels are kept as the integers in the file.  Bag ids are
    renumbered to 0-based node ids.

    Raises
    ------
    ValueError
        On malformed documents (missing/duplicate solution line, unknown
        bag references, bag-count mismatch, a non-integer token); a
        malformed line's message starts ``line N:``.
    """
    declared_bags: int | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int, int]] = []  # (line, bag id, bag id)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if declared_bags is not None:
                raise ValueError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"line {lineno}: malformed solution line {line!r}")
            declared_bags = parse_int(parts[2], lineno)
        elif parts[0] == "b":
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: malformed bag line {line!r}")
            bag_id = parse_int(parts[1], lineno)
            if bag_id in bags:
                raise ValueError(f"line {lineno}: duplicate bag {bag_id}")
            bags[bag_id] = frozenset(parse_int(v, lineno) for v in parts[2:])
        else:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}")
            edges.append((lineno, *(parse_int(t, lineno) for t in parts)))
    if declared_bags is None:
        raise ValueError("missing solution line (s td ...)")
    if len(bags) != declared_bags:
        raise ValueError(
            f"solution line declared {declared_bags} bags, found {len(bags)}"
        )
    mapping = {bag_id: i for i, bag_id in enumerate(sorted(bags))}
    for lineno, a, b in edges:
        if a not in mapping or b not in mapping:
            raise ValueError(f"line {lineno}: tree edge ({a}, {b}) references unknown bag")
    return TreeDecomposition(
        {mapping[bid]: members for bid, members in bags.items()},
        [(mapping[a], mapping[b]) for _, a, b in edges],
    )


def to_td(decomposition: TreeDecomposition, graph: Graph | None = None) -> str:
    """Serialize a decomposition to the PACE ``.td`` format.

    Vertices must be integers (PACE graphs are 1-based integers); pass the
    ``graph`` to record the true vertex count in the solution line (else
    the union of the bags is used).
    """
    all_vertices: set = set()
    for bag in decomposition.bags.values():
        all_vertices |= bag
    if not all(isinstance(v, int) for v in all_vertices):
        raise ValueError(".td serialization requires integer vertex labels")
    num_vertices = (
        graph.num_vertices() if graph is not None else len(all_vertices)
    )
    max_bag = max((len(b) for b in decomposition.bags.values()), default=0)
    node_ids = {node: i for i, node in enumerate(sorted(decomposition.bags), start=1)}
    lines = [f"s td {len(decomposition.bags)} {max_bag} {num_vertices}"]
    for node in sorted(decomposition.bags):
        members = " ".join(map(str, sorted(decomposition.bags[node])))
        lines.append(f"b {node_ids[node]} {members}".rstrip())
    for a, b in sorted(
        (min(node_ids[x], node_ids[y]), max(node_ids[x], node_ids[y]))
        for x, y in decomposition.edges
    ):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def read_td(path: str | Path) -> TreeDecomposition:
    """Read a ``.td`` file."""
    return parse_td(Path(path).read_text())


def write_td(
    decomposition: TreeDecomposition,
    path: str | Path,
    graph: Graph | None = None,
) -> None:
    """Write a ``.td`` file."""
    Path(path).write_text(to_td(decomposition, graph))
