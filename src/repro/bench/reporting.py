"""Plain-text rendering and persistence of experiment reports.

Each experiment driver produces rows (lists of dicts); these helpers
render the fixed-width tables printed by the benchmarks and persist
them under ``results/``, each table beside a machine-readable JSON copy.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

__all__ = ["format_table", "format_value", "save_report", "results_dir", "ascii_series"]


def results_dir(base: str | Path | None = None) -> Path:
    """The ``results/`` directory (created on demand)."""
    path = Path(base) if base is not None else Path("results")
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_value(value: Any) -> str:
    """Compact human formatting: floats trimmed, infinities marked."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "-"
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if value is None:
        return "-"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[format_value(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def ascii_series(
    points: Sequence[tuple[float, float]],
    width: int = 60,
    height: int = 12,
    log_y: bool = False,
    title: str | None = None,
) -> str:
    """A tiny ASCII scatter for the figure-shaped experiments."""
    if not points:
        return "(no points)\n"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_y:
        ys = [math.log10(max(y, 1e-12)) for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    canvas = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        canvas[height - 1 - row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    axis_label = "log10(y)" if log_y else "y"
    lines.append(f"{axis_label}: [{y_lo:.2f} .. {y_hi:.2f}]   x: [{x_lo:.2f} .. {x_hi:.2f}]")
    lines.extend("|" + "".join(row) for row in canvas)
    lines.append("+" + "-" * width)
    return "\n".join(lines) + "\n"


def save_report(
    name: str,
    rows: Sequence[Mapping[str, Any]],
    text: str,
    base: str | Path | None = None,
) -> Path:
    """Persist a report as ``results/<name>.json`` and ``.txt``.

    Returns the JSON path.
    """
    directory = results_dir(base)
    json_path = directory / f"{name}.json"

    def default(o: Any) -> Any:
        if isinstance(o, (frozenset, set)):
            return sorted(map(str, o))
        return str(o)

    json_path.write_text(json.dumps(list(rows), indent=2, default=default))
    (directory / f"{name}.txt").write_text(text)
    return json_path
