"""Every module under ``src/repro`` has a user outside the test suite.

The walk starts at the program's surfaces: ``repro.__main__``,
``repro.cli`` and every script under ``examples/``, ``benchmarks/`` and
``perfbench/``.  It follows every ``import`` and ``from … import``
statement, function-level ones included, by parsing the source; nothing
is imported.  The scripts' own relative imports point to their own
folder, whose files are all starting points anyway, so they are skipped.

``from pkg import name`` follows the package ``__init__``'s re-export of
``name`` to the module that defines it.  A package ``__init__`` does not
reach everything it re-exports: ``import repro`` loads every package,
but that makes no module used.  A module the walk leaves unreached is
used by its own tests alone; give it a user or delete it.  The reference
oracles the tests compare against are the only exemption.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPT_FOLDERS = ("examples", "benchmarks", "perfbench")

#: ``(module, reason)``: the modules kept for the tests alone.
ORACLES = (
    ("repro.baselines.brute", "exhaustive minimal triangulations, the enumerators' ground truth"),
    ("repro.pmc.oracle", "PMCs by testing every vertex subset, the PMC listing's ground truth"),
)


def _modules() -> dict[str, Path]:
    """Every module under ``src/repro`` by dotted name; a package's name
    maps to its ``__init__.py``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _source(node: ast.ImportFrom, module: str | None) -> str | None:
    """The absolute name of the module ``node`` imports from, read in
    ``module`` (``None`` for a script, whose relative imports are skipped)."""
    if not node.level:
        return node.module
    if module is None:
        return None
    package = module if _is_package(module) else module.rpartition(".")[0]
    base = package.rsplit(".", node.level - 1)[0]
    return f"{base}.{node.module}" if node.module else base


def _defining(source: str, name: str) -> str:
    """The module that ``from source import name`` reaches: the submodule
    ``name``, else the module a package ``__init__`` re-exports ``name``
    from, else ``source`` itself."""
    if f"{source}.{name}" in MODULES:
        return f"{source}.{name}"
    if _is_package(source):
        for node in _tree(MODULES[source]).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = _source(node, source)
            for alias in node.names:
                if (alias.asname or alias.name) == name and origin in MODULES and origin != source:
                    return _defining(origin, alias.name)
    return source


def _imports(path: Path, module: str | None = None):
    """The ``repro`` modules that the file at ``path`` imports."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module)
            if source in MODULES:
                yield from (_defining(source, alias.name) for alias in node.names)


def reached() -> set[str]:
    """Every module the walk from the surfaces reaches."""
    todo = ["repro.__main__", "repro.cli"]
    for folder in SCRIPT_FOLDERS:
        for script in sorted((ROOT / folder).rglob("*.py")):
            todo.extend(_imports(script))
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if not _is_package(name):
            todo.extend(_imports(MODULES[name], name))
    return seen


def test_every_module_has_a_user():
    exempt = {name for name, _reason in ORACLES}
    assert exempt <= MODULES.keys(), "an exempt oracle no longer exists"
    found = reached()
    unreached = sorted(
        name
        for name in MODULES
        if not _is_package(name) and name not in found and name not in exempt
    )
    assert not unreached, "no surface reaches: " + ", ".join(unreached)
