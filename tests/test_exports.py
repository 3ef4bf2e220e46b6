"""Every name the package re-exports is read somewhere besides its own definition.

A re-export that only tests read is library surface with no user: either the
run path, a demo or the benchmark reads it, or it goes.  Reads are counted
from the syntax tree of ``src/noisyplanar``, ``demos`` and ``benchmarks``:
loaded names, attribute accesses, and the attribute strings that
``benchmarks/tracing.PATCHES`` wraps.  Imports, ``__all__`` entries, comments
and docstrings are not reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noisyplanar"

# resolve_slot's documented return codes: callers compare against them.
ALLOWED_UNREAD = {"SILENT"}


def reexported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _defined_by(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _patched_attrs(stmt: ast.stmt) -> set[str]:
    """The attribute strings of a ``PATCHES = ((owner, "attr", ...), ...)`` table."""
    if "PATCHES" not in _defined_by(stmt) or not isinstance(stmt.value, ast.Tuple):
        return set()
    return {
        row.elts[1].value
        for row in stmt.value.elts
        if isinstance(row, ast.Tuple) and isinstance(row.elts[1], ast.Constant)
    }


def reads(path: Path) -> set[str]:
    """Names a file reads, each top-level statement minus the names it defines."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        here = _patched_attrs(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        found |= here - _defined_by(stmt)
    return found


def test_every_reexport_is_read_outside_its_definition():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    read = set().union(*map(reads, files))
    unread = [name for name in reexported_names() if name not in read | ALLOWED_UNREAD]
    assert not unread, f"re-exported but read nowhere in src/, demos/ or benchmarks/: {unread}"
