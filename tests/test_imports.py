"""Every module under src/, tests/ and demos/ reads each name it imports.

Statements marked ``# noqa: F401`` are exempt: approx re-exports two names
that perfbench's traced run wraps there by name.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``text`` never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports the names its __all__ lists
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    text = (
        "import os\n"
        "import os.path as osp\n"
        "from re import compile, sub  # noqa: F401\n"
        "from json import dumps, loads\n"
        "def f():\n"
        "    import sys\n"
        "    return loads\n"
    )
    assert unused_imports(text) == [(1, "os"), (2, "osp"), (4, "dumps"), (6, "sys")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_reads():
    found = {
        str(path.relative_to(ROOT)): unused
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
