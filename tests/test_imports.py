"""Every module under src/, tests/ and demos/ reads each name it imports,
and the package keeps its layering.

Statements marked ``# noqa: F401`` are exempt: approx re-exports two names
that perfbench's traced run wraps there by name.  ``core`` is the bottom
layer, so it imports nothing from the package, and it owns the graph walks,
so no other module of the package imports ``collections.deque``.
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


def layering_faults(module: str, text: str) -> list[str]:
    """The imports of package module ``module`` that break the layering."""
    faults = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            names = [f"{source}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if module == "core" and name.startswith((".", "coordmp")):
                faults.append(f"core imports {name}")
            if module != "core" and name == "collections.deque":
                faults.append(f"{module} imports {name}")
    return faults


def test_layering_faults_are_found():
    typed = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from coordmp.structure import VertexTypeTag\n"
    )
    assert layering_faults("core", typed) == [
        "core imports coordmp.structure.VertexTypeTag"
    ]
    assert layering_faults("core", "import coordmp\nfrom .oracle import Limits\n") == [
        "core imports coordmp",
        "core imports .oracle.Limits",
    ]
    queue = "from collections import deque\n"
    assert layering_faults("core", queue) == []
    assert layering_faults("havenswap", queue) == ["havenswap imports collections.deque"]


def test_core_is_the_bottom_layer_and_owns_the_walks():
    found = {
        path.stem: faults
        for path in sorted((ROOT / "src" / "coordmp").glob("*.py"))
        if (faults := layering_faults(path.stem, path.read_text(encoding="utf-8")))
    }
    assert found == {}
