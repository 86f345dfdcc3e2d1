"""Every imported name in the package and the tests is used."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names ``source`` imports and never reads, as (line, name) pairs.

    ``from __future__`` imports and import statements marked ``# noqa:
    F401`` are skipped; a name counts as read wherever it appears as a
    bare name, attribute bases included.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from json import dumps as d, loads\n"
        "from math import pi  # noqa: F401\n"
        "def f():\n"
        "    from itertools import chain\n"
        "    return sys.argv, numpy.linalg, d\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "loads"), (7, "chain")]


def test_no_unused_imports():
    # __init__.py only re-exports.
    paths = [p for top in ("src/twoteam", "tests") for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}"
              for p in paths for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not unused, unused
