"""Checkers stay apart from producers: no checker module reaches a producer
through the package's imports, and no producer reaches a checker."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "twoteam"

# Each module, and the package modules it must not import, directly or
# through another package module.  The oracles and the point verifiers
# check what the reductions and the solver produce.
APART = {
    "oracle": {"membership_solver", "reductions"},
    "instances": {"membership_solver", "reductions"},
    "reductions": {"oracle", "membership_solver"},
    "membership_solver": {"oracle", "reductions"},
}


def package_imports(source: str) -> set:
    """The twoteam modules that ``source`` imports, anywhere in the file.

    ``from .x import y`` and ``from twoteam.x import y`` import x; ``from .
    import x`` and ``from twoteam import x`` import x itself; ``import
    twoteam.x`` imports x.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found |= {p[1] for p in parts if p[0] == "twoteam" and len(p) > 1}
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "twoteam":
                    continue
                parts = parts[1:]
            found |= {parts[0]} if parts else {alias.name for alias in node.names}
    return found


def reachable(graph: dict, start: str) -> set:
    """The modules that ``start`` imports, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_package_imports_finds_what_it_should():
    source = (
        "import numpy as np\n"
        "import twoteam.game_core\n"
        "from . import cli, oracle\n"
        "from .instances import BoxPoint\n"
        "from twoteam.lp_solver import solve_lp\n"
        "from twoteam import reductions\n"
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    from .membership_solver import solve\n"
    )
    assert package_imports(source) == {"game_core", "cli", "oracle", "instances", "lp_solver",
                                       "reductions", "membership_solver"}
    graph = {"a": {"b"}, "b": {"c", "a"}, "c": set(), "d": {"a"}}
    assert reachable(graph, "a") == {"a", "b", "c"}
    assert reachable(graph, "c") == set()


def test_checkers_stay_apart_from_producers():
    graph = {p.stem: package_imports(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert set(APART) <= set(graph)
    crossings = {name: sorted(reachable(graph, name) & banned) for name, banned in APART.items()}
    assert not any(crossings.values()), crossings
