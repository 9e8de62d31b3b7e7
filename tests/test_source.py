"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equalshare"


def test_library_invariants_raise_instead_of_asserting():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_private_names_are_used():
    # a private top-level function or class that nothing else in the
    # package names is dead code
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    unused = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            used = any(
                id(n) not in own and node.name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
                for other in trees
                for n in ast.walk(other)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
            )
            if not used:
                unused.append(node.name)
    assert unused == []
