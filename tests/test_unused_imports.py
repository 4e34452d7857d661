"""Every name a module of the package imports, and every private name (`_x`)
it defines at module level, is read in that module."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "aae").glob("*.py"))


def private_names(tree: ast.Module) -> dict[str, int]:
    """Line of each private name a top-level def, class or assignment binds."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and \
                            isinstance(name.ctx, ast.Store):
                        bound[name.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__")}


def unused_names(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = {**imported, **private_names(tree)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_names(path.read_text()) == []


def test_check_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .errors import ParseError, ValidationError as VE\n"
              "_KEPT, _DEAD = 1, 2\n_TABLE: dict = {}\n"
              "def f():\n    from .oracle import CostParams\n"
              "    raise VE(os.path.sep, _KEPT, _TABLE)\n"
              "def _helper():\n    _local = 1\n    return _local\n"
              "class _Unused:\n    pass\n")
    assert unused_names(source) == [
        "line 8: CostParams", "line 4: ParseError", "line 5: _DEAD",
        "line 13: _Unused", "line 10: _helper", "line 2: math"]
