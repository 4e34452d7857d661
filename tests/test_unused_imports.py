"""Every name a module of the package imports is used in that module."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "aae").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from .errors import ParseError, ValidationError as VE\n"
              "def f():\n    from .oracle import CostParams\n"
              "    raise VE(os.path.sep)\n")
    assert unused_imports(source) == [
        "line 6: CostParams", "line 4: ParseError", "line 2: math"]
