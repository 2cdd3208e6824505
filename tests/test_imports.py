"""Every module of the package uses each name it imports.

A static check with ``ast``: a name bound by an import statement must
appear as a name elsewhere in the module (an attribute chain counts by
its root).  ``__init__`` is exempt, since its imports are re-exports, and
so is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "szegodet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the import statements of ``source`` bind and it never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import functools\nimport numpy as np\nnp.zeros(1)\n") == ["functools"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from .x import a, b as c\nprint(a)\n") == ["c"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
