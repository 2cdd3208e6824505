"""Static checks of the package source with ``ast``.

Every module of the package uses each name it imports: a name bound by an
import statement must appear as a name elsewhere in the module (an
attribute chain counts by its root).  ``__init__`` is exempt, since its
imports are re-exports, and so is ``from __future__ import ...``.

The library holds no code that only tests reach: see ``test_library_surface``.
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



# exports that no module of the package uses: the API kept for the paper's
# quantities and the curve model (README, "Library API")
KEPT_API = {"takagi", "predict_log_Zn", "suggest_truncation", "log_det_Dn", "zn_beta_circle",
            "eval_map", "curve_samples", "dilate_map"}


def surface(modules: dict[str, str], init: str) -> tuple[list[str], set[str]]:
    """(top-level definitions that no module uses and ``__init__`` does not
    export, exports that no module uses) of {module name: source} and the
    ``__init__`` source; a use is a name or attribute outside its definition."""
    exported = {alias.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, used = [], set()
    for mod, source in modules.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{mod}.{top.name}")
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != getattr(top, "name", None):
                    used.add(name)
    unreached = sorted(d for d in defined if d.split(".")[1] not in used | exported)
    return unreached, exported - used


def test_the_surface_check_sees_unreached_code():
    modules = {"a": "def f():\n    return h()\n\ndef g():\n    return g()\n\ndef h():\n    pass\n\n"
                    "def dead():\n    return dead\n", "b": "from . import a\n\na.f()\n"}
    assert surface(modules, "from .a import f, g\n") == (["a.dead"], {"g"})


def test_library_surface():
    modules = {p.stem: p.read_text() for p in MODULES}
    unreached, unused_exports = surface(modules, (SRC / "__init__.py").read_text())
    assert unreached == []
    assert unused_exports == KEPT_API
