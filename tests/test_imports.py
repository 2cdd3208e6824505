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
# quantities and the curve model (README, "Library API"); and OperatorPair.K,
# which only the benchmark's input screen reads
KEPT_API = {"takagi", "predict_log_Zn", "suggest_truncation", "log_det_Dn", "zn_beta_circle",
            "eval_map", "curve_samples", "dilate_map", "grunsky.OperatorPair.K"}


def _uses(node, inside=frozenset()):
    """(name, whether it is an attribute) of each name or attribute under
    node that is not the name of a definition enclosing it."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if name is not None and name not in inside:
        yield name, isinstance(node, ast.Attribute)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, inside)


def surface(modules: dict[str, str], init: str) -> tuple[list[str], set[str]]:
    """(definitions that no module uses and ``__init__`` does not export,
    exports that no module uses) of {module name: source} and the
    ``__init__`` source.  The definitions are the top-level functions and
    classes, and the public methods and properties of those classes; a
    use is a name or attribute outside its definition, and for a method
    an attribute."""
    exported = {alias.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, methods, used, attrs = [], [], set(), set()
    for mod, source in modules.items():
        tree = ast.parse(source)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{mod}.{top.name}")
            if isinstance(top, ast.ClassDef):
                methods += [f"{mod}.{top.name}.{f.name}" for f in top.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        for name, attr in _uses(tree):
            (attrs if attr else used).add(name)
    used |= attrs
    unreached = [d for d in defined if d.split(".")[1] not in used | exported]
    unreached += [d for d in methods if d.split(".")[2] not in attrs]
    return sorted(unreached), exported - used


def test_the_surface_check_sees_unreached_code():
    modules = {"a": "def f():\n    return h()\n\ndef g():\n    return g()\n\ndef h():\n    pass\n\n"
                    "def dead():\n    return dead\n\n"
                    "class C:\n    def m(self):\n        return self.m()\n\n"
                    "    @property\n    def p(self):\n        p = 1\n        return p\n\n"
                    "    def _private(self):\n        pass\n",
               "b": "from . import a\n\na.f()\nm = a.C()\n"}
    assert surface(modules, "from .a import f, g\n") == (["a.C.m", "a.C.p", "a.dead"], {"g"})


def test_library_surface():
    modules = {p.stem: p.read_text() for p in MODULES}
    unreached, unused_exports = surface(modules, (SRC / "__init__.py").read_text())
    assert unreached == sorted(name for name in KEPT_API if "." in name)
    assert unused_exports == {name for name in KEPT_API if "." not in name}
