"""README.md against the code it documents.

Every option of every subcommand of the CLI parser is named in the
README, and every ``test_<x>.py::<Name>`` reference in the README or in a
docstring of the package names a test that exists.  The test modules are
read with ``ast``, not imported.
"""

import argparse
import ast
import re
from pathlib import Path

from szegodet.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
README = (ROOT / "README.md").read_text()
REFERENCE = re.compile(r"(test_\w+)\.py::(\w+(?:::\w+)*)")


def options(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    """{subcommand: its option strings, --help left out}."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for action in sp._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")]
            for name, sp in sub.choices.items()}


def test_every_option_is_in_the_readme():
    missing = [f"{cmd} {opt}" for cmd, opts in options(build_parser()).items() for opt in opts
               if not re.search(re.escape(opt) + r"(?![\w-])", README)]
    assert missing == []


def docstrings(source: str) -> list[str]:
    """The docstrings of a module, its classes and its functions."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [doc for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)
            for doc in [ast.get_docstring(node)] if doc]


def resolves(module: str, path: list[str]) -> bool:
    """Whether tests/<module>.py defines path[0] at its top level and each
    later name inside the class before it."""
    file = TESTS / f"{module}.py"
    if not file.is_file():
        return False
    body = ast.parse(file.read_text()).body
    for name in path:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_the_reference_check_sees_a_missing_test():
    assert resolves("test_readme", ["test_the_reference_check_sees_a_missing_test"])
    assert not resolves("test_readme", ["test_no_such_test"])
    assert not resolves("test_no_such_module", ["test_x"])
    assert REFERENCE.findall("see `tests/test_a.py::TestB::test_c[1]`.") == [
        ("test_a", "TestB::test_c")]


def test_every_test_reference_names_a_test():
    texts = [README] + [doc for p in sorted((ROOT / "src" / "szegodet").glob("*.py"))
                        for doc in docstrings(p.read_text())]
    refs = [ref for text in texts for ref in REFERENCE.findall(text)]
    assert refs  # the README names tests, so the check has something to check
    assert [f"{m}.py::{p}" for m, p in refs if not resolves(m, p.split("::"))] == []


def test_recorded_run_figures_match_the_committed_run():
    # the README quotes criterion 9's time and the suite's time from the
    # committed run logs; refreshing a log without the README fails here
    quoted = re.search(r"recorded run took ([\d.]+) s for criterion 9 and (\d+) s\s+for the"
                       r"\s+whole suite", README)
    assert quoted
    summary = (ROOT / "acceptance_summary.txt").read_text()
    crit9 = float(re.search(r"ACCEPTANCE 09 .*; ([\d.]+)s / <60s\)", summary).group(1))
    last = (ROOT / "test_output.txt").read_text().strip().splitlines()[-1]
    suite = float(re.search(r" in ([\d.]+)s", last).group(1))
    assert quoted.groups() == (f"{crit9:.1f}", f"{suite:.0f}")
