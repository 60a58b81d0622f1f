"""Every top-level import in the package and the tests is read somewhere, and every test module imports."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "orbitpool").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)
TEST_MODULES = sorted(ROOT.glob("tests/test_*.py")) + sorted(ROOT.glob("perfbench/test_*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name listed in ``__all__`` counts as read: it is re-exported.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_imports(path, monkeypatch):
    # pytest reports a module that fails to import as one collection
    # error, which --continue-on-collection-errors lets pass; this makes
    # it a failing test as well
    monkeypatch.syspath_prepend(str(path.parent))
    importlib.import_module(path.stem)
