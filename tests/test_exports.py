"""The export surface: every name in an ``__all__`` exists, and the top level exports what callers import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import orbitpool
from test_demos import quick_start

ROOT = Path(__file__).resolve().parents[1]
ERRORS = {"SupportError", "ImageDataError", "ImageFormatError"}
MODULES = ["orbitpool"] + sorted(m.name for m in pkgutil.iter_modules(orbitpool.__path__, "orbitpool."))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)


def test_star_import():
    namespace = {}
    exec("from orbitpool import *", namespace)
    assert set(orbitpool.__all__) <= set(namespace)


def top_level_imports(source):
    """The names a module imports from ``orbitpool`` itself, not from one of its modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "orbitpool" and not node.level
        for alias in node.names
    }


def test_top_level_exports_what_demos_and_quick_start_import():
    # plus the documented error classes; everything else is imported from
    # its own module, so the surface does not grow back
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))] + [quick_start()]
    used = set().union(*map(top_level_imports, sources))
    submodules = {module.name for module in pkgutil.iter_modules(orbitpool.__path__)}
    assert set(orbitpool.__all__) == (used - submodules) | ERRORS
