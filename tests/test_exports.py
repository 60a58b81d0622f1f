"""The export surface: every name in an ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import orbitpool

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
