"""Every name a module lists in ``__all__`` resolves, so deleted code cannot linger there."""

import importlib
import pkgutil

import pytest

import qhakit

MODULES = sorted(m.name for m in pkgutil.iter_modules(qhakit.__path__, "qhakit."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
