"""Every public name a module lists resolves, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import subcurv

MODULES = ["subcurv"] + [
    f"subcurv.{m.name}" for m in pkgutil.iter_modules(subcurv.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})
