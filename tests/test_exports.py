"""Every exported name resolves: a name left in an ``__all__`` after its
definition was deleted fails here rather than at a user's ``import *``."""
import importlib
import pkgutil

import pytest

import thermocasimir

MODULES = ["thermocasimir"] + [
    f"thermocasimir.{info.name}"
    for info in pkgutil.iter_modules(thermocasimir.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
