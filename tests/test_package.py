"""Every submodule of the package is reachable as a module.

A package-level name equal to a submodule's, such as a re-exported function
``optimize``, would shadow it: ``import hermsynth.optimize as m`` then binds
the function.
"""

import pkgutil
import types

import pytest

import hermsynth

SUBMODULES = [m.name for m in pkgutil.iter_modules(hermsynth.__path__) if not m.name.startswith("_")]


def test_submodules_found():
    assert {"circuit", "jacobi", "optimize", "twolevel"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_gives_module(name):
    namespace = {}
    exec(f"import hermsynth.{name} as m", namespace)
    assert isinstance(namespace["m"], types.ModuleType)
    assert namespace["m"].__name__ == f"hermsynth.{name}"
