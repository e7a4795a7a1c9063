"""Every submodule of the package is reachable as a module, and every
private module-level name is used.

A package-level name equal to a submodule's, such as a re-exported function
``optimize``, would shadow it: ``import hermsynth.optimize as m`` then binds
the function.
"""

import ast
import pkgutil
import types
from pathlib import Path

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


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and assigned names of ``tree``
    that start with one underscore and are not dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)
            )
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def used_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, every attribute it names and every name
    it imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_no_unused_private_names():
    # a private helper that nothing in the package reads is dead code
    trees = [ast.parse(path.read_text()) for path in Path(hermsynth.__file__).parent.glob("*.py")]
    assert len(trees) > len(SUBMODULES)
    defined = set().union(*map(private_definitions, trees))
    used = set().union(*map(used_names, trees))
    assert {"_blocks", "_rotate", "_new_step"} <= defined
    assert sorted(defined - used) == []
