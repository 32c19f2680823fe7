"""The public namespace: every exported name resolves.

perfbench's tracer looks up each module's ``__all__`` with getattr, so a
name left behind by a deletion would break every traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import strainforge

MODULES = sorted(
    f"strainforge.{info.name}" for info in pkgutil.iter_modules(strainforge.__path__)
)


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_resolve_and_are_public():
    # each name the package re-exports exists in, and is exported by, its module
    tree = ast.parse(Path(strainforge.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"strainforge.{node.module}")
        for alias in node.names:
            assert hasattr(strainforge, alias.asname or alias.name)
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
