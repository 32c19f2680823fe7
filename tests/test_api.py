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


def _relative_imports(path):
    """(module, name) of each ``from .module import name`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


SOURCES = sorted(Path(strainforge.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_only_public_names(path):
    # a name taken from a sibling is in its __all__, or public if it has none;
    # ``from . import module`` is a module import and always allowed
    private = []
    for modname, name in _relative_imports(path):
        mod = importlib.import_module(f"strainforge.{modname}")
        exported = getattr(mod, "__all__", None)
        public = name in exported if exported is not None else not name.startswith("_")
        if not public:
            private.append(f"{modname}.{name}")
    assert private == []
