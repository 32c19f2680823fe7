"""The public namespace: every exported name resolves and has a user.

perfbench's tracer looks up each module's ``__all__`` with getattr, so a
name left behind by a deletion would break every traced run.
"""

import ast
import importlib
import pkgutil
import re
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


ROOT = Path(__file__).resolve().parents[1]


def _names_used(path):
    """Identifiers a module reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _script_targets():
    """(module, name) of each ``[project.scripts]`` entry in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r'=\s*"strainforge\.(\w+):(\w+)"', section.group(1)))


def _readme_library_api():
    """Every identifier inside backticks in README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return {word for code in re.findall(r"`([^`]+)`", section.group(1) if section else "")
            for word in re.findall(r"\w+", code)}


def test_every_exported_name_has_a_user():
    # a name in __all__ is used by another module of the package (the
    # package's own re-exports do not count), is a console script, or is
    # listed with its reason in README's Library API section
    used_by = {path.stem: _names_used(path) for path in SOURCES}
    scripts = _script_targets()
    documented = _readme_library_api()
    idle = []
    for modname in MODULES:
        short = modname.rsplit(".", 1)[1]
        others = set().union(*(u for stem, u in used_by.items()
                               if stem not in (short, "__init__")))
        for name in getattr(importlib.import_module(modname), "__all__", []):
            if name not in others and (short, name) not in scripts \
                    and name not in documented:
                idle.append(f"{short}.{name}")
    assert idle == []
