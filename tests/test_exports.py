"""Every exported name resolves, so no deletion leaves a stale export behind, every
exported function or class has a use outside the tests, and every module-level private
name has a use in the package."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import ridgeless

MODULES = ["cli", "design", "diagnostics", "experiments", "noise", "serialize", "spectra"]
SRC = Path(ridgeless.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "pyproject.toml")  # a mention in either is a use


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ridgeless.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_resolve():
    # each name ridgeless/__init__.py imports is public in its module and bound
    tree = ast.parse(Path(ridgeless.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ridgeless.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(ridgeless, alias.name) is getattr(module, alias.name)


def _refers_to(tree: ast.AST, name: str) -> bool:
    """Whether tree reads name, bare or as an attribute, outside name's own def or class."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _perfbench_imports() -> set:
    """The names that perfbench/ imports from the package (from ridgeless... import NAME)."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ridgeless"):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_and_classes_are_used_outside_the_tests(name):
    # a use is a reference in src/ (not the definition, not an __all__ entry or a
    # re-export), a mention in README.md or pyproject.toml, or a perfbench/ import
    module = importlib.import_module(f"ridgeless.{name}")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    docs = "".join((ROOT / doc).read_text(encoding="utf-8") for doc in DOCS)
    imported = _perfbench_imports()
    unused = [
        attr for attr in module.__all__
        if (inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr)))
        and attr not in imported
        and not re.search(rf"\b{attr}\b", docs)
        and not any(_refers_to(tree, attr) for tree in trees)
    ]
    assert unused == []


def _private_names(tree: ast.Module) -> list:
    """The functions, classes and constants a module defines at top level under a _name."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_used_in_the_package(name):
    # a use is a read in src/ outside the name's own definition, so a helper
    # that only the tests still call fails here
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    unused = [n for n in _private_names(tree) if not any(_refers_to(t, n) for t in trees)]
    assert unused == []
