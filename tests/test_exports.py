"""Every exported name resolves, so no deletion leaves a stale export behind."""

import ast
import importlib
from pathlib import Path

import pytest

import ridgeless

MODULES = ["cli", "design", "diagnostics", "experiments", "noise", "serialize", "spectra"]


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
