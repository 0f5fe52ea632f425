import ast
import importlib
from pathlib import Path

import pytest

import mildsde

MODULES = ["cli", "coefficients", "convolution", "models", "noise", "semigroup", "solver",
           "state_space"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mildsde.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # every name the package __init__ imports exists in its submodule and is
    # listed in that submodule's __all__
    tree = ast.parse(Path(mildsde.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            module = importlib.import_module(f"mildsde.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"
                assert getattr(mildsde, alias.name) is getattr(module, alias.name)
