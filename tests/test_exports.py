"""Every public name the package advertises resolves, so deleting a
function cannot leave a stale export behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import tvcate

MODULES = sorted(info.name for info in pkgutil.iter_modules(tvcate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"tvcate.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(tvcate.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, attr in imported:
        source = importlib.import_module(f"tvcate.{module}")
        assert hasattr(source, attr) and getattr(tvcate, attr) is getattr(source, attr)
