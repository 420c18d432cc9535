"""Module boundaries: every exported name exists, so a deletion cannot leave a
stale export, only ``hrmix.data`` reads or writes CSV, and no module keeps an
import it does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hrmix

MODULES = ["hrmix"] + sorted(m.name for m in pkgutil.iter_modules(hrmix.__path__, "hrmix."))


def test_every_module_with_exports_is_checked():
    assert {"hrmix.analysis", "hrmix.cox", "hrmix.data", "hrmix.estimators"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_only_data_imports_csv(name):
    # every CSV file goes through data's one reader and one writer
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert ("csv" in imported) == (name == "hrmix.data")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "hrmix"])
def test_no_unused_imports(name):
    # a module imports only what it uses; a name in its __all__ counts as used
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - set(getattr(module, "__all__", [])) == set()
