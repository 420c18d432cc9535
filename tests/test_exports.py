"""Every name a module exports exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

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
