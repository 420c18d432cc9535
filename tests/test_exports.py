"""Module boundaries: every exported name exists, so a deletion cannot leave a
stale export, only ``hrmix.data`` reads or writes CSV, no module keeps an
import it does not use, and no private name is left unused.  README lists every export, every scenario kind and
every ``--weights`` name, as the code defines them."""

import ast
import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import hrmix
from hrmix import cli, data

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


def _defined(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        bound = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        bound = [stmt.target]
    else:
        return []
    return [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]


def _named(node):
    """Every name ``node`` reads, imports, or looks up as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_no_dead_private_code():
    # a private function, class or constant is named by some other
    # module-level statement of the package, so a deletion leaves no orphan
    package = Path(hrmix.__file__).parent
    stmts = [s for p in sorted(package.glob("*.py")) for s in ast.parse(p.read_text("utf-8")).body]
    users: dict = {}
    for i, stmt in enumerate(stmts):
        for name in set(_named(stmt)):
            users.setdefault(name, set()).add(i)
    private = [
        (i, name)
        for i, stmt in enumerate(stmts)
        for name in _defined(stmt)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private
    assert [name for i, name in private if not users.get(name, set()) - {i}] == []


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _backticked(text):
    return re.findall(r"`([^`]+)`", text)


def test_readme_api_section_lists_every_all():
    section = README.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        item.group(1): _backticked(item.group(2))
        for item in re.finditer(r"^- `(hrmix\.\w+)`:(.*?)(?=^- |\Z)", section, flags=re.M | re.S)
    }
    exported = {
        name: list(importlib.import_module(name).__all__)
        for name in MODULES
        if hasattr(importlib.import_module(name), "__all__")
    }
    assert listed == exported


def test_readme_names_every_scenario_kind_and_field():
    for what, kinds in data._KINDS.items():
        sentence = re.search(rf"`{what}` kinds: (.*?)\.\s", README, flags=re.S).group(1)
        named = {
            kind: _backticked(with_fields)
            for kind, with_fields in re.findall(r"`(\w+)`(?:\s+\(with ([^)]*)\))?", sentence)
        }
        assert named == {kind: [f.name for f in fields(cls)] for kind, cls in kinds.items()}


def test_readme_names_every_weights_scheme():
    sentence = re.search(r"`estimate --weights` (.*?)\.\s", README, flags=re.S).group(1)
    named = re.findall(r"`([\w-]+)`\s+\((the default,\s+)?`(\w+)`\)", sentence)
    assert [(flag, cls) for flag, _, cls in named] == [
        (flag, cls.__name__) for flag, cls in cli._WEIGHTS.items()
    ]
    # the first name is the default
    assert [bool(default) for _, default, _ in named] == [True] + [False] * (len(named) - 1)
