"""Every name a module of the package imports at module level is used in that
module, unless the module lists it in ``__all__`` or its import line says
``# noqa: F401``; and every module-level function and class of the package
is referenced from ``src/`` or ``bench/``. Read with the stdlib ``ast``, so
no linter is needed."""

from __future__ import annotations

import ast
import glob
import os
from collections import Counter

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "soldefect")
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> the line of its alias."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                found[name] = alias.lineno
    return found


def _exported(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def _used(tree: ast.AST) -> set[str]:
    """Names read anywhere, string annotations included."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:  # forward references such as "Expression"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[os.path.relpath(p, PACKAGE) for p in MODULES])
def test_every_import_is_used(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text, path)
    lines = text.splitlines()
    unused = [name for name, line in _imported(tree).items()
              if name not in _used(tree) and name not in _exported(tree)
              and "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from os import path, sep\n"
                     "import json  # noqa: F401\n"
                     "import xml.dom as dom, email.message\n"
                     "__all__ = ['sep']\n"
                     "def f(x: 'list[dom]'): return x\n")
    assert set(_imported(tree)) == {"path", "sep", "json", "dom", "email"}
    assert "path" not in _used(tree) and "dom" in _used(tree)
    assert _exported(tree) == {"sep"}


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
REGISTERING = ("register", "register_bytecode")  # the detector registries


def _unreferenced(trees: dict[str, ast.Module], checked: list[str]) -> list[str]:
    """The module-level functions and classes of the ``checked`` modules
    whose name no module of ``trees`` reads, as a name or an attribute,
    outside their own definition; detectors registered with a decorator of
    ``REGISTERING`` are read through their registry."""
    def reads(tree: ast.AST) -> Counter:
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute)))

    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    found = []
    for path in checked:
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or any(
                    isinstance(d, ast.Call) and getattr(d.func, "id", None)
                    in REGISTERING for d in stmt.decorator_list):
                continue
            if everywhere[stmt.name] == reads(stmt)[stmt.name]:
                found.append(f"{os.path.relpath(path, PACKAGE)}: {stmt.name}")
    return found


def test_every_helper_is_referenced():
    sources = MODULES + sorted(glob.glob(os.path.join(BENCH, "*.py")))
    trees = {}
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), path)
    assert _unreferenced(trees, MODULES) == []


def test_an_unreferenced_helper_is_caught():
    trees = {"a.py": ast.parse("def loop(n): return loop(n - 1)\n"
                               "def used(): pass\n"
                               "class Kept: pass\n"
                               "@register(D)\n"
                               "def detect(ctx): pass\n"),
             "b.py": ast.parse("import a\nused()\nx: a.Kept\n")}
    assert _unreferenced(trees, ["a.py"]) == [
        f"{os.path.relpath('a.py', PACKAGE)}: loop"]
