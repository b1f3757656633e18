"""Checks on the package source that need no linter: no module imports a
name it never uses, and every function and class the package defines is
used by the package or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ellipslam"


def unused_imports(source) -> list:
    """Names bound by the imports of `source` that it never reads: neither
    as a name, nor in a string annotation, nor in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                used.update(n.id for n in ast.walk(ast.parse(a.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .se3 import Pose, Twist, compose\n"
        "__all__ = ['compose']\n"
        "def f(x) -> 'Pose':\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == ["Twist (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(defining, readers) -> list:
    """Functions and classes defined in `defining` (module name -> source)
    whose name no source in `readers` reads outside a definition of that
    name: neither as a name, nor as an attribute, nor in `__all__`. Dunder
    methods are exempt; a name defined twice is used when either is."""
    defs = []
    for module, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((node.name, f"{module}.{node.name} (line {node.lineno})"))
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            used.add(name)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in readers:
        visit(ast.parse(source), frozenset())
    return sorted(where for name, where in defs if name not in used)


def test_reference_checker_finds_unreferenced_and_accepts_used():
    source = (
        "class Pose:\n"
        "    def __init__(self):\n"
        "        self.rotation = None\n"
        "    def matrix(self):\n"
        "        return self.matrix\n"
        "    def inverse(self):\n"
        "        return Pose()\n"
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def helper():\n"
        "    return 0\n"
        "def exported():\n"
        "    return 0\n"
        "__all__ = ['exported']\n"
    )
    # `matrix` and `fact` read themselves only, and `Pose` reads itself
    # in `inverse`; the other source reads `helper`, `Pose` and, as an
    # attribute, `inverse`
    reader = "from m import Pose, helper\nhelper()\nPose().inverse()\n"
    assert unreferenced_definitions({"m": source}, [source, reader]) == [
        "m.fact (line 8)", "m.matrix (line 4)"]


def test_every_definition_is_referenced():
    paths = sorted(SRC.glob("*.py"))
    defining = {p.stem: p.read_text(encoding="utf-8") for p in paths}
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    readers = list(defining.values()) + [p.read_text(encoding="utf-8") for p in bench]
    assert unreferenced_definitions(defining, readers) == []
