"""Each module of the package keeps its private names to itself.

A leading underscore marks a name as a module's own: its table codes, its
caches, its helpers.  A module that reads another module's private name
depends on a detail that module is free to change, so the format of the
orientation table, for one, would no longer live in ``medium.py`` alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nashwalk"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree: ast.Module) -> set[str]:
    """Every name the module binds: functions, classes, arguments,
    assignment targets and attributes it stores (``self._x = ...``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def foreign_private_reads(source: str) -> list[str]:
    """The private names `source` imports from another module, and the
    private attributes it reads off anything but ``self`` or ``cls`` that it
    does not define itself, each as ``line: name``."""
    tree = ast.parse(source)
    own = defined_names(tree)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hits += [f"{node.lineno}: {a.name}" for a in node.names if is_private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and is_private(node.attr)
            and node.attr not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    return hits


def test_no_module_reads_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    hits = {
        path.name: reads
        for path in modules
        if (reads := foreign_private_reads(path.read_text()))
    }
    assert not hits, f"private names read across modules: {hits}"


def test_the_guard_sees_both_kinds_of_read():
    # an import of another module's private name, and a private attribute
    # read off a foreign object, are caught; a module's own names, and
    # self/cls attributes, are not
    assert foreign_private_reads("from .medium import _axes, edge_index\n") == ["1: _axes"]
    caught = foreign_private_reads(
        "def f(medium):\n    return medium._code_mask(0)\n"
    )
    assert caught == ["2: medium._code_mask"]
    assert foreign_private_reads(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._rows = {}\n"
        "    def g(self, other):\n"
        "        return self._rows, other._rows, _helper(), type(self).__name__\n"
        "def _helper():\n"
        "    return A()._rows\n"
    ) == []
