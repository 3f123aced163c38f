"""Every name a runtime module imports is used in that module, and every
module-level name a runtime module defines is referenced somewhere in the
runtime, its tests or its benchmark."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rrt

PACKAGE = Path(rrt.__file__).parent
SOURCES = sorted(
    path
    for path in PACKAGE.rglob("*.py")
    if path.name != "__init__.py"  # a package's imports are its re-exports
)
ROOT = Path(__file__).resolve().parents[1]
REFERENCING = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


def module_level_names(source: str) -> dict[str, int]:
    """Functions, classes and assigned names at module level; dunders exempt."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return {n: line for n, line in names.items() if not (n.startswith("__") and n.endswith("__"))}


def referenced_names(source: str) -> set[str]:
    """Names read as a variable or an attribute anywhere in the source.

    Imports are not reads, so a re-export in an ``__init__.py`` counts for
    nothing, and neither does a string in ``__all__``.
    """
    refs: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            refs.add(node.attr)
    return refs


def unreferenced(source: str, references: set[str]) -> list[str]:
    return [
        f"line {line}: {name}"
        for name, line in module_level_names(source).items()
        if name not in references
    ]


@pytest.fixture(scope="module")
def references() -> set[str]:
    refs: set[str] = set()
    for top in REFERENCING:
        for path in (ROOT / top).rglob("*.py"):
            refs |= referenced_names(path.read_text(encoding="utf-8"))
    return refs


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_every_module_level_name_is_referenced(path, references):
    assert unreferenced(path.read_text(encoding="utf-8"), references) == []


def test_checker_flags_an_unreferenced_name():
    module = (
        "__all__ = ['exported', 'used']\n"
        "LIMIT = 3\n"
        "def used(): return LIMIT\n"
        "def exported(): pass\n"
        "class Gone: pass\n"
    )
    package = "from .module import exported, used\n"
    client = "import pkg\npkg.used()\nGone = 1\n"
    refs = set().union(*(referenced_names(s) for s in (module, package, client)))
    assert unreferenced(module, refs) == ["line 4: exported", "line 5: Gone"]
