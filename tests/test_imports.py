"""Every name a runtime module imports is used in that module; every
module-level name a runtime module defines is referenced somewhere in the
runtime, its tests or its benchmark; every option a runtime module
declares is set somewhere there, by a call of that very function or class;
and importing the runtime loads no stdlib HTTP stack."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable

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


#: An option as call sites reach it: (callee name, keyword or argument position).
Option = tuple[str, str | int]
#: The keyword of a call that passes ``**`` kwargs, which may set any field.
ANY_KEYWORD = "**"


def _callee(func: ast.expr) -> str | None:
    """The name a call reaches its callee by: ``f(...)`` or ``obj.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _reached_as(node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None) -> str:
    """The callee name of a function; a class's ``__init__`` is called by the class's."""
    return cls if node.name == "__init__" and cls is not None else node.name


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _in_init(default: ast.expr | None) -> bool:
    """False for a field declared ``field(init=False, ...)``."""
    return not (
        isinstance(default, ast.Call)
        and _callee(default.func) == "field"
        and any(kw.arg == "init" and getattr(kw.value, "value", None) is False
                for kw in default.keywords)
    )


def _init_fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields a dataclass's ``__init__`` takes, in order."""
    return [
        stmt for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and _in_init(stmt.value)
    ]


def declared_options(source: str) -> list[tuple[int, str, tuple[Option, ...]]]:
    """(line, label, the ways to set it) of each defaulted keyword-only
    parameter, each ``NodeConfig`` field and each other defaulted dataclass
    field.

    ``NodeConfig`` fields are set only by keyword. Any other dataclass field
    is also set by its position, by a call passing ``**`` kwargs, or by a
    ``replace`` keyword of its name.
    """
    options: list[tuple[int, str, tuple[Option, ...]]] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callee = _reached_as(node, cls)
            args = node.args
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    options.append((arg.lineno, f"{callee}({arg.arg}=)", ((callee, arg.arg),)))
        elif isinstance(node, ast.ClassDef) and node.name == "NodeConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    options.append((stmt.lineno, f"NodeConfig.{name}", (("NodeConfig", name),)))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for pos, stmt in enumerate(_init_fields(node)):
                name = stmt.target.id
                if stmt.value is not None:
                    ways = ((node.name, name), (node.name, pos),
                            (node.name, ANY_KEYWORD), ("replace", name))
                    options.append((stmt.lineno, f"{node.name}.{name}", ways))
        cls = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(source), None)
    return sorted(options)


def keywords_passed(sources: Iterable[str]) -> set[Option]:
    """Each (callee, keyword) and (callee, position) that some call in the
    sources passes; ``**`` kwargs count as the keyword ``ANY_KEYWORD``.

    ``x=x`` inside a function f that has a parameter ``x`` forwards that
    parameter, so it counts only if (f, x) is passed somewhere itself.
    """
    passed: set[Option] = set()
    forwards: dict[tuple[str | None, str], list[Option]] = {}

    def visit(node: ast.AST, cls: str | None, fn: str | None, params: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            every = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            params = frozenset(p.arg for p in every if p is not None)
            fn = None if isinstance(node, ast.Lambda) else _reached_as(node, cls)
        elif isinstance(node, ast.Call) and (callee := _callee(node.func)) is not None:
            passed.update((callee, pos) for pos in range(len(node.args)))
            for kw in node.keywords:
                if kw.arg is None:
                    passed.add((callee, ANY_KEYWORD))
                    continue
                option = (callee, kw.arg)
                forwarded = isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
                if forwarded and kw.arg in params:
                    forwards.setdefault((fn, kw.arg), []).append(option)
                else:
                    passed.add(option)
        cls = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn, params)

    for source in sources:
        visit(ast.parse(source), None, None, frozenset())
    todo = list(passed)
    while todo:
        for option in forwards.get(todo.pop(), ()):
            if option not in passed:
                passed.add(option)
                todo.append(option)
    return passed


def unpassed_options(source: str, passed: set[Option]) -> list[str]:
    return [
        f"line {line}: {label}"
        for line, label, ways in declared_options(source)
        if passed.isdisjoint(ways)
    ]


@pytest.fixture(scope="module")
def passed() -> set[Option]:
    return keywords_passed(
        path.read_text(encoding="utf-8")
        for top in REFERENCING
        for path in (ROOT / top).rglob("*.py")
    )


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_every_option_is_set_somewhere(path, passed):
    assert unpassed_options(path.read_text(encoding="utf-8"), passed) == []


def test_checker_flags_an_option_never_set():
    module = (
        "class NodeConfig:\n"
        "    port: int = 0\n"
        "    timeout: float = 1.0\n"
        "def serve(config, *, retries=3, verbose=False, hook):\n"
        "    return start(config, retries=retries, verbose=verbose, hook=hook)\n"
    )
    client = "serve(NodeConfig(port=1), hook=print)\nserve(verbose=verbose)\n"
    passed = keywords_passed([module, client])
    assert unpassed_options(module, passed) == [
        "line 3: NodeConfig.timeout",
        "line 4: serve(retries=)",
    ]


def test_checker_counts_a_keyword_only_for_its_callee():
    module = (
        "class Node:\n"
        "    def __init__(self, *, policy=None, types=None):\n"
        "        self.types = types\n"
        "def serve(*, policy=None, types=None):\n"
        "    return Node(policy=policy, types=types)\n"
    )
    client = "serve(types=1)\ndict(policy=2)\n"
    assert unpassed_options(module, keywords_passed([module, client])) == [
        "line 2: Node(policy=)",
        "line 4: serve(policy=)",
    ]


def test_checker_flags_a_dataclass_field_never_set():
    module = (
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass(frozen=True)\n"
        "class Msg:\n"
        "    target: str\n"
        "    args: tuple = ()\n"
        "    peer: str = 'rrt'\n"
        "    version: int = 1\n"
        "    size: int = field(default=0)\n"
        "    cache: dict = field(init=False, default=None)\n"
        "@dataclass\n"
        "class Other:\n"
        "    flag: bool = False\n"
        "    mode: str = 'a'\n"
        "class Plain:\n"
        "    level: int = 0\n"
    )
    client = (
        "Msg('t', (1,))\n"
        "Msg(target='t', peer='plain')\n"
        "replace(Msg('t'), size=3)\n"
        "Other(**options)\n"
    )
    assert unpassed_options(module, keywords_passed([module, client])) == [
        "line 7: Msg.version",
    ]


def test_import_loads_no_stdlib_http_stack():
    """rrt frames HTTP itself and draws GUIDs from ``os.urandom``, so
    ``import rrt`` in a fresh interpreter loads neither the stdlib's HTTP
    client nor its server, nor what they pull in, nor ``secrets`` and the
    OpenSSL-backed hashing it imports."""
    heavy = (
        "http.client", "http.server", "ssl", "email", "secrets", "hmac", "hashlib", "_hashlib",
    )
    code = (
        f"import sys, rrt\nheavy = {heavy!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in heavy or m.startswith(tuple(h + '.' for h in heavy))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
