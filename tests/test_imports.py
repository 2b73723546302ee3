"""No module of the package imports a name it never uses. There is no
linter in the toolchain, so this is the check: a name bound by an import
must be read somewhere else in its module, in code or in an annotation. An
import line marked `# noqa: F401` is exempt (a name re-exported on
purpose). No module imports a private (`_`-prefixed) name from another
module of the package: a decision two modules share is public and made in
one place. Every private function, class and constant a module defines at
top level is read somewhere else in that module, so a helper left behind
when its last caller goes is found; so is a public function or class that
nothing in `src`, `tests` or `bench` names. Only `conversion` reads or
writes the caches in `GlobalEnv.memo`, which `GlobalEnv.__init__` creates.
And importing the package loads none of the modules that make a fresh
process slow to start."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "folbridge"


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, alias.lineno))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name, line in sorted(imported, key=lambda p: p[1])
            if name not in read and "# noqa: F401" not in lines[line - 1]]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, re\n"
              "from x import (a,\n    b, c as d)\n"
              "from y import e  # noqa: F401\n"
              "def f(p: d) -> None:\n    return re.sub(a, '', p)\n")
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names the source imports from the package, by a
    relative import or by the package name, in import order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name):
            found += [(alias.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return [name for _, name in sorted(found)]


def test_checker_finds_private_names():
    source = ("from __future__ import annotations\n"
              "from .terms import (Term,\n    _pi)\n"
              "from folbridge.parser import _is_prop\n"
              "from . import _private\n"
              "from os import _exit\n")
    assert private_imports(source) == ["_pi", "_is_prop", "_private"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path: Path):
    assert private_imports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """The `_`-prefixed (not dunder) names that the source's top-level
    statements define and that no other top-level statement reads, in
    definition order; a helper that only calls itself is unread."""
    body = ast.parse(source).body
    reads = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)} for node in body]
    unread = []
    for i, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        unread += [name for name in names
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in r for j, r in enumerate(reads) if j != i)]
    return unread


def test_checker_finds_unread_private_names():
    source = ("from __future__ import annotations\n"
              "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
              "def _f(n):\n    return _f(n - 1) + _A\n"
              "def _g() -> _D:\n    return _C\n"
              "class _D:\n    pass\n"
              "def public():\n    return _g()\n")
    assert unread_private_names(source) == ["_B", "_f"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_read(path: Path):
    assert unread_private_names(path.read_text()) == []


ROOT = PACKAGE.parent.parent
# A string that names something: identifiers joined by dots, such as the
# "module.attribute" paths by which bench/tracer.py binds its layers.
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced_names(tree: ast.AST) -> Counter:
    """Each name the tree refers to, with how often: plain names,
    attributes, the parts of imported names and their aliases, and the
    parts of each string constant that is a dotted name."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """`module.name` of each top-level function and class of the package's
    modules (name -> source) that nothing refers to but its own definition:
    no other statement of the package and none of the `others` sources."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    total = sum((referenced_names(t) for t in trees.values()), Counter())
    for source in others:
        total += referenced_names(ast.parse(source))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and total[node.name] == referenced_names(node)[node.name]]


def test_checker_finds_unreferenced_definitions():
    package = {"a": "def f(n):\n    return f(n - 1)\ndef g():\n    return h()\n"
                    "def h():\n    pass\nclass C:\n    pass\nclass D:\n    pass\n",
               "b": "from .a import g\ndef k():\n    pass\ndef m():\n    pass\n"}
    others = ["import b\nb.m()\nBINDINGS = [('a', 'D.method')]\n", "x = 'C'\n"]
    assert unreferenced_definitions(package, others) == ["a.f", "b.k"]


def test_every_definition_is_referenced():
    """A function or class that a change leaves behind is found: every one
    defined at the top level of a package module is named somewhere in
    `src`, `tests` or `bench` outside its own definition."""
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_definitions(package, others) == []


def memo_uses(source: str) -> list[int]:
    """The lines that read or write an attribute named `memo`, except the
    assignment to `self.memo` in `GlobalEnv.__init__`, which creates it."""
    tree = ast.parse(source)
    creation = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "GlobalEnv":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    for node in ast.walk(fn):
                        targets = (node.targets if isinstance(node, ast.Assign) else
                                   [node.target] if isinstance(node, ast.AnnAssign) else [])
                        creation |= {id(t) for t in targets if isinstance(t, ast.Attribute)
                                     and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "memo" and id(n) not in creation)


def test_checker_finds_memo_uses():
    source = ("class GlobalEnv:\n"
              "    def __init__(self):\n        self.memo: dict = {}\n"
              "    def names(self):\n        return self.memo.get(1)\n"
              "class Other:\n    def __init__(self):\n        self.memo = {}\n"
              "def clear(env):\n    env.memo.clear()\n    env.memo = {}\n")
    assert memo_uses(source) == [5, 8, 10, 11]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "conversion.py"], ids=lambda p: p.name)
def test_only_conversion_uses_the_memo(path: Path):
    """The caches stay behind one module: no other module reads or writes
    them, so none can depend on what they hold or when they are filled."""
    assert memo_uses(path.read_text()) == []


# Modules that importing the package must not load: `dataclasses` pulls in
# `inspect`, which pulls in `ast`; `typing` is costly on its own.
HEAVY = ("dataclasses", "inspect", "ast", "typing")


def test_import_loads_no_heavy_modules():
    """Imported in a bare interpreter (no `site`, no environment), the five
    modules leave none of HEAVY in `sys.modules`."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import folbridge.conversion, folbridge.parser, folbridge.printer, "
            "folbridge.terms, folbridge.transforms\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
