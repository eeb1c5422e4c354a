"""Every name that a module of pcl imports is used in that module, no
module imports another's private (``_``-prefixed) names, and every
function and class that it defines is read somewhere in pcl or the
benchmark, with no exceptions: an import or a helper left behind by a
removed caller would go unnoticed otherwise.  Helpers that only the tests
use live in ``tests/util.py``; ``test_reach`` checks that the CLI
commands call the rest, apart from the few names it lists."""

import ast
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "pcl"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the imports of the file (``from __future__``
    excepted) that no expression of the file reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imported_names_are_used(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "import os.path\nfrom json import dumps, loads as load\n"
                 "import sys\n\nprint(os.sep, load)\n")
    assert _unused_imports(f) == ["dumps", "sys"]


def _private_imports(path: Path) -> list[str]:
    """"module.name" of each ``_``-prefixed name that the file imports
    from a module of its own package (a relative import)."""
    return sorted(f"{node.module or ''}.{alias.name}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_names_imported(path):
    assert _private_imports(path) == []


def test_private_import_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "from ._util import helper\n"
                 "from .graph import (MultiGraph, _inner,\n"
                 "                    _other as other)\n"
                 "from os import _exit\n"
                 "from . import _private\n")
    assert _private_imports(f) == ["._private", "graph._inner",
                                   "graph._other"]


def _read_names(tree: ast.Module) -> set[str]:
    """Names the file reads: names, attributes, names imported with
    ``from``, and the dotted parts of the strings in its module-level
    tables (the benchmark tracer names its targets "layer.function")."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(
                        const.value, str):
                    read.update(const.value.split("."))
    return read


def _is_command(decorator: ast.expr) -> bool:
    """A click command's decorator, ``@group.command(...)``."""
    return (isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "command")


def _unread_definitions(package: Path, readers: list[Path]) -> list[str]:
    """"module.name" of each module-level function and class of the
    package's files, click commands excepted, that neither the package nor
    the files of ``readers`` read by name."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    for folder in readers:
        for path in folder.glob("*.py"):
            read |= _read_names(ast.parse(path.read_text()))
    return [f"{path.stem}.{node.name}" for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(map(_is_command, node.decorator_list))
            and node.name not in read]


def test_defined_names_are_read():
    assert _unread_definitions(_SRC, [_ROOT / "bench"]) == []


def test_unread_definition_is_found(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "m.py").write_text(textwrap.dedent("""\
        import click

        @click.group()
        def main():
            pass

        @main.command("run")
        def run_cmd():
            helper()

        def helper():
            pass

        def orphan():
            pass

        class Traced:
            def go(self):
                pass

        class Imported:
            pass

        class Unused:
            pass

        def used_as_attribute():
            pass
        """))
    (bench / "b.py").write_text(textwrap.dedent("""\
        from m import Imported
        import m

        TARGETS = {"m": ["Traced.go"]}
        m.used_as_attribute()
        """))
    assert _unread_definitions(package, [bench]) == ["m.orphan", "m.Unused"]


def _is_stub(node: ast.FunctionDef) -> bool:
    """An interface stub: a docstring at most, then ``raise
    NotImplementedError``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and isinstance(body[0].exc, ast.Name)
            and body[0].exc.id == "NotImplementedError")


def _unread_parameters(path: Path) -> list[str]:
    """"function.parameter" of each parameter, ``self`` and ``cls``
    excepted, of each function and method of the file that its body (with
    the functions nested in it) never reads; interface stubs are exempt."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or _is_stub(node)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}.{p}" for p in params if p not in read]
    return out


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py"))
                         + sorted((_ROOT / "tests").glob("*.py")),
                         ids=lambda path: path.name)
def test_parameters_are_read(path):
    assert _unread_parameters(path) == []


def test_unread_parameter_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(textwrap.dedent('''\
        def used(a, *args, b=1, **kwargs):
            return a, args, b, kwargs

        def unused(a, b, *, c):
            a = b  # assigned, not read

        def outer(x, y):
            def inner(z):
                return x
            return inner

        class C:
            def method(self, n):
                return self

            @classmethod
            def make(cls):
                return cls

            def stub(self, key):
                """Interface."""
                raise NotImplementedError

            def not_a_stub(self, key):
                raise ValueError
        '''))
    assert _unread_parameters(f) == [
        "unused.a", "unused.c", "outer.y", "inner.z", "method.n",
        "not_a_stub.key"]
