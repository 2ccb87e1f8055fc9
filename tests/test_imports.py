"""Every name a module of the package imports, and every private name it
defines at module level, is read in that module; the docstring examples
run."""

import ast
import doctest
import importlib
from pathlib import Path

import bga

SRC = Path(bga.__file__).parent

# bindings read from outside the module: bench/tests checks the ``reduce``
# names that bench/spans.py rebinds
READ_FROM_OUTSIDE = {("hochschild", "reduce"), ("presentation", "reduce")}

# private names read only by the module's doctests
READ_BY_DOCTEST = {("ribbon", "_DOCTEST_DOC")}


def _read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def unused_imports(tree):
    """Names bound by the imports of a module and never read in it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - _read_names(tree)


def unread_private_names(tree):
    """Private functions, classes and constants a module defines at top
    level and never reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    return private - _read_names(tree)


def _found(scan):
    return {(path.stem, name) for path in sorted(SRC.glob("*.py"))
            for name in scan(ast.parse(path.read_text()))}


def test_the_scan_finds_an_import_left_behind():
    tree = ast.parse("from .rewrite import NormalForms, reduce\n"
                     "import json as js\n"
                     "reduce(js.loads('1'))\n")
    assert unused_imports(tree) == {"NormalForms"}


def test_every_imported_name_is_used():
    assert sorted(_found(unused_imports) - READ_FROM_OUTSIDE) == []


def test_the_scan_finds_a_private_helper_left_behind():
    tree = ast.parse("_F1 = 1\n_CAP, public = 6, 0\n"
                     "def _first_step(): pass\n"
                     "class _Memo: pass\n"
                     "def _used(): return _CAP\n"
                     "def run(): return _used()\n"
                     "__all__ = ['run']\n")
    assert unread_private_names(tree) == {"_F1", "_first_step", "_Memo"}


def test_every_private_name_is_read():
    assert sorted(_found(unread_private_names) - READ_BY_DOCTEST) == []


def test_docstring_examples_pass():
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        name = "bga" if path.stem == "__init__" else f"bga.{path.stem}"
        module = importlib.import_module(name)
        failed, tried = doctest.testmod(module)
        assert failed == 0, path.stem
        attempted += tried
    assert attempted >= 3
