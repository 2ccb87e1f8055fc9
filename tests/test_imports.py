"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import bga

SRC = Path(bga.__file__).parent

# bindings read from outside the module: bench/tests checks the ``reduce``
# names that bench/spans.py rebinds
READ_FROM_OUTSIDE = {("hochschild", "reduce"), ("presentation", "reduce")}


def unused_imports(tree):
    """Names bound by the imports of a module and never read in it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_scan_finds_an_import_left_behind():
    tree = ast.parse("from .rewrite import NormalForms, reduce\n"
                     "import json as js\n"
                     "reduce(js.loads('1'))\n")
    assert unused_imports(tree) == {"NormalForms"}


def test_every_imported_name_is_used():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(ast.parse(path.read_text()))}
    assert sorted(found - READ_FROM_OUTSIDE) == []
