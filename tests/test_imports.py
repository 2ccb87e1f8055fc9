"""Every name a module of the package or of its tests imports, and every
private name a package module defines at module level, is read in that
module; every parameter of a function, method or lambda is read in its
body; every public function, class and method is read somewhere in the
package; only ``rewrite`` knows the layout of an overlap; no module reads
a rule's tag by position, only the ``--bipartition`` reader splits
text at "|", and only ``ribbon`` and ``presentation`` read the parts of a
bipartition; the docstring examples run; every method that the bench spans hook is reached by the
commands the bench runs; and every function and method of the package is
reached by some command, or is listed with the reason it stays."""

import ast
import doctest
import importlib
import inspect
import json
import sys
import time
import types
from pathlib import Path

import bga
from bga import cli

SRC = Path(bga.__file__).parent
TESTS = Path(__file__).resolve().parent

# bindings read from outside the module: bench/tests checks the ``reduce``
# names that bench/spans.py rebinds
READ_FROM_OUTSIDE = {("hochschild", "reduce"), ("presentation", "reduce")}

# private names read only by the module's doctests
READ_BY_DOCTEST = {("ribbon", "_DOCTEST_DOC")}

# public names that no module of the package reads, and why each stays
UNREAD_BY_THE_PACKAGE = {
    ("presentation", "build_presentation"):
        "the classical relations; the non-bipartite presentation needs them",
    ("rewrite", "reduce"):
        "the public normal form of a term dict, for the oracles and bench "
        "spans",
    ("rewrite", "FiniteDimAlgebra.multiply_coords"):
        "dense products; bench/spans.py counts its calls",
}

# functions and methods, by qualified name, that no command runs, and why
# each stays
REACHED_BY_NO_COMMAND = {
    ("presentation", "build_presentation"):
        "the classical relations; the non-bipartite presentation needs them",
    ("presentation", "build_presentation.<locals>.arrow_word"):
        "a helper of build_presentation",
    ("presentation", "build_presentation.<locals>.emit"):
        "a helper of build_presentation",
    ("presentation", "BrauerPresentation.__init__"):
        "what build_presentation returns",
    ("rewrite", "reduce"):
        "the public normal form of a term dict, for the oracles and bench "
        "spans",
    ("rewrite", "FiniteDimAlgebra.multiply_coords"):
        "dense products; bench/spans.py counts its calls",
    ("cli", "_build_parser"): "runs once, at import",
    ("rewrite", "Rule.__repr__"): "for a reader of the library",
    ("rewrite", "Ambiguity.__repr__"): "for a reader of the library",
    ("hochschild", "StandardCocycle.__repr__"): "for a reader of the library",
    ("ribbon", "Bipartition.__repr__"): "for a reader of the library",
    ("deform", "FormalCheck.__bool__"): "a truth test in the library",
    ("deform", "SemisimplicityReport.__bool__"): "a truth test in the library",
    ("hochschild", "BasisReport.__bool__"): "a truth test in the library",
}

# parameters their function never reads, and why each stays
UNREAD_PARAMETERS = {
    ("linalg", "rref", "ncols"):
        "bench/spans.py Tracer.wrap_rref calls fn(rows, ncols) positionally",
}

# the only code that reads the parts u, v, w of an overlap u|v|w
LAYOUT_OWNERS = {("rewrite", "Ambiguity"), ("rewrite", "overlap_sides")}

# the only code that splits text at "|": the --bipartition override
# "v1,v2|w"; edge ids are looked up in the graph's edge table instead
BAR_SPLITTERS = {("cli", "_parse_bipartition")}

# the only modules that read the parts of a Bipartition: ribbon makes and
# checks it, presentation derives the rules from it; every other module
# reads the sides off those rules' tags
BIPARTITION_READERS = {"ribbon", "presentation"}


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


def unread_public_names(trees):
    """(module, name) of the public functions and classes, and the public
    methods of public classes as "Class.method", that no module of
    ``trees`` {module: ast} reads: by name, or for a method as an
    attribute of anything."""
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if node.name not in read:
                out.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                out |= {(module, f"{node.name}.{m.name}") for m in node.body
                        if isinstance(m, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        and not m.name.startswith("_")
                        and m.name not in read}
    return out


def unread_parameters(tree):
    """(function, parameter) for each parameter of a function, method or
    lambda of a module that its body never reads; ``self`` is exempt.
    Methods are named "Class.method", nested functions "outer.inner" and
    lambdas "<lambda>" under the name of what encloses them."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p]
                body = child.body if isinstance(child.body, list) \
                    else [child.body]
                read = set().union(*map(_read_names, body))
                out.update((name, p) for p in params
                           if p != "self" and p not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _top_level_holders(tree, hit):
    """Top-level functions and classes of a module (``<module>`` for other
    statements) that hold a node for which ``hit`` is true."""
    return {getattr(node, "name", "<module>") for node in tree.body
            for n in ast.walk(node) if hit(n)}


def layout_readers(tree):
    """What reads an attribute u, v or w, the parts of an overlap u|v|w."""
    return _top_level_holders(tree, lambda n: isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Load)
                              and n.attr in ("u", "v", "w"))


def tag_position_readers(tree):
    """What subscripts an attribute ``info``: a rule's tag read by position
    instead of looked up whole."""
    return _top_level_holders(tree, lambda n: isinstance(n, ast.Subscript)
                              and isinstance(n.value, ast.Attribute)
                              and n.value.attr == "info")


def bar_splitters(tree):
    """What calls ``.split("|")``, taking a joined id back apart."""
    return _top_level_holders(tree, lambda n: isinstance(n, ast.Call)
                              and isinstance(n.func, ast.Attribute)
                              and n.func.attr == "split"
                              and any(isinstance(a, ast.Constant)
                                      and a.value == "|" for a in n.args))


def bipartition_readers(tree):
    """What reads an attribute ``part_one`` or ``part_two``."""
    return _top_level_holders(tree, lambda n: isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Load)
                              and n.attr in ("part_one", "part_two"))


def _found(scan, root=SRC):
    return {(path.stem, name) for path in sorted(root.glob("*.py"))
            for name in scan(ast.parse(path.read_text()))}


def test_the_scan_finds_an_import_left_behind():
    tree = ast.parse("from .rewrite import NormalForms, reduce\n"
                     "import json as js\n"
                     "reduce(js.loads('1'))\n")
    assert unused_imports(tree) == {"NormalForms"}


def test_every_imported_name_is_used():
    found = _found(unused_imports) | _found(unused_imports, TESTS)
    assert sorted(found - READ_FROM_OUTSIDE) == []


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


def test_the_scan_finds_a_parameter_left_unread():
    tree = ast.parse("def f(a, b, *args, c=1, **kw): return a + c + len(kw)\n"
                     "class Memo:\n"
                     "    def get(self, key, default): return key\n"
                     "    def run(self, n):\n"
                     "        def step(m, unused): return n + m\n"
                     "        return map(lambda x, y: x, step(1, 2), n)\n"
                     "g = lambda u: 0\n")
    assert unread_parameters(tree) == {
        ("f", "b"), ("f", "args"), ("Memo.get", "default"),
        ("Memo.run.step", "unused"), ("Memo.run.<lambda>", "y"),
        ("<lambda>", "u")}


def test_every_parameter_is_read():
    found = {(module, *pair) for module, pair in _found(unread_parameters)}
    assert sorted(found - UNREAD_PARAMETERS.keys()) == []
    assert UNREAD_PARAMETERS.keys() <= found


def test_the_scan_finds_public_code_no_module_reads():
    trees = {name: ast.parse(text) for name, text in {
        "paths": "def concat(): pass\n"
                 "def render(): pass\n"
                 "class Element:\n"
                 "    def __add__(self, o): pass\n"
                 "    def scaled(self, c): pass\n"
                 "    def terms(self): pass\n"
                 "    def _own(self): pass\n"
                 "class Unused:\n"
                 "    def run(self): pass\n",
        "cli": "from .paths import Element, render\n"
               "x = render(Element().terms())\n"
               "def main(): pass\n"
               "main()\n",
    }.items()}
    assert unread_public_names(trees) == {
        ("paths", "concat"), ("paths", "Element.scaled"),
        ("paths", "Unused"), ("paths", "Unused.run")}


def test_every_public_name_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert sorted(unread_public_names(trees)
                  - UNREAD_BY_THE_PACKAGE.keys()) == []
    assert UNREAD_BY_THE_PACKAGE.keys() <= unread_public_names(trees)


def test_the_scan_finds_an_overlap_laid_out_by_hand():
    tree = ast.parse("class Ambiguity:\n"
                     "    def word(self): return (self.u,) + self.v\n"
                     "def rows(amb): return (amb.u,) + amb.w\n"
                     "def build(a): a.u = 1; return a.rule_index, a.uv\n"
                     "tail = amb.v\n")
    assert layout_readers(tree) == {"Ambiguity", "rows", "<module>"}


def test_only_overlap_sides_lays_out_an_overlap():
    found = _found(layout_readers)
    assert sorted(found - LAYOUT_OWNERS) == []
    assert LAYOUT_OWNERS <= found


def test_the_scan_finds_a_tag_read_by_position():
    tree = ast.parse("def b_term(rule): return rule.info[2]\n"
                     "class Index:\n"
                     "    def get(self, r): return {r.info: 0}\n"
                     "    def kind(self, r): r.info[0] = 'a'\n"
                     "def keyed(info): return info[1]\n"
                     "first = rules[0].info[0]\n")
    assert tag_position_readers(tree) == {"b_term", "Index", "<module>"}


def test_no_module_reads_a_rule_tag_by_position():
    assert sorted(_found(tag_position_readers)) == []


def test_the_scan_finds_an_id_split_at_a_bar():
    tree = ast.parse("def halves(edge): return edge.split('|')\n"
                     "def names(text): return text.split(',')\n"
                     "class Graph:\n"
                     "    def ids(self): return [e.split('|', 1) for e in self.e]\n"
                     "    def joined(self): return '|'.join(self.e)\n"
                     "a, b = 'x|y'.split('|')\n")
    assert bar_splitters(tree) == {"halves", "Graph", "<module>"}


def test_only_the_bipartition_override_is_split_at_a_bar():
    found = _found(bar_splitters)
    assert sorted(found - BAR_SPLITTERS) == []
    assert BAR_SPLITTERS <= found


def test_the_scan_finds_a_bipartition_read_by_its_parts():
    tree = ast.parse("def side(bp, v): return 2 if v in bp.part_two else 1\n"
                     "class Family:\n"
                     "    def halves(self): return sorted(self.bp.part_one)\n"
                     "    def flip(self, bp): bp.part_two = set()\n"
                     "def tagged(rule): return rule.info == ('b', 'h')\n"
                     "first = min(bp.part_one)\n")
    assert bipartition_readers(tree) == {"side", "Family", "<module>"}


def test_only_ribbon_and_presentation_read_a_bipartition():
    found = {module for module, _ in _found(bipartition_readers)}
    assert sorted(found - BIPARTITION_READERS) == []
    assert BIPARTITION_READERS <= found


def test_docstring_examples_pass():
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        name = "bga" if path.stem == "__init__" else f"bga.{path.stem}"
        module = importlib.import_module(name)
        failed, tried = doctest.testmod(module)
        assert failed == 0, path.stem
        attempted += tried
    assert attempted >= 3


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_method_the_bench_spans_hook_is_reached(monkeypatch, capsys):
    # a renamed or bypassed method leaves its span or counter at 0
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    tracer = spans.Tracer()
    patches = spans.install(tracer, time.perf_counter)
    try:
        for argv in (["hh2"], ["cocycles"],
                     ["deform", "--deform-type", "A", "--t", "formal:4"],
                     ["deform", "--deform-type", "A", "--t", "1",
                      "--check-semisimple"],
                     ["basis"]):
            assert cli.main(argv + ["--input", "EX1"]) == 0, argv
    finally:
        spans.uninstall(patches)
    capsys.readouterr()
    reached = set(tracer.names) | set(tracer.counts)
    hooked = {name for (module, cls, method), name
              in {**spans._METHODS, **spans._COUNTED}.items()
              if (module, f"{cls}.{method}") not in UNREAD_BY_THE_PACKAGE}
    assert sorted(hooked - reached) == []


def defined_functions(path):
    """(qualified name, first line) of every function, method and lambda
    a source file defines; class bodies and comprehensions are not
    counted."""
    out = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and (
                        not const.co_name.startswith("<")
                        or const.co_name == "<lambda>"):
                    out.add((const.co_qualname, const.co_firstlineno))
    return out


def reached_functions(argvs):
    """(module, qualified name, first line) of every package function that
    the ``cli.main`` calls on ``argvs`` enter, from a profile hook."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in argvs:
            cli.main(argv)
    finally:
        sys.setprofile(None)
    return {(Path(c.co_filename).stem, c.co_qualname, c.co_firstlineno)
            for c in codes if Path(c.co_filename).parent == SRC}


def test_the_reach_scan_lists_nested_functions_and_lambdas(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(xs):\n"
                    "    def g(): return [x for x in xs]\n"
                    "    return lambda: g\n"
                    "class C:\n"
                    "    def run(self): pass\n")
    assert defined_functions(path) == {
        ("f", 1), ("f.<locals>.g", 2), ("f.<locals>.<lambda>", 3),
        ("C.run", 5)}


# a triangle: no bipartition, an odd cycle as witness
TRIANGLE = {
    "vertices": [{"id": v, "multiplicity": 2} for v in "pqr"],
    "half_edges": ["p1", "q1", "q2", "r1", "r2", "p2"],
    "incidence": {"p1": "p", "p2": "p", "q1": "q", "q2": "q",
                  "r1": "r", "r2": "r"},
    "pairing": [["p1", "q1"], ["q2", "r1"], ["r2", "p2"]],
    "rotation": {"p": ["p1", "p2"], "q": ["q1", "q2"], "r": ["r1", "r2"]},
}
# x*y -> e(x|y) on the annulus overlaps y*x -> 0 without resolving
BROKEN_ANNULUS = {"rules": [{"tip": ["x", "y"], "rhs": [["1", []]]},
                            {"tip": ["y", "x"], "rhs": []}]}
# e(x|y) on the annulus rule x*y -> y*x is no cocycle
NON_COCYCLE = {"values": [{"tip": ["x", "y"], "element": [
    {"vertex": "x|y", "word": [], "coeff": "1"}]}]}


def test_every_function_of_the_package_is_reached(tmp_path, capsys):
    files = {}
    for name, doc in (("triangle", TRIANGLE), ("broken", BROKEN_ANNULUS),
                      ("cochain", NON_COCYCLE)):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))
    argvs = [["selftest"], ["nope"], ["validate", "--input", "EX1",
                                      "--pretty", "--out",
                                      str(tmp_path / "out.json")]]
    for fixture in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2", "LOC_3"):
        for command in ("validate", "info", "basis", "diamond", "hh2",
                        "cocycles"):
            argvs.append([command, "--input", fixture])
        for kind in ("A", "B", "C", "D1", "D2"):
            for t in (["--t", "formal:4"], ["--t", "1", "--check-semisimple"]):
                argvs.append(["deform", "--input", fixture,
                              "--deform-type", kind, *t])
    argvs += [["validate", "--input", files["triangle"]],
              ["info", "--input", files["triangle"]],
              ["diamond", "--input", "ANNULUS", "--rules", files["broken"]],
              ["hh2", "--input", "ANNULUS", "--rules", files["broken"]],
              ["info", "--input", "EX1", "--bipartition", "w|v1,v2"]]
    argvs += [["deform", "--input", "ANNULUS", "--deform-type", "custom",
               "--cochain", files["cochain"], "--t", t]
              for t in ("formal:2", "1")]
    reached = {(module, name) for module, name, _ in reached_functions(argvs)}
    capsys.readouterr()
    defined = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
               for name, _ in defined_functions(path)}
    unreached = defined - reached
    assert sorted(unreached - REACHED_BY_NO_COMMAND.keys()) == []
    assert REACHED_BY_NO_COMMAND.keys() <= unreached
