"""Span tracing of the bga modules, installed from outside the program.

``install`` wraps the public functions of each layer module, plus the
methods that carry the table, associativity and rule-validation work, and
rebinds every module-level name (and module-level dict value) that refers
to a wrapped function, since ``from .rewrite import reduce`` copies the
name into other modules.  ``paths`` and ``scalars`` hold the operator-level
arithmetic; they are not wrapped, so their cost lands in the self time of
the calling span.  A few hot methods are counted, not spanned.

Spans are kept in memory as parallel arrays (name, parent, job, start,
end) and summarised or written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from collections import Counter

LAYERS = ("ribbon", "presentation", "rewrite", "hochschild", "linalg",
          "deform", "cli")

# span names that differ from "<module>.<function>"
_NAMES = {
    "rewrite.enumerate_ambiguities": "rewrite.ambiguities",
    "rewrite.check_diamond": "rewrite.diamond",
    "rewrite.irreducible_words": "rewrite.words",
    "hochschild.coboundary_image": "hochschild.coboundary",
    "hochschild.standard_cocycles": "hochschild.family",
}

# methods traced as spans
_METHODS = {
    ("rewrite", "ReductionSystem", "__init__"): "rewrite.system",
    ("rewrite", "FiniteDimAlgebra", "__init__"): "rewrite.table",
    ("rewrite", "FiniteDimAlgebra", "check_associative"): "rewrite.assoc",
}

# methods too hot for a span each: only their calls are counted
_COUNTED = {
    ("rewrite", "ReductionSystem", "first_redex"): "rewrite.redex_scans",
    ("rewrite", "FiniteDimAlgebra", "multiply_coords"): "rewrite.multiply.calls",
}


def span_name(layer, func):
    if layer == "cli" and func.startswith("cmd_"):
        return "cli.cmd." + func[4:]
    name = f"{layer}.{func}"
    return _NAMES.get(name, name)


class Tracer:
    """In-memory span store with one open-span stack (one thread)."""

    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.jobs = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self.job = -1
        self._stack = [-1]

    def open(self, name, now):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.jobs.append(self.job)
        self.starts.append(now)
        self.ends.append(now)
        self._stack.append(sid)
        return sid

    def close(self, sid, now):
        self.ends[sid] = now
        self._stack.pop()

    def wrap(self, name, fn, clock):
        def traced(*args, **kwargs):
            sid = self.open(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid, clock())
        traced.__wrapped__ = fn
        return traced

    def wrap_rref(self, fn, clock):
        """rref span that also counts matrix cells, rows and the rank."""
        counts = self.counts

        def traced(rows, ncols=None):
            sid = self.open("linalg.rref", clock())
            try:
                out = fn(rows, ncols)
            finally:
                self.close(sid, clock())
            n = len(rows)
            cols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
            counts["linalg.rref.cells"] += n * cols
            counts["linalg.rref.rows"] += n
            counts["linalg.rref.rank"] += len(out[1])
            return out
        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def install(tracer, clock):
    """Wrap the layer functions; returns the patch list ``uninstall`` takes."""
    wrappers = {}       # id(original) -> (original, wrapper)
    patches = []        # (owner, key, original), undone in reverse order
    for layer in LAYERS:
        mod = importlib.import_module(f"bga.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                if attr == "rref" and layer == "linalg":
                    w = tracer.wrap_rref(obj, clock)
                else:
                    w = tracer.wrap(span_name(layer, attr), obj, clock)
                wrappers[id(obj)] = (obj, w)
    for table, counted in ((_METHODS, False), (_COUNTED, True)):
        for (layer, cls_name, meth), name in table.items():
            cls = getattr(importlib.import_module(f"bga.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            w = (tracer.wrap_count(name, fn) if counted
                 else tracer.wrap(name, fn, clock))
            setattr(cls, meth, w)
            patches.append((cls, meth, fn))
    import bga  # importable only once the caller has put src on sys.path
    mods = [importlib.import_module(f"bga.{m.name}")
            for m in pkgutil.iter_modules(bga.__path__)]
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, obj))
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        obj[key] = hit[1]
                        patches.append((obj, key, val))
    return patches


def uninstall(patches):
    for owner, key, original in reversed(patches):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


# -- summaries ----------------------------------------------------------------

def self_times(parents, starts, ends):
    """Self time of every span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = {}
    for sid, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = []
    for sid in range(len(parents)):
        s, e = starts[sid], ends[sid]
        covered, reach = 0.0, s
        for c in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def summarise(tracer):
    """Per span name: calls, busy seconds (sum of durations) and self seconds.
    Also the number of reduce spans whose parent is a table span."""
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    by_name = {}
    table_reduces = 0
    names, parents = tracer.names, tracer.parents
    for sid, name in enumerate(names):
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += tracer.ends[sid] - tracer.starts[sid]
        row[2] += selfs[sid]
        if name == "rewrite.reduce" and parents[sid] >= 0 \
                and names[parents[sid]] == "rewrite.table":
            table_reduces += 1
    return by_name, table_reduces


def write_spans(tracer, path):
    """One tab-separated line per span: id, parent, job, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
        for sid, name in enumerate(tracer.names):
            fh.write(f"{sid}\t{tracer.parents[sid]}\t{tracer.jobs[sid]}\t"
                     f"{name}\t{tracer.starts[sid]:.9f}\t"
                     f"{tracer.ends[sid]:.9f}\n")
