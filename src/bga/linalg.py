"""Sparse exact linear algebra over the rationals.

A vector is a dict {column: value} of its nonzero entries, a matrix is a
list of such rows.  Values are exact rationals: ``int`` when integral, else
``Fraction``.  Every value an elimination computes keeps that contract, so
an integral result never stays a ``Fraction`` and the arithmetic on it stays
integer.  ``rref``, and ``kernel`` and ``quotient`` through it, are exact
Gauss-Jordan on these rows: a forward pass that clears each row only at
its leading column, then a single back-substitution in decreasing pivot
order.  ``kernel`` reads the RREF of a null space off a single one.  Their
one division, the pivot inverse in ``rref``, divides ``Fraction(1)``.
``rank`` eliminates forward over the integers and divides only by a gcd,
so nothing here is numerical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotASubspace

_F1 = Fraction(1)


def _sub_scaled(row, f, other):
    """row -= f * other, in place; entries that cancel are dropped, and
    integral ones are kept as int."""
    for c, x in other.items():
        v = row.get(c, 0) - f * x
        if not v:
            del row[c]
        elif v.denominator == 1:
            row[c] = v.numerator
        else:
            row[c] = v


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) in increasing pivot order; zero
    rows are dropped, pivot entries are 1 and pivot columns are cleared in
    every other row.  The rows passed in are not changed.

    Forward, each row is cleared at its leading column only, for as long
    as that column is a known pivot; a row left nonzero is scaled at its
    new leading column p (by the int -1 when that entry is -1, so an int
    row makes no ``Fraction``) and kept as the pivot row of p.  No kept row
    is touched again until the end: then one back-substitution, in
    decreasing pivot order, clears from each pivot row the larger pivot
    columns it holds.  The rows of those columns are already reduced, so
    they bring in no pivot column, and each row is cleared in one pass.
    ``ncols`` is not read; it stays for callers that pass it positionally.
    """
    done = {}
    for r in rows:
        row = {c: x for c, x in r.items() if x}
        while row:
            p = min(row)
            pivot = done.get(p)
            if pivot is None:
                break
            _sub_scaled(row, row[p], pivot)
        if not row:
            continue
        if row[p] != 1:
            inv = -1 if row[p] == -1 else _F1 / row[p]
            for c, x in row.items():
                x *= inv
                row[c] = x.numerator if x.denominator == 1 else x
        done[p] = row
    pivots = sorted(done)
    for p in reversed(pivots):
        row = done[p]
        for c in [c for c in row if c != p and c in done]:
            _sub_scaled(row, row[c], done[c])
    return [done[p] for p in pivots], pivots


def rank(rows):
    """Rank by fraction-free forward elimination (after Bareiss): of the
    Gram blocks of ``deform.semisimplicity`` and of the residues of
    ``hochschild.verify_basis``.

    Each row is scaled to integers by the lcm of its denominators.  While
    its leading column p is the pivot of a kept row, the two are cross
    multiplied by the gcd-reduced pair (pivot[p], row[p]) so that p cancels,
    and the row is divided by the gcd of its entries; a row left nonzero is
    kept at its new leading column.  No pivot row is reduced back, no
    ``Fraction`` is made, and the rows passed in are not changed.
    """
    done = {}
    for r in rows:
        d = lcm(*(x.denominator for x in r.values()))
        row = {c: x.numerator * (d // x.denominator)
               for c, x in r.items() if x}
        while row:
            p = min(row)
            pivot = done.get(p)
            if pivot is None:
                done[p] = row
                break
            g = gcd(pivot[p], row[p])
            f, h = pivot[p] // g, row[p] // g
            row = {c: f * x for c, x in row.items()}
            for c, y in pivot.items():
                v = row.get(c, 0) - h * y
                if v:
                    row[c] = v
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
    return len(done)


def kernel(rows, ncols):
    """RREF of the right null space of the matrix, from one elimination.

    The rows are reduced with their columns reversed (c -> ncols-1-c), so
    each reduced row pivots at its largest column p and holds no other
    pivot column.  For each free column f the kernel holds
    e_f - sum_p row_p[f] e_p, every such p lying right of f and no other
    free column occurring, so these vectors in increasing f are the RREF.
    """
    last = ncols - 1
    red, pivots = rref([{last - c: x for c, x in r.items()} for r in rows])
    pivot_set = {last - p for p in pivots}
    vecs = {f: {f: 1} for f in range(ncols) if f not in pivot_set}
    for row, p in zip(red, pivots):
        for c, x in row.items():
            if c != p:
                vecs[last - c][last - p] = -x
    return list(vecs.values())


def residual(red, pivots, vec):
    """Reduce vec against rref rows; empty iff vec is in their span.  Each
    rref row is zero in every other pivot column, so one pass clears them."""
    v = {c: x for c, x in vec.items() if x}
    done = dict(zip(pivots, red))
    for p in [c for c in v if c in done]:
        _sub_scaled(v, v[p], done[p])
    return v


def annihilates(rows, vecs):
    """Whether every row has dot product 0 with every vector; one column
    index over the vectors serves every row."""
    index = {}
    for i, v in enumerate(vecs):
        for c, x in v.items():
            index.setdefault(c, []).append((i, x))
    for row in rows:
        dots = {}
        for c, x in row.items():
            for i, y in index.get(c, ()):
                dots[i] = dots.get(i, 0) + x * y
        if any(dots.values()):
            return False
    return True


def quotient(rows, ncols, sub_red, sub_pivots):
    """Representatives of ker(rows) / span(sub), sub given by its rref.

    Raises NotASubspace unless the rows annihilate sub.  Returns the rref
    of W = ker(rows) with sub's pivot columns set to 0: ker(rows) is the
    direct sum of W and span(sub), so the length is the quotient dimension.
    W is the ``kernel`` of the rows with sub's pivot columns P deleted, less
    the unit vector e_p of each p in P, the one kernel vector whose smallest
    column is p: every other vector is 0 on P.
    """
    if not annihilates(rows, sub_red):
        raise NotASubspace("vector outside the ambient span")
    dropped = set(sub_pivots)
    free = kernel([{c: x for c, x in r.items() if c not in dropped}
                   for r in rows], ncols)
    return [v for v in free if min(v) not in dropped]
