"""Sparse exact linear algebra over the rationals.

A vector is a dict {column: value} of its nonzero entries, a matrix is a
list of such rows.  Values are exact rationals: ``int`` when integral, else
``Fraction``.  All eliminations are exact Gauss-Jordan on these rows; the
one division, the pivot inverse in ``rref``, divides ``Fraction(1)``, so
nothing here is numerical.  A pivot of 1 or -1 is not divided by, so rows
of integers with such pivots stay integral.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotASubspace

_F1 = Fraction(1)


def _sub_scaled(row, f, other):
    """row -= f * other, in place; entries that cancel are dropped."""
    for c, x in other.items():
        v = row.get(c)
        if v is None:
            row[c] = -f * x
        else:
            v -= f * x
            if v:
                row[c] = v
            else:
                del row[c]


def _clear_pivots(row, done):
    """Clear the pivot columns of done {pivot: row} from row, in place.

    Each row in done is zero in every other pivot column, so one pass does.
    """
    for p in [c for c in row if c in done]:
        _sub_scaled(row, row[p], done[p])


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns) in increasing pivot order; zero
    rows are dropped, pivot entries are 1 and pivot columns are cleared in
    every other row.  Each row is cleared of the known pivots, scaled at
    its leading column p, and p is cleared from the rows holding it.
    ``ncols`` is not read; it stays for callers that pass it positionally.
    """
    done = {}
    for r in rows:
        row = {c: x for c, x in r.items() if x}
        _clear_pivots(row, done)
        if not row:
            continue
        p = min(row)
        if row[p] == -1:
            row = {c: -x for c, x in row.items()}
        elif row[p] != 1:
            inv = _F1 / row[p]
            row = {c: x * inv for c, x in row.items()}
        for other in done.values():
            f = other.get(p)
            if f:
                _sub_scaled(other, f, row)
        done[p] = row
    pivots = sorted(done)
    return [done[p] for p in pivots], pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of the right null space of the matrix.

    One basis vector per free column, taken in increasing column order with
    the free variable set to 1, so the result is deterministic.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: _F1}
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def residual(red, pivots, vec):
    """Reduce vec against rref rows; empty iff vec is in their span."""
    v = {c: x for c, x in vec.items() if x}
    _clear_pivots(v, dict(zip(pivots, red)))
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
    direct sum of W and span(sub), so the length is the quotient dimension,
    and W is the span of the residuals of ker(rows) against sub.  The unit
    rows go first, so they clear sub's pivots from each row at once.
    """
    if not annihilates(rows, sub_red):
        raise NotASubspace("vector outside the ambient span")
    units = [{p: 1} for p in sub_pivots]
    return rref(kernel_basis(units + rows, ncols))[0]
