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


def in_span(red, pivots, vec):
    return not residual(red, pivots, vec)


def quotient(sub_red, sub_pivots, space_rows):
    """Representatives of span(space) / span(sub), sub given by its rref.

    Raises NotASubspace if sub is not contained in span(space).  Each
    spanning vector of the space is reduced against the subspace and the
    nonzero residuals are rref-normalized, so the result is a deterministic
    list whose length is the quotient dimension.
    """
    red, pivots = rref(space_rows)
    if not all(in_span(red, pivots, v) for v in sub_red):
        raise NotASubspace("vector outside the ambient span")
    reduced = [residual(sub_red, sub_pivots, v) for v in space_rows]
    reps, _ = rref([v for v in reduced if v])
    return reps
