"""Dense exact linear algebra over the rationals.

Vectors are lists of Fractions, matrices are lists of row vectors.  All
eliminations are fraction-exact; nothing here is numerical.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotASubspace

_F0 = Fraction(0)
_F1 = Fraction(1)


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped, pivot
    entries are 1 and pivot columns are cleared above and below.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = _F1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows, ncols=None):
    return len(rref(rows, ncols)[1])


def kernel_basis(rows, ncols):
    """Basis of the right null space of the matrix.

    One basis vector per free column, taken in increasing column order with
    the free variable set to 1, so the result is deterministic.
    """
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [_F0] * ncols
        v[fc] = _F1
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def residual(red, pivots, vec):
    """Reduce vec against rref rows; zero vector iff vec is in their span."""
    v = [Fraction(x) for x in vec]
    for i, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, red[i])]
    return v


def in_span(red, pivots, vec):
    return not any(residual(red, pivots, vec))


def quotient(sub_red, sub_pivots, space_rows, ncols):
    """Representatives of span(space) / span(sub), sub given by its rref.

    Raises NotASubspace if sub is not contained in span(space).  Each
    spanning vector of the space is reduced against the subspace and the
    nonzero residuals are rref-normalized, so the result is a deterministic
    list whose length is the quotient dimension.
    """
    red, pivots = rref(space_rows, ncols)
    if not all(in_span(red, pivots, v) for v in sub_red):
        raise NotASubspace("vector outside the ambient span")
    reduced = [residual(sub_red, sub_pivots, v) for v in space_rows]
    reps, _ = rref([v for v in reduced if any(v)], ncols)
    return reps
