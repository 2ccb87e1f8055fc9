from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from loaders import algebra, generated_family

from bga.errors import NotASubspace
from bga.hochschild import coboundary_image, cocycle_space
from bga.linalg import (
    annihilates,
    kernel,
    quotient,
    rank,
    residual,
    rref,
)
from bga.presentation import reduction_system
from bga.rewrite import FiniteDimAlgebra
from bga.ribbon import parse_ribbon_graph

F = Fraction


def m(*rows):
    """Sparse rows {column: Fraction} from dense lists."""
    return [{j: F(x) for j, x in enumerate(r) if x} for r in rows]


def dot(row, vec):
    return sum(x * vec.get(c, 0) for c, x in row.items())


def test_rref_small():
    red, piv = rref(m([1, 2, 3], [2, 4, 6], [1, 0, 1]))
    assert piv == [0, 1]
    assert red == m([1, 0, 1], [0, 1, 1])


def test_rank():
    assert rank(m([1, 2], [3, 4])) == 2
    assert rank(m([1, 2], [2, 4])) == 1
    assert rank([]) == 0
    assert rank(m([0, 0, 0])) == 0


def test_kernel_is_rref_with_free_columns_as_pivots():
    # x + 2y + 3z = 0: the row pivots at its last column, z, so x and y are
    # free and pivot the kernel's rref
    ker = kernel(m([1, 2, 3]), 3)
    assert ker == m([1, 0, F(-1, 3)], [0, 1, F(-2, 3)])
    for v in ker:
        assert dot(m([1, 2, 3])[0], v) == 0


def test_kernel_of_full_rank_matrix_is_trivial():
    assert kernel(m([1, 0], [0, 1]), 2) == []


def test_kernel_of_zero_matrix_is_everything():
    ker = kernel(m([0, 0]), 2)
    assert ker == m([1, 0], [0, 1])


def test_residual_and_in_span():
    red, piv = rref(m([1, 0, 1], [0, 1, 1]))
    assert not residual(red, piv, m([2, 3, 5])[0])
    assert residual(red, piv, m([0, 0, 1])[0])
    r = residual(red, piv, m([2, 3, 4])[0])
    assert r == {2: F(-1)}


def test_quotient_dim():
    rows = m([0, 0, 1])  # the space is spanned by e0 and e1
    sub = m([1, 1, 0])
    assert len(quotient(rows, 3, *rref(sub))) == 1
    assert len(quotient(rows, 3, *rref([]))) == 2


def test_quotient_dim_rejects_non_subspace():
    with pytest.raises(NotASubspace):
        quotient(m([0, 1, 0], [0, 0, 1]), 3, *rref(m([0, 0, 1])))


def test_quotient_representatives():
    space = m([1, 0, 0], [0, 1, 0], [0, 0, 1])  # the kernel of no rows
    sub = m([0, 0, 1])
    reps = quotient([], 3, *rref(sub))
    assert reps == m([1, 0, 0], [0, 1, 0])
    assert quotient([], 3, *rref(space)) == []


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = [[F(draw(st.integers(-4, 4))) for _ in range(ncols)]
            for _ in range(nrows)]
    return m(*rows), ncols


@given(small_matrices())
def test_rank_nullity(mn):
    rows, ncols = mn
    ker = kernel(rows, ncols)
    assert rank(rows) + len(ker) == ncols
    for v in ker:
        for row in rows:
            assert dot(row, v) == 0


@given(small_matrices())
def test_rref_idempotent(mn):
    rows, ncols = mn
    red, piv = rref(rows, ncols)
    red2, piv2 = rref(red, ncols)
    assert red2 == red and piv2 == piv


@st.composite
def integer_matrices(draw):
    """Small matrices of int entries, as sparse rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols,
                                  max_size=ncols), max_size=6))
    return [{c: x for c, x in enumerate(r) if x} for r in rows], ncols


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example(([{0: 2, 1: 4, 2: 6}, {0: 1, 1: 3, 2: 5}], 3))
def test_integral_values_come_back_as_int(mn):
    # values are int when integral, else Fraction: an integral Fraction
    # would make every row cleared against it compute in Fraction
    rows, ncols = mn
    red, _ = rref(rows, ncols)
    for row in red + kernel(rows, ncols):
        for x in row.values():
            assert type(x) is (int if x.denominator == 1 else F)


# -- the dense reference ---------------------------------------------------------
#
# Dense Gauss-Jordan on lists of Fractions, as the engine did it before its
# rows became sparse.  The RREF of a row space is unique, so the sparse
# routines must reproduce these results entry for entry.

def dense_rref(rows, ncols):
    work = [[F(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = F(1) / work[r][c]
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


def dense_kernel(rows, ncols):
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def dense_residual(red, pivots, vec):
    v = [F(x) for x in vec]
    for i, pc in enumerate(pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, red[i])]
    return v


def dense_dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


def dense_quotient(sub_red, sub_pivots, space_rows, ncols):
    red, pivots = dense_rref(space_rows, ncols)
    if any(any(dense_residual(red, pivots, v)) for v in sub_red):
        raise NotASubspace("vector outside the ambient span")
    reduced = [dense_residual(sub_red, sub_pivots, v) for v in space_rows]
    reps, _ = dense_rref([v for v in reduced if any(v)], ncols)
    return reps


def densify(row, ncols):
    out = [F(0)] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def dense_vectors(ncols):
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2,
                                   max_denominator=3))
    return st.lists(entry.map(F), min_size=ncols, max_size=ncols)


@st.composite
def dense_matrices(draw, ncols=None):
    """Small dense matrices, mostly zeros, wide or tall, with zero rows and
    repeated (rescaled) rows mixed in."""
    if ncols is None:
        ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(dense_vectors(ncols), max_size=7))
    for op in draw(st.lists(st.integers(0, 2), max_size=3)):
        if op == 0:
            rows.append([F(0)] * ncols)
        elif rows:
            i = draw(st.integers(0, len(rows) - 1))
            f = F(1) if op == 1 else F(draw(st.integers(-3, 3)))
            rows.insert(draw(st.integers(0, len(rows))),
                        [f * x for x in rows[i]])
    return rows, ncols


def sparse_form_ok(rows):
    return all(isinstance(x, (int, F)) and x for r in rows for x in r.values())


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_sparse_rref_equals_dense_rref(mn):
    rows, ncols = mn
    red, piv = rref(m(*rows), ncols)
    dred, dpiv = dense_rref(rows, ncols)
    assert piv == dpiv
    assert [densify(r, ncols) for r in red] == dred
    assert sparse_form_ok(red)
    assert rank(m(*rows)) == len(dpiv)


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_sparse_kernel_equals_dense_kernel(mn):
    # kernel returns the rref of the null space, unique, so it must match
    # the dense kernel basis once that is reduced
    rows, ncols = mn
    ker = kernel(m(*rows), ncols)
    expected, _ = dense_rref(dense_kernel(rows, ncols), ncols)
    assert [densify(v, ncols) for v in ker] == expected
    assert sparse_form_ok(ker)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_residual_equals_dense_residual(data):
    rows, ncols = data.draw(dense_matrices())
    vec = data.draw(dense_vectors(ncols))
    red, piv = rref(m(*rows))
    dred, dpiv = dense_rref(rows, ncols)
    expected = dense_residual(dred, dpiv, vec)
    got = residual(red, piv, m(vec)[0])
    assert densify(got, ncols) == expected
    assert sparse_form_ok([got])
    assert (not residual(red, piv, m(vec)[0])) == (not any(expected))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_quotient_equals_dense_quotient(data):
    rows, ncols = data.draw(dense_matrices())
    space = dense_kernel(rows, ncols)
    # a subspace spanned by some of the kernel's basis vectors, or an
    # arbitrary matrix of the same width that may stick out of the kernel
    if data.draw(st.booleans()):
        sub = data.draw(st.lists(st.sampled_from(space), max_size=3)
                        if space else st.just([]))
    else:
        sub, _ = data.draw(dense_matrices(ncols))
    sub_red, sub_piv = rref(m(*sub))
    dsub_red, dsub_piv = dense_rref(sub, ncols)
    try:
        expected = dense_quotient(dsub_red, dsub_piv, space, ncols)
    except NotASubspace:
        with pytest.raises(NotASubspace):
            quotient(m(*rows), ncols, sub_red, sub_piv)
        return
    reps = quotient(m(*rows), ncols, sub_red, sub_piv)
    assert [densify(r, ncols) for r in reps] == expected
    assert sparse_form_ok(reps)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_annihilates_equals_dense_dot_products(data):
    rows, ncols = data.draw(dense_matrices())
    # kernel vectors, which every row annihilates, mixed with arbitrary ones
    kernel = dense_kernel(rows, ncols)
    vecs = data.draw(st.lists(st.sampled_from(kernel), max_size=3)
                     if kernel else st.just([]))
    vecs += data.draw(st.lists(dense_vectors(ncols), max_size=2))
    vecs = data.draw(st.permutations(vecs))
    expected = all(dense_dot(r, v) == 0 for r in rows for v in vecs)
    assert annihilates(m(*rows), m(*vecs)) == expected


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_rank_counts_the_rref_pivots(mn):
    # fractional entries: rank scales each row to integers first
    rows, _ = mn
    assert rank(m(*rows)) == len(rref(m(*rows))[1])


@st.composite
def wide_integer_matrices(draw):
    """Integer matrices with entries up to 10^6, so pivots are rarely
    units, and with rows that are integer combinations of earlier ones."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-10**6, 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = (draw(st.integers(-50, 50)) for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    rows = draw(st.permutations(rows))
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


@settings(max_examples=150, deadline=None)
@given(wide_integer_matrices())
@example([{0: 6, 1: 10}, {0: 9, 1: 15}, {0: 4, 1: 7, 2: 999983}])
def test_rank_of_integer_matrices_counts_the_rref_pivots(rows):
    assert rank(rows) == len(rref(rows)[1])


def test_rank_leaves_its_rows_unchanged():
    rows = [{0: 6, 1: 10, 2: F(1, 3)}, {0: 9, 1: 15, 2: F(1, 2)},
            {0: 4, 2: 7}]
    before = [dict(r) for r in rows]
    assert rank(rows) == 2
    assert rows == before
    assert [[type(x) for x in r.values()] for r in rows] == \
        [[type(x) for x in r.values()] for r in before]


# -- quotient on the free columns ----------------------------------------------

def former_quotient(rows, ncols, sub_pivots):
    """``quotient`` as it was first defined: the kernel of the rows below a
    unit row e_p per pivot p of sub."""
    return kernel([{p: 1} for p in sub_pivots] + rows, ncols)


def entries(vecs):
    """Each vector's entries in dict order, with their types."""
    return [[(c, type(x), x) for c, x in v.items()] for v in vecs]


@st.composite
def quotient_inputs(draw):
    """Rows, their width and a subspace of their kernel: integer
    combinations of the kernel basis, so sub has any rank from 0 to the
    nullity and its pivots need not be unit columns."""
    rows, ncols = draw(dense_matrices())
    space = dense_kernel(rows, ncols)
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(space),
                                    max_size=len(space)),
                           max_size=len(space) + 1))
    sub = [[sum(c * v[j] for c, v in zip(combo, space)) for j in range(ncols)]
           for combo in combos]
    return rows, ncols, sub


@settings(max_examples=200, deadline=None)
@given(quotient_inputs())
@example(([], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))   # no rows, all of P
@example(([], 3, []))                                   # no rows, P empty
@example(([[1, 2, 3]], 3, []))                          # P empty
@example(([[0, 0, 0]], 2, [[0, 1], [1, 0]]))            # a zero row, all of P
@example(([[1, -1, 0, F(1, 2)]], 4, [[1, 1, 0, 0], [0, 0, 1, 0]]))
def test_quotient_equals_the_kernel_below_unit_rows(inputs):
    rows, ncols, sub = inputs
    sub_red, sub_piv = rref(m(*sub))
    got = quotient(m(*rows), ncols, sub_red, sub_piv)
    assert entries(got) == entries(former_quotient(m(*rows), ncols, sub_piv))


def test_quotient_on_the_hh2_inputs_equals_the_kernel_below_unit_rows():
    names = [(name, None) for name in ("EX1", "DBL", "ANNULUS", "TORUS",
                                       "ANN2", "LOC_1", "LOC_2", "LOC_3")]
    names += [(label, doc) for label, doc in generated_family()]
    for label, doc in names:
        alg = (algebra(label) if doc is None else
               FiniteDimAlgebra(reduction_system(parse_ribbon_graph(doc))))
        coords, rows = cocycle_space(alg)
        red, pivots = rref(coboundary_image(alg, coords))
        assert entries(quotient(rows, len(coords), red, pivots)) == \
            entries(former_quotient(rows, len(coords), pivots)), label


# -- rref with unit pivots ---------------------------------------------------------

@st.composite
def unit_pivot_matrices(draw):
    """Integer rows with distinct leading columns, each led by 1 or -1,
    shuffled, with negated copies and zero rows mixed in: every pivot rref
    meets is 1 or -1."""
    ncols = draw(st.integers(1, 7))
    leads = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                          max_size=ncols))
    rows = []
    for p in leads:
        rest = draw(st.lists(st.integers(-5, 5), min_size=ncols - p - 1,
                             max_size=ncols - p - 1))
        rows.append([0] * p + [draw(st.sampled_from((1, -1)))] + rest)
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
            rows.append([-x for x in rows[i]])
    rows += [[0] * ncols] * draw(st.integers(0, 1))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=150, deadline=None)
@given(unit_pivot_matrices())
@example(([[-1, 2, 3], [0, -1, 4]], 3))
@example(([[0, -1, 4], [1, 2, -3], [-1, 0, 0]], 3))
def test_rref_with_unit_pivots_stays_in_int(mn):
    rows, ncols = mn
    red, piv = rref([{c: x for c, x in enumerate(r) if x} for r in rows])
    dred, dpiv = dense_rref(rows, ncols)
    assert piv == dpiv
    assert [densify(r, ncols) for r in red] == dred
    assert all(type(x) is int for r in red for x in r.values())
