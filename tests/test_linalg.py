from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bga.errors import NotASubspace
from bga.linalg import (
    in_span,
    kernel_basis,
    quotient,
    rank,
    residual,
    rref,
)

F = Fraction


def m(*rows):
    return [[F(x) for x in r] for r in rows]


def test_rref_small():
    red, piv = rref(m([1, 2, 3], [2, 4, 6], [1, 0, 1]))
    assert piv == [0, 1]
    assert red == m([1, 0, 1], [0, 1, 1])


def test_rank():
    assert rank(m([1, 2], [3, 4])) == 2
    assert rank(m([1, 2], [2, 4])) == 1
    assert rank([], 5) == 0
    assert rank(m([0, 0, 0])) == 0


def test_kernel_basis_free_columns_in_order():
    # x + 2y + 3z = 0: free columns 1 and 2
    ker = kernel_basis(m([1, 2, 3]), 3)
    assert ker == m([-2, 1, 0], [-3, 0, 1])
    for v in ker:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0


def test_kernel_of_full_rank_matrix_is_trivial():
    assert kernel_basis(m([1, 0], [0, 1]), 2) == []


def test_kernel_of_zero_matrix_is_everything():
    ker = kernel_basis(m([0, 0]), 2)
    assert ker == m([1, 0], [0, 1])


def test_residual_and_in_span():
    red, piv = rref(m([1, 0, 1], [0, 1, 1]))
    assert in_span(red, piv, [2, 3, 5])
    assert not in_span(red, piv, [0, 0, 1])
    r = residual(red, piv, [2, 3, 4])
    assert r == [F(0), F(0), F(-1)]


def test_quotient_dim():
    space = m([1, 0, 0], [0, 1, 0], [1, 1, 0])
    sub = m([1, 1, 0])
    assert len(quotient(*rref(sub, 3), space, 3)) == 1
    assert len(quotient(*rref([], 3), space, 3)) == 2


def test_quotient_dim_rejects_non_subspace():
    with pytest.raises(NotASubspace):
        quotient(*rref(m([0, 0, 1]), 3), m([1, 0, 0]), 3)


def test_quotient_representatives():
    space = m([1, 0, 0], [0, 1, 0], [0, 0, 1])
    sub = m([0, 0, 1])
    reps = quotient(*rref(sub, 3), space, 3)
    assert reps == m([1, 0, 0], [0, 1, 0])
    assert quotient(*rref(space, 3), space, 3) == []


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = [[F(draw(st.integers(-4, 4))) for _ in range(ncols)]
            for _ in range(nrows)]
    return rows, ncols


@given(small_matrices())
def test_rank_nullity(mn):
    rows, ncols = mn
    ker = kernel_basis(rows, ncols)
    assert rank(rows, ncols) + len(ker) == ncols
    for v in ker:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(small_matrices())
def test_rref_idempotent(mn):
    rows, ncols = mn
    red, piv = rref(rows, ncols)
    red2, piv2 = rref(red, ncols)
    assert red2 == red and piv2 == piv
