from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bga.errors import ScalarContextMismatch
from bga.scalars import FormalCtx, TruncPoly

F = Fraction


def tp(*coeffs):
    return TruncPoly([F(c) for c in coeffs])


def test_truncpoly_ring_ops():
    a = tp(1, 2, 0, 0)
    b = tp(0, 1, 1, 0)
    assert (a + b).coeffs == (F(1), F(3), F(1), F(0))
    assert (a * b).coeffs == (F(0), F(1), F(3), F(2))
    assert (a - a).coeffs == (F(0),) * 4
    assert not (a - a)
    assert a * 0 == tp(0, 0, 0, 0)
    assert 1 * a == a


def test_truncpoly_truncates():
    t = tp(0, 1)
    assert (t * t).coeffs == (F(0), F(0))


def test_truncpoly_mixed_degree_rejected():
    with pytest.raises(ScalarContextMismatch):
        tp(1, 0) + tp(1, 0, 0)
    with pytest.raises(ScalarContextMismatch):
        tp(1, 0) * tp(1, 0, 0)


def test_truncpoly_coerces_rationals():
    a = tp(1, 2)
    assert (a + 1).coeffs == (F(2), F(2))
    assert (F(1, 2) * a).coeffs == (F(1, 2), F(1))


def test_truncpoly_lowest_order():
    assert tp(0, 0, 3).lowest_nonzero_order() == 2
    assert tp(0, 0, 0).lowest_nonzero_order() is None


def test_formal_ctx_times_t():
    ctx = FormalCtx(3)
    assert ctx.times_t(ctx.one()).coeffs == (F(0), F(1), F(0))
    assert ctx.times_t(tp(1, 1, 1)).coeffs == (F(0), F(1), F(1))
    d1 = FormalCtx(1)
    assert not d1.times_t(d1.one())


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_truncpoly_is_associative_and_distributive(a, b, c):
    A, B, C = tp(*a), tp(*b), tp(*c)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
