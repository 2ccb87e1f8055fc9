"""Exact arithmetic with integral coefficients kept as ``int``.

Coefficients are ``int`` when integral and ``Fraction`` otherwise.  Sums,
differences and products of these stay exact, so the one place a value can
leave the integers is a true division.  The engine has exactly one: the
pivot inverse ``_F1 / row[p]`` in ``linalg.rref``, where ``_F1`` is
``Fraction(1)``, so the quotient is a ``Fraction`` even of two ints.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import bga
from bga import linalg
from bga.linalg import kernel, quotient, residual, rref

F = Fraction


def _divisions():
    out = []
    for path in sorted(Path(bga.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.Div):
                out.append((path.name, ast.unparse(node)))
    return out


def test_the_only_true_division_is_the_rref_pivot_inverse():
    assert _divisions() == [("linalg.py", "_F1 / row[p]")]
    assert type(linalg._F1) is Fraction and linalg._F1 == 1


def exact(vectors):
    return all(type(x) in (int, Fraction) and x
               for v in vectors for x in v.values())


def test_rref_of_int_rows_scales_to_fractions():
    assert rref([{0: 2, 1: 1}]) == ([{0: 1, 1: F(1, 2)}], [0])
    red, _ = rref([{0: 2, 1: 1}])
    # the scaled pivot 2 * (1/2) is integral, so it comes back as an int
    assert [type(x) for x in red[0].values()] == [int, Fraction]


def test_rref_keeps_rows_with_unit_pivots_integral():
    red, pivots = rref([{0: -1, 1: 2}, {1: 1, 2: 3}])
    assert (red, pivots) == ([{0: 1, 2: 6}, {1: 1, 2: 3}], [0, 1])
    assert {type(x) for row in red for x in row.values()} == {int}


int_rows = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(int_rows, st.dictionaries(st.integers(0, 5), st.integers(-3, 3),
                                 max_size=4), st.data())
def test_linalg_on_int_rows_returns_ints_and_fractions_only(rows, vec, data):
    red, pivots = rref(rows)
    assert exact(red)
    null = kernel(rows, 6)
    assert exact(null)
    assert exact([residual(red, pivots, vec)])
    sub = data.draw(st.lists(st.sampled_from(null), max_size=3)
                    if null else st.just([]))
    sub_red, sub_pivots = rref(sub)
    assert exact(quotient(rows, 6, sub_red, sub_pivots))
