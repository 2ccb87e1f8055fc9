from fractions import Fraction

import pytest

from bga.errors import SchemaError
from bga.paths import (Quiver, element_from_doc, element_to_doc, rational,
                       render)
from oracles import add, multiply

F = Fraction


def ex1_quiver():
    # two loops and a 2-cycle, the running shape in the rewrite tests
    return Quiver(
        vertices=["1", "2"],
        arrows={"al": ("1", "1"), "be": ("2", "2"),
                "de": ("1", "2"), "ga": ("2", "1")},
    )


def test_key_validation():
    q = ex1_quiver()
    assert q.key("1", ("ga", "de")) == ("1", ("ga", "de"))
    assert q.path_target(("1", ("ga", "de"))) == "1"
    assert q.path_target(("1", ("de",))) == "2"
    with pytest.raises(SchemaError):
        q.key("1", ("de", "ga"))  # ga ends at 1, de starts at 1: ok backwards only
    with pytest.raises(SchemaError):
        q.key("2", ("al",))
    assert q.key("2", ()) == ("2", ())
    with pytest.raises(SchemaError):
        q.key("3", ())  # an idempotent needs a known vertex too


def test_word_key_infers_origin():
    q = ex1_quiver()
    assert q.word_key(("ga", "de")) == ("1", ("ga", "de"))


def test_concat_and_formal_zero():
    q = ex1_quiver()
    p = q.key("1", ("de",))
    r = q.key("2", ("ga",))
    assert p[0] == q.path_target(r)  # de * ga is a path
    assert q.concat_key(p, r) == ("2", ("de", "ga"))
    de, ga = {p: 1}, {r: 1}
    assert multiply(q, de, ga) == {("2", ("de", "ga")): F(1)}
    assert r[0] != q.path_target(r) and not multiply(q, ga, ga)


def test_idempotents_act_as_units():
    q = ex1_quiver()
    e1, e2 = {("1", ()): 1}, {("2", ()): 1}
    d = {q.key("1", ("de",)): 1}
    assert multiply(q, e2, d) == d  # de ends at 2
    assert multiply(q, d, e1) == d
    assert not multiply(q, e1, d)
    assert not multiply(q, d, e2)
    both = add(e1, e2)
    assert multiply(q, both, d) == multiply(q, d, both) == d


def test_bilinear_multiply_collects_terms():
    q = ex1_quiver()
    a = {q.key("1", ("al",)): F(2), q.key("1", ("ga", "de")): 1}
    b = {q.key("1", ("al",)): F(3)}
    assert multiply(q, a, b) == {
        ("1", ("al", "al")): F(6),
        ("1", ("ga", "de", "al")): F(3),
    }


def test_mixed_origin_products_drop_silently():
    q = ex1_quiver()
    a = {q.key("1", ("de",)): 1, q.key("2", ("ga",)): 1}
    assert multiply(q, a, a) == {
        ("1", ("ga", "de")): F(1),
        ("2", ("de", "ga")): F(1),
    }


def test_add_cancels_to_zero():
    a = {("1", ("al",)): 1}
    assert add(a, a, -1) == {}
    assert add(add(a, a, -1), a) == a
    assert add({}, a, F(0)) == {}
    assert a == {("1", ("al",)): 1}  # the arguments are not changed


def test_render():
    el = {("1", ("ga", "de")): F(-1), ("1", ()): F(2)}
    assert render(el) == "2 e(1) - ga*de"
    assert render({}) == "0"
    assert render({("1", ("al",)): F(1, 2)}) == "1/2 al"


def test_doc_round_trip():
    q = ex1_quiver()
    el = {q.key("1", ("ga", "de")): F(5, 3), ("2", ()): -1}
    doc = element_to_doc(el)
    assert element_from_doc(q, doc) == el
    assert doc == sorted(doc, key=lambda e: (e["vertex"], e["word"]))


def test_element_from_doc_is_zero_free():
    q = ex1_quiver()
    al = {"vertex": "1", "word": ["al"]}
    assert element_from_doc(q, [{**al, "coeff": "0"}]) == {}
    assert element_from_doc(q, [{**al, "coeff": "2/3"},
                                {**al, "coeff": "-2/3"},
                                {"vertex": "2", "word": [], "coeff": 1}]) \
        == {("2", ()): 1}


@pytest.mark.parametrize("text", ["1e3", "1E3", "\u0663", "1_000", " 2 ",
                                  "2.5", "+2", "1/-2", "0x10", "", "inf",
                                  "nan", "1/2/3", "3\n"])
def test_rational_takes_the_spelling_element_to_doc_writes(text):
    with pytest.raises(ValueError) as ours:
        rational(text)
    with pytest.raises(ValueError) as fractions:
        Fraction("x")
    # the refusal Fraction gives "x", so a document's error keeps its form
    assert str(ours.value) == str(fractions.value).replace("'x'", repr(text))


def test_rational_reads_what_element_to_doc_writes():
    for c in (0, 7, -12, F(5, 3), F(-1, 2), 10 ** 40, F(1, 10 ** 40)):
        assert rational(str(c)) == c
        assert type(rational(str(c))) is type(c)
    assert rational(-3) == -3 and rational("04/6") == F(2, 3)
