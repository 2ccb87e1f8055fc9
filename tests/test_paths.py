from collections.abc import Hashable
from fractions import Fraction

import pytest

from bga.errors import SchemaError
from bga.paths import Element, Quiver, element_from_doc, element_to_doc, render

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
    de, ga = Element(q, {p: 1}), Element(q, {r: 1})
    assert (de * ga).terms == {("2", ("de", "ga")): F(1)}
    assert r[0] != q.path_target(r) and not ga * ga  # ga * ga not composable


def test_idempotents_act_as_units():
    q = ex1_quiver()
    e1 = Element.idempotent(q, "1")
    e2 = Element.idempotent(q, "2")
    d = Element.path(q, "1", ("de",))
    assert e2 * d == d  # de ends at 2
    assert d * e1 == d
    assert not (e1 * d)
    assert not (d * e2)
    assert (e1 + e2) * d == d * (e1 + e2) == d


def test_bilinear_multiply_collects_terms():
    q = ex1_quiver()
    a = Element.path(q, "1", ("al",), F(2)) + Element.path(q, "1", ("ga", "de"))
    b = Element.path(q, "1", ("al",), F(3))
    prod = a * b
    assert prod.terms == {
        ("1", ("al", "al")): F(6),
        ("1", ("ga", "de", "al")): F(3),
    }


def test_mixed_origin_products_drop_silently():
    q = ex1_quiver()
    a = Element.path(q, "1", ("de",)) + Element.path(q, "2", ("ga",))
    sq = a * a
    assert sq.terms == {
        ("1", ("ga", "de")): F(1),
        ("2", ("de", "ga")): F(1),
    }


def test_add_cancels_to_zero():
    q = ex1_quiver()
    a = Element.path(q, "1", ("al",))
    assert not (a - a)
    assert (a - a) + a == a
    assert a.scaled(F(0)).terms == {}


def test_elements_are_not_hashable():
    # elements compare by value, so they must not claim a hash
    el = Element.path(ex1_quiver(), "1", ("al",))
    assert not isinstance(el, Hashable)
    with pytest.raises(TypeError, match="unhashable type"):
        hash(el)


def test_render():
    q = ex1_quiver()
    el = Element.path(q, "1", ("ga", "de"), F(-1)) + Element.idempotent(q, "1", F(2))
    assert render(el) == "2 e(1) - ga*de"
    assert render(Element.zero(q)) == "0"
    assert render(Element.path(q, "1", ("al",), F(1, 2))) == "1/2 al"


def test_doc_round_trip():
    q = ex1_quiver()
    el = Element.path(q, "1", ("ga", "de"), F(5, 3)) - Element.idempotent(q, "2")
    doc = element_to_doc(el)
    assert element_from_doc(q, doc) == el
    assert doc == sorted(doc, key=lambda e: (e["vertex"], e["word"]))
