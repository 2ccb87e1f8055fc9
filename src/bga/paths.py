"""Quivers and exact path-algebra arithmetic.

A path is keyed by ``(origin, word)`` where ``word`` is a tuple of arrow
names written left to right with the rightmost arrow applied first, so the
word ``(u, v)`` means "v, then u" and needs ``origin(u) == target(v)``.
The empty word at vertex v is the idempotent e(v).

Elements are finite combinations of paths with exact rational coefficients
(``int`` when integral, else ``Fraction``), stored as a zero-free dict.
Multiplication is the bilinear extension of concatenation; non-composable
products are zero, not an error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DOCUMENT_ERRORS, SchemaError


class Quiver:
    """Finite quiver: named vertices, named arrows with origin and target."""

    __slots__ = ("vertices", "arrows", "_by_target")

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = dict(arrows)  # name -> (origin, target)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise SchemaError("duplicate quiver vertex")
        for name, (o, t) in self.arrows.items():
            if o not in vset or t not in vset:
                raise SchemaError(f"arrow {name!r} touches unknown vertex")
        by_t = {v: [] for v in self.vertices}
        for name in sorted(self.arrows):
            by_t[self.arrows[name][1]].append(name)
        self._by_target = by_t

    def origin(self, arrow):
        return self.arrows[arrow][0]

    def target(self, arrow):
        return self.arrows[arrow][1]

    def arrows_into(self, v):
        """Arrow names with target v, sorted by name."""
        return self._by_target[v]

    # -- path keys ----------------------------------------------------------

    def key(self, origin, word):
        """Validated path key; raises SchemaError on an unknown origin or a
        non-composable word."""
        if origin not in self._by_target:
            raise SchemaError(f"unknown vertex {origin!r}")
        word = tuple(word)
        at = origin
        for name in reversed(word):
            o, t = self.arrows[name]
            if o != at:
                raise SchemaError(f"word {word!r} breaks at {name!r}")
            at = t
        return (origin, word)

    def word_key(self, word):
        """Key for a nonempty word, origin inferred from the last arrow."""
        word = tuple(word)
        return self.key(self.arrows[word[-1]][0], word)

    def path_target(self, key):
        origin, word = key
        return self.arrows[word[0]][1] if word else origin

    def concat_key(self, k1, k2):
        return (k2[0], k1[1] + k2[1])


class Element:
    """Linear combination of paths of one quiver.

    Coefficients are exact rationals (``int`` when integral, else
    ``Fraction``); they are only added, negated, multiplied, and
    truth-tested, so any type with those operations works too.  ``render``
    prints every coefficient with ``str``, so an Element that is only
    printed, such as a failed formal lift's witness, may hold polynomials
    in t as text.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver, terms=None):
        self.quiver = quiver
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, quiver):
        return cls(quiver)

    @classmethod
    def path(cls, quiver, origin, word, coeff=1):
        return cls(quiver, {quiver.key(origin, word): coeff})

    @classmethod
    def idempotent(cls, quiver, vertex, coeff=1):
        return cls(quiver, {(vertex, ()): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return Element(self.quiver, terms)

    def __neg__(self):
        return Element(self.quiver, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scaled(self, c):
        if not c:
            return Element(self.quiver)
        return Element(self.quiver, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        q = self.quiver
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1[0] != (q.arrows[k2[1][0]][1] if k2[1] else k2[0]):
                    continue  # not composable: contributes zero
                k = (k2[0], k1[1] + k2[1])
                c = c1 * c2
                s = terms.get(k)
                s = c if s is None else s + c
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return Element(q, terms)

    def __repr__(self):
        return f"Element({render(self)})"


def render_key(key):
    origin, word = key
    return "*".join(word) if word else f"e({origin})"


def render(el):
    """Human-readable form, terms in sorted key order."""
    if not el.terms:
        return "0"
    parts = []
    for k in sorted(el.terms):
        c = el.terms[k]
        body = render_key(k)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            txt = str(c)
            if any(ch in txt for ch in "+- ") and not txt.lstrip("-").isdigit():
                txt = f"({txt})"
            parts.append(f"{txt} {body}")
    return " + ".join(parts).replace("+ -", "- ")


def element_to_doc(el):
    """JSON-friendly list form, sorted by key; rational coefficients only."""
    out = []
    for (origin, word) in sorted(el.terms):
        c = el.terms[(origin, word)]
        out.append({"vertex": origin, "word": list(word), "coeff": str(c)})
    return out


def rational(text):
    """Exact value of a coefficient given as a string or an integer: an int
    when integral, else a Fraction.  A JSON float or boolean is refused, so
    no binary fraction enters the exact arithmetic."""
    if isinstance(text, (bool, float)):
        raise SchemaError(
            f"coefficient {text!r} is not a string or an integer")
    c = Fraction(text)
    return c.numerator if c.denominator == 1 else c


def word_from_doc(value):
    """A word read from a document, where it must be a JSON list of arrow
    names: a string is not read letter by letter, nor an object by its
    keys."""
    if not isinstance(value, list):
        raise SchemaError(f"word {value!r} is not a JSON list")
    return tuple(value)


def element_from_doc(quiver, doc):
    """Inverse of element_to_doc; raises SchemaError on a malformed list."""
    terms = {}
    try:
        for entry in doc:
            key = quiver.key(entry["vertex"], word_from_doc(entry["word"]))
            terms[key] = terms.get(key, 0) + rational(entry["coeff"])
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed element: {exc!r}") from exc
    return Element(quiver, terms)
