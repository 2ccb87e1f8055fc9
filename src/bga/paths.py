"""Quivers, path keys, and the text and document forms of a term dict.

A path is keyed by ``(origin, word)`` where ``word`` is a tuple of arrow
names written left to right with the rightmost arrow applied first, so the
word ``(u, v)`` means "v, then u" and needs ``origin(u) == target(v)``.
The empty word at vertex v is the idempotent e(v).

A linear combination of paths (a rule's right-hand side, a cochain value,
a normal form) is a zero-free term dict ``{path key: coefficient}`` with
exact rational coefficients: ``int`` when integral, else ``Fraction``.
Every layer computes on these dicts directly.  The engine only adds,
negates, multiplies and truth-tests a coefficient, so ``render`` also
prints a failed formal lift's witness, whose coefficients may be
polynomials in t held as text.
"""

from __future__ import annotations

import re
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


def render_key(key):
    origin, word = key
    return "*".join(word) if word else f"e({origin})"


def render(terms):
    """Human-readable form of a term dict, terms in sorted key order."""
    parts = []
    for k in sorted(terms):
        c = terms[k]
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
    return " + ".join(parts).replace("+ -", "- ") or "0"


def element_to_doc(terms):
    """JSON-friendly list form of a term dict, sorted by key; rational
    coefficients only."""
    return [{"vertex": key[0], "word": list(key[1]), "coeff": str(terms[key])}
            for key in sorted(terms)]


# the coefficient strings element_to_doc writes: str of an int or Fraction
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rational(text):
    """Exact value of a coefficient given as a string or an integer: an int
    when integral, else a Fraction.  A string must be spelled as
    ``element_to_doc`` writes it, else it raises the ValueError of an
    invalid ``Fraction`` literal: an exponent such as "1e100000000" would
    make a number too long to compute with or print.  A JSON float or
    boolean is refused, so no binary fraction enters the exact arithmetic."""
    if isinstance(text, (bool, float)):
        raise SchemaError(
            f"coefficient {text!r} is not a string or an integer")
    if isinstance(text, str) and not _RATIONAL.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
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
    """Inverse of element_to_doc: the zero-free term dict of the list, the
    entries of one path summed; raises SchemaError on a malformed list."""
    terms = {}
    try:
        for entry in doc:
            key = quiver.key(entry["vertex"], word_from_doc(entry["word"]))
            terms[key] = terms.get(key, 0) + rational(entry["coeff"])
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed element: {exc!r}") from exc
    return {k: c for k, c in terms.items() if c}
