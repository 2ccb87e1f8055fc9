"""Reduction systems on path algebras and the diamond-lemma toolkit.

A reduction system is a list of rules ``tip -> rhs`` where the tip is a path
word of length >= 2 and the rhs an element parallel to it (same origin and
target).  Invariants enforced at construction time:

* tips are pairwise distinct and none is a contiguous subword of another,
* every rhs monomial is parallel to its tip and contains no tip itself.

Under these invariants irreducibility is plain subword-freeness, a word
leaves at most one minimal completion per overlap, and the basis search
below is exhaustive.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InfiniteDimensional,
    NonAssociative,
    NonTerminating,
    SchemaError,
)
from .paths import Element, render_key

_F1 = Fraction(1)

MAX_REDUCE_STEPS = 200_000


def _contains(word, sub):
    n, k = len(word), len(sub)
    return any(word[i:i + k] == sub for i in range(n - k + 1))


class Rule:
    __slots__ = ("tip", "rhs", "info")

    def __init__(self, tip, rhs, info=None):
        self.tip = tip          # path key (origin, word), len(word) >= 2
        self.rhs = rhs          # Element, parallel to tip
        self.info = info        # provenance tag for derived rules, else None

    def __repr__(self):
        return f"Rule({render_key(self.tip)} -> {self.rhs!r})"


class ReductionSystem:
    """Validated rule list over a fixed quiver."""

    __slots__ = ("quiver", "rules", "_tip_words", "word_cap", "_ambiguities")

    def __init__(self, quiver, rules, word_cap=None):
        self.quiver = quiver
        self.rules = list(rules)
        tips = []
        for rule in self.rules:
            origin, word = rule.tip
            quiver.key(origin, word)
            if len(word) < 2:
                raise SchemaError(f"tip {word!r} shorter than 2 arrows")
            tips.append(tuple(word))
        if len(set(tips)) != len(tips):
            raise SchemaError("duplicate tip")
        for a in tips:
            for b in tips:
                if a is not b and _contains(a, b):
                    raise SchemaError(f"tip {b!r} is a subword of tip {a!r}")
        self._tip_words = tips
        for rule in self.rules:
            t_end = quiver.path_target(rule.tip)
            for (origin, word) in rule.rhs.terms:
                if origin != rule.tip[0] or quiver.path_target((origin, word)) != t_end:
                    raise SchemaError(
                        f"rhs of {render_key(rule.tip)} is not parallel to it")
                if self.first_redex(word) is not None:
                    raise SchemaError(
                        f"rhs of {render_key(rule.tip)} is itself reducible")
        if word_cap is None:
            word_cap = 2 * max(len(t) for t in tips) + 2 if tips else 2
        self.word_cap = word_cap
        self._ambiguities = None    # filled by enumerate_ambiguities

    def first_redex(self, word):
        """Leftmost (position, rule_index) redex, or None if irreducible."""
        best = None
        for ri, tip in enumerate(self._tip_words):
            k = len(tip)
            for i in range(len(word) - k + 1):
                if best is not None and (i, ri) >= best:
                    break
                if word[i:i + k] == tip:
                    best = (i, ri)
                    break
        return best

    def tip_is_suffix(self, word):
        return any(word[-len(t):] == t for t in self._tip_words
                   if len(t) <= len(word))


def _splice(system, key, pos, rule_index, coeff):
    """Element obtained by replacing the tip at pos inside the word by its rhs.

    The rhs is parallel to the tip, so the origin of the spliced path never
    moves, whatever part of the word was replaced.
    """
    origin, word = key
    rule = system.rules[rule_index]
    k = len(rule.tip[1])
    left, right = word[:pos], word[pos + k:]
    terms = {}
    for (_, r_word), c in rule.rhs.terms.items():
        new_key = (origin, left + r_word + right)
        s = terms.get(new_key)
        v = coeff * c
        s = v if s is None else s + v
        if s:
            terms[new_key] = s
        else:
            terms.pop(new_key, None)
    return Element(system.quiver, terms)


def reduce(system, element, strategy="leftmost", max_steps=MAX_REDUCE_STEPS):
    """Normal form of an element under the reduction system.

    ``strategy`` picks which reducible monomial/position goes first and must
    not change the result on confluent systems:

    * ``leftmost``: smallest key, leftmost redex (the default),
    * ``rightmost``: largest key, rightmost redex.

    Raises NonTerminating when max_steps replacements were not enough.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise SchemaError(f"unknown strategy {strategy!r}")
    current = element
    steps = 0
    while True:
        pick = None
        keys = sorted(current.terms)
        if strategy == "rightmost":
            keys.reverse()
        for key in keys:
            origin, word = key
            if strategy == "leftmost":
                redex = system.first_redex(word)
                if redex is not None:
                    pick = (key, redex)
                    break
            else:
                best = None
                for ri, tip in enumerate(system._tip_words):
                    k = len(tip)
                    for i in range(len(word) - k, -1, -1):
                        if word[i:i + k] == tip:
                            if best is None or (i, ri) > best:
                                best = (i, ri)
                            break
                if best is not None:
                    pick = (key, best)
                    break
        if pick is None:
            return current
        steps += 1
        if steps > max_steps:
            raise NonTerminating(f"no normal form within {max_steps} steps")
        key, (pos, ri) = pick
        rest = dict(current.terms)
        coeff = rest.pop(key)
        current = Element(system.quiver, rest) + \
            _splice(system, key, pos, ri, coeff)


class Ambiguity:
    """Overlap witness u*v*w: uv is a tip, v*w reducible, both minimally."""

    __slots__ = ("u", "v", "w", "rule_index")

    def __init__(self, u, v, w, rule_index):
        self.u = u                      # single arrow name
        self.v = v                      # word tuple
        self.w = w                      # word tuple
        self.rule_index = rule_index    # rule whose tip is (u,) + v

    @property
    def word(self):
        return (self.u,) + self.v + self.w

    def __repr__(self):
        return f"Ambiguity({self.u!r}, {self.v!r}, {self.w!r})"


def enumerate_ambiguities(system):
    """All overlap ambiguities of the system, as a tuple.

    u runs over tip head letters, v over the matching tip tails, and w over
    irreducible words making v*w reducible while every proper written prefix
    v*w[:j] stays irreducible.  Minimality forces the completing tip to end
    at the last letter of w and begin inside v, so w is shorter than the
    longest tip; the search is a capped right extension, never the full
    basis, and works on infinite-dimensional algebras too.  The rules are
    fixed at construction, so the search runs once per system and later
    calls return the same tuple.
    """
    if system._ambiguities is not None:
        return system._ambiguities
    q = system.quiver
    max_w = max(map(len, system._tip_words), default=0) - 1
    out = []
    for ri, rule in enumerate(system.rules):
        origin, tip_word = rule.tip
        u, v = tip_word[0], tip_word[1:]
        frontier = [()]
        while frontier:
            w = frontier.pop()
            attach = origin if not w else q.arrows[w[-1]][0]
            for name in q.arrows_into(attach):
                w2 = w + (name,)
                if system.first_redex(v + w2) is not None:
                    if system.first_redex(w2) is None:
                        out.append(Ambiguity(u, v, w2, ri))
                elif len(w2) < max_w:
                    frontier.append(w2)
    out.sort(key=lambda a: (a.rule_index, a.word))
    system._ambiguities = tuple(out)
    return system._ambiguities


def resolve_overlap(system, amb, one=_F1, max_steps=MAX_REDUCE_STEPS):
    """Normal forms (left, right) of the overlap u*v*w reduced both ways.

    ``left`` rewrites the tip u*v first, ``right`` reduces v*w first and then
    the product with u.  ``one`` is the unit of the coefficient ring the
    rules of ``system`` use.  The overlap resolves iff left == right.
    """
    q = system.quiver
    w_el = Element.path(q, q.arrows[amb.w[-1]][0], amb.w, coeff=one)
    v_el = Element.path(q, q.arrows[amb.v[-1]][0], amb.v, coeff=one)
    u_el = Element.path(q, q.arrows[amb.u][0], (amb.u,), coeff=one)
    left = reduce(system, system.rules[amb.rule_index].rhs * w_el,
                  max_steps=max_steps)
    vw = reduce(system, v_el * w_el, max_steps=max_steps)
    return left, reduce(system, u_el * vw, max_steps=max_steps)


class DiamondReport:
    __slots__ = ("confluent", "failures", "n_ambiguities")

    def __init__(self, confluent, failures, n_ambiguities):
        self.confluent = confluent
        self.failures = failures        # list of (Ambiguity, nf_left, nf_right)
        self.n_ambiguities = n_ambiguities

    def __bool__(self):
        return self.confluent


def check_diamond(system, max_steps=MAX_REDUCE_STEPS):
    """Resolve every overlap ambiguity both ways and compare normal forms."""
    ambiguities = enumerate_ambiguities(system)
    failures = []
    for amb in ambiguities:
        left, right = resolve_overlap(system, amb, max_steps=max_steps)
        if left != right:
            failures.append((amb, left, right))
    return DiamondReport(not failures, failures, len(ambiguities))


def irreducible_words(system):
    """All irreducible path words (plus idempotent keys), breadth first.

    Starts from the idempotents in vertex order and extends on the right by
    arrows in name order; a word only becomes reducible through a tip ending
    at its last letter, so the suffix test is the whole pruning rule.
    Raises InfiniteDimensional when a word survives past the length cap.
    """
    q = system.quiver
    out = []
    level = [(v, ()) for v in q.vertices]
    out.extend(level)
    while level:
        nxt = []
        for (origin, word) in level:
            attach = origin if not word else q.arrows[word[-1]][0]
            for name in q.arrows_into(attach):
                cand = word + (name,)
                if system.tip_is_suffix(cand):
                    continue
                if len(cand) > system.word_cap:
                    raise InfiniteDimensional(
                        f"irreducible word longer than cap {system.word_cap}")
                nxt.append((q.arrows[name][0], cand))
        out.extend(nxt)
        level = nxt
    return out


class FiniteDimAlgebra:
    """Irreducible-path basis plus the structure constants of NF(b_i * b_j)."""

    __slots__ = ("system", "quiver", "basis", "index", "table")

    def __init__(self, system, basis_keys):
        self.system = system
        self.quiver = system.quiver
        self.basis = list(basis_keys)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.table = {}
        q = self.quiver
        for i, ki in enumerate(self.basis):
            for j, kj in enumerate(self.basis):
                if not q.composable(ki, kj):
                    continue
                nf = reduce(self.system, Element(q, {q.concat_key(ki, kj): _F1}))
                row = {}
                for key, c in nf.terms.items():
                    row[self.index[key]] = c
                if row:
                    self.table[(i, j)] = row

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, element):
        nf = reduce(self.system, element)
        vec = [Fraction(0)] * self.dim
        for key, c in nf.terms.items():
            vec[self.index[key]] = c
        return vec

    def multiply_coords(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.table.get((i, j))
                if row:
                    f = xi * yj
                    for k, c in row.items():
                        out[k] += f * c
        return out

    def check_associative(self, triples=None):
        """Associativity of the structure constants; raises NonAssociative.

        With no argument checks all basis triples.
        """
        idx = range(self.dim)
        if triples is None:
            triples = [(i, j, k) for i in idx for j in idx for k in idx]
        unit = [Fraction(0)] * self.dim

        def basis_vec(i):
            v = list(unit)
            v[i] = _F1
            return v

        for (i, j, k) in triples:
            a, b, c = basis_vec(i), basis_vec(j), basis_vec(k)
            lhs = self.multiply_coords(self.multiply_coords(a, b), c)
            rhs = self.multiply_coords(a, self.multiply_coords(b, c))
            if lhs != rhs:
                raise NonAssociative(
                    f"triple {i},{j},{k}: {lhs} != {rhs}")
        return True


def irreducible_basis(system):
    """FiniteDimAlgebra on the irreducible words of the system."""
    return FiniteDimAlgebra(system, irreducible_words(system))
