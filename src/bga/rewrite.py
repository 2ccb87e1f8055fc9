"""Reduction systems on path algebras and the diamond-lemma toolkit.

A reduction system is a list of rules ``tip -> rhs`` where the tip is a path
word of length >= 2 and the rhs an element parallel to it (same origin and
target).  Invariants enforced at construction time:

* tips are pairwise distinct and none is a contiguous subword of another,
* every rhs monomial is parallel to its tip and contains no tip itself.

Under these invariants irreducibility is plain subword-freeness, a word
leaves at most one minimal completion per overlap, and the basis search
below is exhaustive.  ``reduce`` rewrites every word at its leftmost redex;
the test suite checks its normal forms against a rightmost reduction.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (
    InfiniteDimensional,
    NonAssociative,
    NonTerminating,
    SchemaError,
)
from .paths import Element, render_key

_F1 = 1

MAX_REDUCE_STEPS = 200_000


class Rule:
    __slots__ = ("tip", "rhs", "info")

    def __init__(self, tip, rhs, info=None):
        self.tip = tip          # path key (origin, word), len(word) >= 2
        self.rhs = rhs          # Element, parallel to tip
        self.info = info        # provenance tag for derived rules, else None

    def __repr__(self):
        return f"Rule({render_key(self.tip)} -> {self.rhs!r})"


class ReductionSystem:
    """Validated rule list over a fixed quiver.

    The tips are indexed by their first two letters and by their last two
    letters, as ``{letter pair: [(length, tip word, rule index)]}``.  Every
    tip has length >= 2 and no tip is a subword of another, so at most one
    tip starts (or ends) at any position of a word: a redex query is one
    pair lookup per position, plus one comparison per tip sharing that
    pair, and the suffix test is one lookup per word.  An occurrence that
    starts further left also ends further left, so the leftmost redex by
    start is the leftmost by end.
    """

    __slots__ = ("quiver", "rules", "_heads", "_ends", "word_cap",
                 "_ambiguities")

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
        heads, ends = {}, {}
        for ri, tip in enumerate(tips):
            entry = (len(tip), tip, ri)
            heads.setdefault(tip[:2], []).append(entry)
            ends.setdefault(tip[-2:], []).append(entry)
        self._heads, self._ends = heads, ends
        for a in tips:
            inner = [ri for i in range(len(a) - 1)
                     for k, tip, ri in heads.get(a[i:i + 2], ())
                     if k < len(a) and a[i:i + k] == tip]
            if inner:
                raise SchemaError(
                    f"tip {tips[min(inner)]!r} is a subword of tip {a!r}")
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
            word_cap = 2 * self.max_tip_length + 2 if self.rules else 2
        self.word_cap = word_cap
        self._ambiguities = None    # filled by enumerate_ambiguities

    @property
    def max_tip_length(self):
        return max((len(rule.tip[1]) for rule in self.rules), default=0)

    def first_redex(self, word):
        """Leftmost (position, rule_index) redex, or None if irreducible."""
        heads = self._heads
        for i in range(len(word) - 1):
            hit = heads.get(word[i:i + 2])
            if hit is not None:
                for k, tip, ri in hit:
                    if word[i:i + k] == tip:
                        return i, ri
        return None

    def tip_is_suffix(self, word):
        hit = self._ends.get(word[-2:])
        if hit is not None:
            for k, tip, _ in hit:
                # word[-k:] is the whole word when it is shorter than k
                if word[-k:] == tip:
                    return True
        return False


def reduce(system, element, trace=None):
    """Normal form of an element under the reduction system.

    One worklist over a single term dict: a heap pops the smallest key not
    yet known to be irreducible, and its leftmost redex is replaced in
    place.  Keys found irreducible are never scanned again.

    When ``trace`` is a list, each step appends ``(coeff, origin, left,
    rule_index, right)``: the term ``coeff * left tip right`` at ``origin``
    was replaced by ``coeff * left rhs right``.

    Raises NonTerminating when ``MAX_REDUCE_STEPS`` replacements were not
    enough.
    """
    find = system.first_redex
    budget = MAX_REDUCE_STEPS
    terms = dict(element.terms)
    heap = list(terms)
    heapify(heap)
    irreducible = set()
    steps = 0
    while heap:
        key = heappop(heap)
        if key in irreducible or key not in terms:
            continue
        origin, word = key
        redex = find(word)
        if redex is None:
            irreducible.add(key)
            continue
        steps += 1
        if steps > budget:
            raise NonTerminating(f"no normal form within {budget} steps")
        # the rhs is parallel to the tip, so the origin never moves
        pos, ri = redex
        rule = system.rules[ri]
        left, right = word[:pos], word[pos + len(rule.tip[1]):]
        coeff = terms.pop(key)
        if trace is not None:
            trace.append((coeff, origin, left, ri, right))
        for (_, r_word), c in rule.rhs.terms.items():
            new_key = (origin, left + r_word + right)
            s = terms.get(new_key)
            if s is None:
                s = coeff * c
                if new_key not in irreducible:
                    heappush(heap, new_key)
            else:
                s = s + coeff * c
            if s:
                terms[new_key] = s
            else:
                terms.pop(new_key, None)
    return Element(system.quiver, terms)


class NormalForms:
    """Memoised reduction of single paths in one system.

    ``nf(key)`` is the normal form of the path as a term dict, exactly as
    ``reduce(system, Element.path(...), trace=...)`` gives it: the same
    terms in the same order, with the same coefficient types.  The path's
    word is scanned once.  An irreducible path is its own normal form.
    Otherwise the one rewrite at its leftmost redex is made, and its words
    are scanned; each found irreducible enters the memo as such.  When all
    of them are, those terms are the normal form and the single step is
    the trace; ``reduce`` runs only when that rewrite leaves a reducible
    word.  A reduction always rewrites a given word at the same redex, so
    the normal form is linear and a sum may be reduced term by term.  With
    ``trace=True`` the memo also keeps each path's reduce steps (none for
    an irreducible path), and ``nf.steps(key)`` returns them.  The returned
    dicts and lists are shared and must not be changed.
    """

    __slots__ = ("system", "_trace", "_memo")

    def __init__(self, system, trace=False):
        self.system = system
        self._trace = trace
        self._memo = {}

    def _reduce(self, key):
        system, memo, trace = self.system, self._memo, self._trace
        origin, word = key
        redex = system.first_redex(word)
        if redex is None:
            hit = memo[key] = ({key: _F1}, [] if trace else None)
            return hit
        pos, ri = redex
        rule = system.rules[ri]
        left, right = word[:pos], word[pos + len(rule.tip[1]):]
        # reduce's first step on {key: 1}: coefficients 1 * c in rhs order
        terms = {}
        for (_, r_word), c in rule.rhs.terms.items():
            s = _F1 * c
            if s:
                terms[(origin, left + r_word + right)] = s
        for k in terms:
            if system.first_redex(k[1]) is not None:
                steps = [] if trace else None
                terms = reduce(system, Element(system.quiver, {key: _F1}),
                               trace=steps).terms
                break
            if k not in memo:
                memo[k] = ({k: _F1}, [] if trace else None)
        else:
            steps = [(_F1, origin, left, ri, right)] if trace else None
        hit = memo[key] = (terms, steps)
        return hit

    def __call__(self, key):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._reduce(key)
        return hit[0]

    def steps(self, key):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._reduce(key)
        return hit[1]


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
    basis, and works on infinite-dimensional algebras too.  v is a proper
    subword of a tip, so it is irreducible, and w grows only while v*w
    stays irreducible; a redex of v*w2 = v*w*a must therefore end at its
    last letter, and ``tip_is_suffix`` decides both tests, for v*w2 and for
    w2, with one lookup each.  The rules are fixed at construction, so the
    search runs once per system and later calls return the same tuple.
    """
    if system._ambiguities is not None:
        return system._ambiguities
    q = system.quiver
    max_w = system.max_tip_length - 1
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
                if system.tip_is_suffix(v + w2):
                    if not system.tip_is_suffix(w2):
                        out.append(Ambiguity(u, v, w2, ri))
                elif len(w2) < max_w:
                    frontier.append(w2)
    out.sort(key=lambda a: (a.rule_index, a.word))
    system._ambiguities = tuple(out)
    return system._ambiguities


def overlap_sides(system, amb, nf):
    """The overlap u|v|w as (uvw, vw, right): the path keys u*v*w and v*w,
    and the term dict u * nf(vw), nf(vw) being the normal form of v*w.

    The leftmost redex of u*v*w is the tip uv (no tip is a subword of
    another), so NF(uvw) = NF(rhs(uv)*w) is the left resolution and the
    reduce steps of uvw start with that rewrite; NF(right) is the right
    one.  ``nf`` is usually a ``NormalForms`` memo; its coefficients are
    copied, never combined, so they may be of any type.
    """
    origin = system.quiver.arrows[amb.w[-1]][0]
    vw = (origin, amb.v + amb.w)
    right = {(origin, (amb.u,) + word): c for (_, word), c in nf(vw).items()}
    return (origin, (amb.u,) + vw[1]), vw, right


def resolve_overlap(nf, amb):
    """Normal forms (left, right), as Elements, of the overlap u*v*w
    reduced both ways through the ``NormalForms`` memo ``nf``: ``left``
    rewrites the tip u*v first, ``right`` reduces v*w first and then the
    product with u.  The overlap resolves iff left == right.
    """
    uvw, _, right = overlap_sides(nf.system, amb, nf)
    q = nf.system.quiver
    return (Element(q, nf(uvw)),
            Element(q, _combine((c, nf(k)) for k, c in right.items())))


class DiamondReport:
    __slots__ = ("confluent", "failures", "n_ambiguities")

    def __init__(self, confluent, failures, n_ambiguities):
        self.confluent = confluent
        self.failures = failures        # list of (Ambiguity, nf_left, nf_right)
        self.n_ambiguities = n_ambiguities

    def __bool__(self):
        return self.confluent


def check_diamond(system):
    """Resolve every overlap ambiguity both ways and compare normal forms."""
    ambiguities = enumerate_ambiguities(system)
    nf = NormalForms(system)
    failures = []
    for amb in ambiguities:
        left, right = resolve_overlap(nf, amb)
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


def _combine(scaled_rows):
    """Sparse sum of c * row over (c, row) pairs, zero entries dropped."""
    out = {}
    for c, row in scaled_rows:
        for k, d in row.items():
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


class FiniteDimAlgebra:
    """Irreducible-path basis plus the structure constants of NF(b_i * b_j).

    ``table`` maps (i, j) to the sparse row {k: c} with NF(b_i * b_j) =
    sum c * b_k, zero products omitted.  Its dim^2 products go through one
    ``NormalForms`` memo, and it is built on first read, so callers that
    need only the basis never pay it.
    """

    __slots__ = ("system", "quiver", "basis", "index", "_table")

    def __init__(self, system, basis_keys):
        self.system = system
        self.quiver = system.quiver
        self.basis = list(basis_keys)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self._table = None

    @property
    def table(self):
        if self._table is None:
            table = {}
            q, index = self.quiver, self.index
            nf = NormalForms(self.system)
            for i, ki in enumerate(self.basis):
                for j, kj in enumerate(self.basis):
                    if not q.composable(ki, kj):
                        continue
                    row = {index[key]: c
                           for key, c in nf(q.concat_key(ki, kj)).items()}
                    if row:
                        table[(i, j)] = row
            self._table = table
        return self._table

    @property
    def dim(self):
        return len(self.basis)

    def multiply_coords(self, x, y):
        table = self.table
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = table.get((i, j))
                if row:
                    f = xi * yj
                    for k, c in row.items():
                        out[k] += f * c
        return out

    def _dense(self, row):
        vec = [Fraction(0)] * self.dim
        for k, c in row.items():
            vec[k] = Fraction(c)
        return vec

    def check_associative(self):
        """Associativity on all dim^3 basis triples; raises NonAssociative.

        The brute-force oracle for ``check_generator_triples``, and its
        failure path: the error names the lexicographically first failing
        triple (i, j, k) with the coordinate vectors of (b_i b_j) b_k and
        b_i (b_j b_k).  Products come from the sparse rows of ``table``.
        """
        table = self.table
        empty = {}
        idx = range(self.dim)
        for i in idx:
            for j in idx:
                ij = table.get((i, j), empty)
                for k in idx:
                    lhs = _combine((c, table.get((m, k), empty))
                                   for m, c in ij.items())
                    rhs = _combine((c, table.get((i, m), empty))
                                   for m, c in table.get((j, k), empty).items())
                    if lhs != rhs:
                        raise NonAssociative(
                            f"triple {i},{j},{k}: {self._dense(lhs)} != "
                            f"{self._dense(rhs)}")
        return True

    def check_generator_triples(self):
        """Associativity from the triples (x, y, g), g an idempotent or arrow.

        Every basis path z != e(v) is z' * a with z' a shorter basis path
        (prefixes of irreducible words are irreducible) and a an arrow, so
        by induction on |z| these dim^2 * (|Q0| + |Q1|) triples imply all
        dim^3.  Table rows are parallel to their paths, so only composable
        triples can fail and only those are visited.  On a failure the full
        ``check_associative`` scan raises NonAssociative for the first
        failing triple of all.
        """
        q = self.quiver
        table = self.table
        empty = {}
        by_origin = {v: [] for v in q.vertices}
        gens_into = {v: [] for v in q.vertices}
        for i, key in enumerate(self.basis):
            by_origin[key[0]].append(i)
            if len(key[1]) <= 1:
                gens_into[q.path_target(key)].append(i)
        for j, kj in enumerate(self.basis):
            right = [(g, table.get((j, g), empty)) for g in gens_into[kj[0]]]
            for i in by_origin[q.path_target(kj)]:
                ij = table.get((i, j), empty)
                for g, jg in right:
                    lhs = _combine((c, table.get((m, g), empty))
                                   for m, c in ij.items())
                    rhs = _combine((c, table.get((i, m), empty))
                                   for m, c in jg.items())
                    if lhs != rhs:
                        return self.check_associative()
        return True


def irreducible_basis(system):
    """FiniteDimAlgebra on the irreducible words of the system."""
    return FiniteDimAlgebra(system, irreducible_words(system))
