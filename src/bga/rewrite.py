"""Reduction systems on path algebras and the diamond-lemma toolkit.

A reduction system is a list of rules ``tip -> rhs`` where the tip is a path
word of length >= 2 and the rhs a term dict (see ``paths``) parallel to it
(same origin and target).  Every system satisfies two invariants:

* tips are pairwise distinct and none is a contiguous subword of another,
* every rhs monomial is parallel to its tip and contains no tip itself.

The constructor does not check them.  ``checked_system`` does, for rules
read from a document; the rules that ``presentation`` derives from a graph
satisfy them by construction, and ``check_cochain`` keeps them for the
deformed rules of a cochain.  Under these invariants irreducibility is
plain subword-freeness, a word leaves at most one minimal completion per
overlap, and the basis search below is exhaustive.  ``reduce`` rewrites
every word at its leftmost redex; the test suite checks its normal forms
against a rightmost reduction.  Each system memoises the normal form and
the reduce steps of every single path it is asked about, as the loop of
``reduce`` computes them, and the overlap resolutions, the multiplication
table, the cocycle rows and the formal lifts all read them from that one
memo.

Two facts about the monomial rules (rhs 0) settle a result without a
reduction, and every consumer uses them:

* A zero pair at a junction.  ``zero_pairs`` is the set of length-2 tips
  whose rhs is 0.  Let x be irreducible and the pair (x[-1], y[0]) a zero
  pair.  No redex of x*y ends inside x, and the length-2 tip ending at the
  junction is the only tip ending there, so it is the leftmost redex and
  NF(x*y) = 0 in any system.  In a confluent system the normal form is
  reduction-unique (Bergman's diamond lemma), so a zero pair anywhere in a
  word, rewritten first, makes its normal form 0.
* A monomial overlap.  When both rules of an overlap u|v|w rewrite to 0,
  the leftmost redex of u*v*w is the tip u*v and that of v*w is the
  completing tip, which ends at its last letter; each is one step to 0.
  So both sides are 0, and ``overlap_steps`` reads the two steps off the
  rules.

A word so settled is never longer than ``MAX_REDUCE_LETTERS``: a longer
one goes to the memo, which raises NonTerminating as ``reduce`` would.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (
    InfiniteDimensional,
    NonAssociative,
    NonParallelCochain,
    NonTerminating,
    SchemaError,
)
from .paths import element_to_doc, render, render_key

MAX_REDUCE_LETTERS = 2_000_000


class Rule:
    __slots__ = ("tip", "rhs", "info")

    def __init__(self, tip, rhs, info=None):
        self.tip = tip          # path key (origin, word), len(word) >= 2
        self.rhs = rhs          # term dict, parallel to tip
        self.info = info        # provenance tag for derived rules, else None

    def __repr__(self):
        return f"Rule({render_key(self.tip)} -> {render(self.rhs)})"


class ReductionSystem:
    """Rule list over a fixed quiver, which the constructor indexes and
    does not check (see the module docstring).

    The tips are indexed once, by their last two letters, as
    ``{letter pair: [(length, tip word, rule index)]}``.  Every tip has
    length >= 2 and no tip is a subword of another, so at most one tip ends
    at any position of a word, and an occurrence that ends further left
    also starts further left: the redex query walks the end positions from
    the left, one pair lookup per position plus one comparison per tip
    ending in that pair, and its first hit is the leftmost redex.  The
    suffix test is one lookup per word.

    The system is also the memo of its single-path normal forms.
    ``normal_form(key)`` is the normal form of the path as a term dict and
    ``steps(key)`` the list of its reduce steps (empty for an irreducible
    path).  A path that one redex scan settles (irreducible, or rewritten
    to 0 by its leftmost redex) is entered from that scan; any other runs
    the loop behind ``reduce`` on the term dict ``{key: 1}``, starting from
    the redex found.  Either way they are exactly what ``reduce(system,
    {key: 1}, trace=steps)`` gives: the same terms in the same order, with
    the same coefficient types, from the same scans.  A
    reduction always rewrites a given word at the same redex, so the normal
    form is linear and a sum may be reduced term by term.  The returned
    dicts and lists are shared and must not be changed.
    The memo refers to nothing that refers back to the system, so a system
    is freed without the cyclic garbage collector.

    ``zero_pairs`` is the set of the length-2 tips, as letter pairs, whose
    rhs is 0; see the module docstring for what a zero pair at a junction
    settles.
    """

    __slots__ = ("quiver", "rules", "zero_pairs", "_ends", "_ambiguities",
                 "_memo")

    def __init__(self, quiver, rules):
        self.quiver = quiver
        self.rules = list(rules)
        ends = self._ends = {}
        for ri, rule in enumerate(self.rules):
            tip = rule.tip[1]
            ends.setdefault(tip[-2:], []).append((len(tip), tip, ri))
        self.zero_pairs = _zero_pairs(self.rules)
        self._ambiguities = None    # filled by enumerate_ambiguities
        self._memo = {}             # path key -> (normal form, steps)

    def with_values(self, cochain):
        """This system with each rhs phi(s) replaced by phi(s) + psi(s), for
        a cochain {rule index: term dict} that ``check_cochain`` passed, so
        the new rules keep the invariants.  Each sum is a new zero-free
        dict.  The tips are unchanged: the new system shares the tip index
        and ambiguities, and gets an empty memo.  Its zero pairs are
        rebuilt, since a value may land on a zero rule or cancel an rhs."""
        out = object.__new__(ReductionSystem)
        out.quiver = self.quiver
        out.rules = rules = list(self.rules)
        for ri, value in cochain.items():
            rule = rules[ri]
            rhs = dict(rule.rhs)
            for k, c in value.items():
                rhs[k] = rhs.get(k, 0) + c
            rules[ri] = Rule(rule.tip, {k: c for k, c in rhs.items() if c},
                             rule.info)
        out.zero_pairs = _zero_pairs(out.rules)
        out._ends = self._ends
        out._ambiguities = self._ambiguities
        out._memo = {}
        return out

    @property
    def max_tip_length(self):
        return max((len(rule.tip[1]) for rule in self.rules), default=0)

    def first_redex(self, word):
        """Leftmost (position, rule_index) redex, or None if irreducible."""
        ends = self._ends
        for i in range(2, len(word) + 1):
            hit = ends.get(word[i - 2:i])
            if hit is not None:
                for k, tip, ri in hit:
                    # k <= i, or the slice would wrap round to the word's end
                    if k <= i and word[i - k:i] == tip:
                        return i - k, ri
        return None

    def suffix_rule(self, word):
        """Index of the rule whose tip ends the word, or None."""
        hit = self._ends.get(word[-2:])
        if hit is not None:
            for k, tip, ri in hit:
                # word[-k:] is the whole word when it is shorter than k
                if word[-k:] == tip:
                    return ri
        return None

    def _reduce_path(self, key):
        """Fill the memo entry of a path from one redex scan.  An
        irreducible path, or one whose leftmost redex is a zero-rhs rule
        within the letter budget, is settled by that scan; any other goes
        to the loop of ``reduce`` with the redex already found."""
        origin, word = key
        redex = self.first_redex(word)
        if redex is None:
            hit = ({key: 1}, [])
        else:
            pos, ri = redex
            rule = self.rules[ri]
            if rule.rhs or len(word) > MAX_REDUCE_LETTERS:
                steps = []
                hit = (_reduce_terms(self, {key: 1}, steps, redex), steps)
            else:
                right = word[pos + len(rule.tip[1]):]
                hit = ({}, [(1, origin, word[:pos], ri, right)])
        self._memo[key] = hit
        return hit

    def normal_form(self, key):
        return (self._memo.get(key) or self._reduce_path(key))[0]

    def steps(self, key):
        return (self._memo.get(key) or self._reduce_path(key))[1]


def _zero_pairs(rules):
    """The length-2 tips with rhs 0, as a set of letter pairs."""
    return frozenset(rule.tip[1] for rule in rules
                     if len(rule.tip[1]) == 2 and not rule.rhs)


def checked_system(quiver, rules):
    """The ``ReductionSystem`` of rules that nothing has checked yet, such
    as those of a rules document.  Raises SchemaError for the first rule
    that breaks the module's invariants, in this order: a tip that is not a
    path of the quiver or is shorter than 2 arrows (rules in order), a
    duplicate tip, a tip that is a subword of another (tips in order, the
    inner tip of least rule index named), then an rhs monomial that is not
    parallel to its tip or is itself reducible (rules in order).  Rules
    derived from a graph satisfy them by construction and skip this."""
    rules = list(rules)
    tips = []
    for rule in rules:
        origin, word = rule.tip
        quiver.key(origin, word)
        if len(word) < 2:
            raise SchemaError(f"tip {word!r} shorter than 2 arrows")
        tips.append(tuple(word))
    if len(set(tips)) != len(tips):
        raise SchemaError("duplicate tip")
    system = ReductionSystem(quiver, rules)
    ends = system._ends
    for a in tips:
        inner = [ri for j in range(2, len(a) + 1)
                 for k, tip, ri in ends.get(a[j - 2:j], ())
                 if k <= j and k < len(a) and a[j - k:j] == tip]
        if inner:
            raise SchemaError(
                f"tip {tips[min(inner)]!r} is a subword of tip {a!r}")
    for rule in rules:
        t_end = quiver.path_target(rule.tip)
        for (origin, word) in rule.rhs:
            if (origin != rule.tip[0]
                    or quiver.path_target((origin, word)) != t_end):
                raise SchemaError(
                    f"rhs of {render_key(rule.tip)} is not parallel to it")
            if system.first_redex(word) is not None:
                raise SchemaError(
                    f"rhs of {render_key(rule.tip)} is itself reducible")
    return system


def check_cochain(system, cochain):
    """Validate a 2-cochain, dict rule_index -> term dict, as the values of
    deformed rules: first every monomial of a value must run parallel to
    its rule's tip (NonParallelCochain, values in cochain order), then no
    monomial may contain a tip (the SchemaError ``checked_system`` raises
    for a reducible rhs, rules in rule order).  So a valid value is a sum of
    parallel irreducible paths, and the deformed rules pass every check of
    ``checked_system`` when the base rules do."""
    q = system.quiver
    for ri, value in cochain.items():
        rule = system.rules[ri]
        o_tip = rule.tip[0]
        t_tip = q.path_target(rule.tip)
        for key in value:
            if key[0] != o_tip or q.path_target(key) != t_tip:
                raise NonParallelCochain(
                    f"value on {render_key(rule.tip)} has non-parallel "
                    f"monomial {render_key(key)}")
    for ri in sorted(cochain):
        if any(system.first_redex(word) is not None
               for _, word in cochain[ri]):
            raise SchemaError(f"rhs of {render_key(system.rules[ri].tip)} "
                              "is itself reducible")


def reduce(system, terms, trace=None):
    """Normal form, as a new term dict, of a zero-free term dict under the
    reduction system; the dict passed in is not changed.

    When ``trace`` is a list, each step appends ``(coeff, origin, left,
    rule_index, right)``: the term ``coeff * left tip right`` at ``origin``
    was replaced by ``coeff * left rhs right``.

    Raises NonTerminating when the replacements would scan more than
    ``MAX_REDUCE_LETTERS`` letters: each one is charged the length of the
    word it rewrites, so words that grow at every step exhaust the budget
    as fast as their scans cost time.
    """
    return _reduce_terms(system, dict(terms), trace)


def _reduce_terms(system, terms, trace, first=None):
    """The loop of ``reduce`` on a zero-free term dict, which it rewrites in
    place and returns.

    One worklist: a heap pops the smallest key not yet known to be
    irreducible, and its leftmost redex is replaced in place.  Keys found
    irreducible are never scanned again.  ``first``, when given, is the
    leftmost redex of the smallest key, already scanned by the caller.
    """
    find = system.first_redex
    budget = MAX_REDUCE_LETTERS
    heap = list(terms)
    heapify(heap)
    irreducible = set()
    letters = 0
    while heap:
        key = heappop(heap)
        if key in irreducible or key not in terms:
            continue
        origin, word = key
        if first is None:
            redex = find(word)
            if redex is None:
                irreducible.add(key)
                continue
        else:
            redex, first = first, None
        letters += len(word)
        if letters > budget:
            raise NonTerminating(f"no normal form within {budget} letters")
        # the rhs is parallel to the tip, so the origin never moves
        pos, ri = redex
        rule = system.rules[ri]
        left, right = word[:pos], word[pos + len(rule.tip[1]):]
        coeff = terms.pop(key)
        if trace is not None:
            trace.append((coeff, origin, left, ri, right))
        for (_, r_word), c in rule.rhs.items():
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
    return terms


class Ambiguity:
    """Overlap witness u*v*w: uv is a tip, v*w reducible, both minimally."""

    __slots__ = ("u", "v", "w", "rule_index", "completion_index")

    def __init__(self, u, v, w, rule_index, completion_index):
        self.u = u                      # single arrow name
        self.v = v                      # word tuple
        self.w = w                      # word tuple
        self.rule_index = rule_index    # rule whose tip is (u,) + v
        self.completion_index = completion_index    # rule whose tip ends v*w

    @property
    def word(self):
        return (self.u,) + self.v + self.w

    def is_monomial(self, system):
        """Whether both rules rewrite to 0 in ``system`` and u*v*w keeps the
        letter budget: then both sides of the overlap are 0, and so are the
        steps of u*v*w and v*w (see the module docstring)."""
        rules = system.rules
        return (not rules[self.rule_index].rhs
                and not rules[self.completion_index].rhs
                and 1 + len(self.v) + len(self.w) <= MAX_REDUCE_LETTERS)

    def __repr__(self):
        return f"Ambiguity({self.u!r}, {self.v!r}, {self.w!r})"


def enumerate_ambiguities(system):
    """All overlap ambiguities of the system, as a tuple.

    u runs over tip head letters, v over the matching tip tails, and w over
    irreducible words making v*w reducible while every proper written prefix
    v*w[:j] stays irreducible.  Minimality forces the completing tip to end
    at the last letter of w and begin inside v (one beginning at u would
    hold the tip u*v, one inside w would make w reducible), so the
    completing tip is x*w for a nonempty suffix x of v: the search looks
    up the tips that begin with the first letter of x and keeps those that
    go on with the rest of x and are longer than it.  Their w is
    irreducible (a tip ending w would be a subword of the completing tip)
    and shorter than the longest tip; only the minimality of v*w is left,
    and since v is a proper subword of a tip, so irreducible, a redex of
    v*w[:j] must end at its last letter: ``suffix_rule`` decides each prefix
    with one lookup.  No basis is listed, so the search works on
    infinite-dimensional algebras too.  At most one tip ends at each
    position, so each w is found once.  The overlaps are in (rule, word)
    order: u and v are fixed per rule, so sorting each rule's w is enough.
    The rules are fixed at construction, so the search runs once per system
    and later calls return the same tuple.
    """
    if system._ambiguities is not None:
        return system._ambiguities
    suffix_rule = system.suffix_rule
    heads = {}
    for ci, rule in enumerate(system.rules):
        tip = rule.tip[1]
        heads.setdefault(tip[0], []).append((ci, tip))
    out = []
    for ri, rule in enumerate(system.rules):
        tip_word = rule.tip[1]
        u, v = tip_word[0], tip_word[1:]
        found = []
        for s, first in enumerate(v):
            tips = heads.get(first)
            if tips is None:
                continue
            x = v[s:]
            n = len(x)
            for ci, tip in tips:
                if len(tip) > n and tip[:n] == x:
                    w = tip[n:]
                    for j in range(1, len(w)):
                        if suffix_rule(v + w[:j]) is not None:
                            break
                    else:
                        found.append((w, ci))
        # each w is found once, so the completing rule never breaks a tie
        found.sort()
        out += [Ambiguity(u, v, w, ri, ci) for w, ci in found]
    system._ambiguities = tuple(out)
    return system._ambiguities


def overlap_sides(system, amb):
    """The overlap u|v|w as (uvw, vw, times_u, (u, v, w)): the path keys
    u*v*w and v*w, the map from the key of a path parallel to v*w to the
    key of u times that path, and the keys of the three factors.  No other
    code knows the layout.  The factors are basis paths: u is an arrow, v a
    proper subword of a tip, and w is irreducible by its search.

    The leftmost redex of u*v*w is the tip uv (no tip is a subword of
    another), so NF(uvw) = NF(rhs(uv)*w) is the left resolution and the
    reduce steps of uvw start with that rewrite; the right one is the sum
    of c * NF(times_u(k)) over the terms c * k of NF(vw).
    """
    u, v, w = (amb.u,), amb.v, amb.w
    arrows = system.quiver.arrows
    origin = arrows[w[-1]][0]
    vw = (origin, v + w)
    return ((origin, u + vw[1]), vw, lambda key: (key[0], u + key[1]),
            ((arrows[u[0]][0], u), (arrows[v[-1]][0], v), (origin, w)))


def overlap_steps(system, amb):
    """The reduce steps of both resolutions of the overlap u|v|w, the right
    ones negated: the steps of u*v*w; then those of v*w under the prefix u
    (a step at origin o with left word lw gets the left word of
    ``times_u((o, lw))``); then, for the terms e * k of NF(v*w), those of
    ``times_u(k)`` scaled by e.  The lists are read from the memo, except
    for a monomial overlap, whose two steps are read off its rules: tip u*v
    at the start of u*v*w, and the completing tip at the end of v*w, each
    rewritten to 0 with coefficient 1.
    """
    uvw, vw, times_u, _ = overlap_sides(system, amb)
    if amb.is_monomial(system):
        origin, word = uvw
        r1, r2 = amb.rule_index, amb.completion_index
        return [(1, origin, (), r1, word[len(system.rules[r1].tip[1]):]),
                (-1, origin, word[:-len(system.rules[r2].tip[1])], r2, ())]
    path_steps = system.steps
    steps = list(path_steps(uvw))
    steps += [(-c, *times_u((o, lw)), ri, rw)
              for c, o, lw, ri, rw in path_steps(vw)]
    steps += [(-e * c, o, lw, ri, rw)
              for k, e in system.normal_form(vw).items()
              for c, o, lw, ri, rw in path_steps(times_u(k))]
    return steps


def resolve_overlap(system, amb):
    """Normal forms (left, right), as term dicts, of the overlap u*v*w
    reduced both ways through the system's memo: ``left`` rewrites the tip
    u*v first, ``right`` reduces v*w first and then the product with u.
    Both are zero-free, so the overlap resolves iff left == right.  ``left``
    is the memo's own entry and must not be changed.
    """
    nf = system.normal_form
    uvw, vw, times_u, _ = overlap_sides(system, amb)
    right = {}
    for k, c in nf(vw).items():
        for key, d in nf(times_u(k)).items():
            right[key] = right.get(key, 0) + c * d
    return nf(uvw), {k: v for k, v in right.items() if v}


class DiamondReport:
    __slots__ = ("confluent", "failures", "n_ambiguities")

    def __init__(self, confluent, failures, n_ambiguities):
        self.confluent = confluent
        self.failures = failures        # list of (Ambiguity, left, right)
        self.n_ambiguities = n_ambiguities

    def __bool__(self):
        return self.confluent

    def to_doc(self):
        return {"confluent": self.confluent,
                "ambiguities": self.n_ambiguities,
                "failures": [{"word": list(amb.word),
                              "left": element_to_doc(left),
                              "right": element_to_doc(right)}
                             for amb, left, right in self.failures]}


def check_diamond(system):
    """Resolve every overlap ambiguity both ways and compare the normal
    forms as term dicts.  A failure is listed as (Ambiguity, left, right)
    with both sides as term dicts, ``left`` a copy of the memo's entry.  A
    monomial overlap has both sides 0: it is counted, and nothing is
    reduced for it."""
    ambiguities = enumerate_ambiguities(system)
    failures = []
    for amb in ambiguities:
        if amb.is_monomial(system):
            continue
        left, right = resolve_overlap(system, amb)
        if left != right:
            failures.append((amb, dict(left), right))
    return DiamondReport(not failures, failures, len(ambiguities))


def irreducible_words(system):
    """All irreducible path words (plus idempotent keys), breadth first.

    Starts from the idempotents in vertex order and extends on the right by
    arrows in name order; a word only becomes reducible through a tip ending
    at its last letter, so the suffix test is the whole pruning rule.
    Raises InfiniteDimensional when a word survives past the length cap
    of twice the longest tip plus two.
    """
    q = system.quiver
    cap = 2 * system.max_tip_length + 2
    out = []
    level = [(v, ()) for v in q.vertices]
    out.extend(level)
    while level:
        nxt = []
        for (origin, word) in level:
            for name in q.arrows_into(origin):
                cand = word + (name,)
                if system.suffix_rule(cand) is not None:
                    continue
                if len(cand) > cap:
                    raise InfiniteDimensional(
                        f"irreducible word longer than cap {cap}")
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
    """The algebra of a reduction system: its basis is the irreducible
    words of the system, listed by ``irreducible_words``, and its structure
    constants are NF(b_i * b_j), built on first read of ``table``, so
    callers that need only the basis never pay them.  ``ending_at`` is the
    basis bucketed once by path target, ``{vertex: [(j, b_j)]}`` in basis
    order, for the table, the failure scan and the HH^2 coordinates.
    """

    __slots__ = ("system", "quiver", "basis", "index", "ending_at", "_table")

    def __init__(self, system):
        self.system = system
        q = self.quiver = system.quiver
        self.basis = irreducible_words(system)
        self.index = {k: i for i, k in enumerate(self.basis)}
        ending_at = self.ending_at = {v: [] for v in q.vertices}
        for j, kj in enumerate(self.basis):
            ending_at[q.path_target(kj)].append((j, kj))
        self._table = None

    @property
    def table(self):
        """{(i, j): {k: c}} with NF(b_i * b_j) = sum c * b_k, zero products
        omitted, in (i, j)-lexicographic order.  For each i only the j in
        ``ending_at`` the origin of b_i are visited, since every other
        product is zero; each product is taken by ``_product_of``.
        """
        if self._table is None:
            product = self._product_of()
            table = {}
            for i, ki in enumerate(self.basis):
                for j, kj in self.ending_at[ki[0]]:
                    row = product(ki, kj)
                    if row:
                        table[(i, j)] = row
            self._table = table
        return self._table

    def _product_of(self):
        """The product of two basis paths x and y, y ending where x starts,
        as a function (x, y) -> the table row {k: c} of NF(x * y) =
        sum c * b_k.  A product with an idempotent factor is the other
        factor, a basis path and so irreducible.  x is irreducible, so a
        zero pair at the junction of x * y is its leftmost redex and the
        product is 0, in any system.  The rest are read from the system's
        normal-form memo as ``normal_form`` reads it, inlined since the
        table takes one product per composable basis pair."""
        system, index = self.system, self.index
        memo, reduce_path = system._memo.get, system._reduce_path
        zero, concat = system.zero_pairs, system.quiver.concat_key

        def product(x, y):
            wx, wy = x[1], y[1]
            if not wx:
                return {index[y]: 1}
            if not wy:
                return {index[x]: 1}
            if (wx[-1], wy[0]) in zero \
                    and len(wx) + len(wy) <= MAX_REDUCE_LETTERS:
                return {}
            key = concat(x, y)
            row = {}
            for k, c in (memo(key) or reduce_path(key))[0].items():
                row[index[k]] = c
            return row
        return product

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
        """Associativity of the structure constants, by the diamond lemma;
        raises NonAssociative.

        Every overlap u|v|w has u, v and w basis paths (``overlap_sides``),
        and the leftmost redex of u*v*w is the tip u*v, so its two sides
        are the basis triple products (u v) w and u (v w): a failing
        overlap is a failing triple.  Conversely, in a terminating system
        whose overlaps all resolve, normal forms are reduction-unique and
        the algebra is associative (Bergman 1978, Thm 1.2); the test suite
        checks the verdict against a scan of the whole table.  Each
        product is taken by ``_product_of``, so it is one the table reuses
        from the memo; a monomial overlap has both sides 0 and is skipped.
        That reuse is why the check keeps its own basis-path products
        rather than going through ``check_diamond``, whose overlap-word
        normal forms no table row reads.
        On a failure, ``_first_failure`` names the first failing basis
        triple of all.
        """
        system, basis, product = self.system, self.basis, self._product_of()
        for amb in enumerate_ambiguities(system):
            if amb.is_monomial(system):
                continue
            u, v, w = overlap_sides(system, amb)[3]
            diff = {}
            for m, c in product(u, v).items():
                for k, d in product(basis[m], w).items():
                    diff[k] = diff.get(k, 0) + c * d
            for m, c in product(v, w).items():
                for k, d in product(u, basis[m]).items():
                    diff[k] = diff.get(k, 0) - c * d
            if any(diff.values()):
                self._first_failure()
                raise RuntimeError(
                    f"overlap {'*'.join(amb.word)} fails, but no basis "
                    "triple does")
        return True

    def _first_failure(self):
        """Raise NonAssociative for the lexicographically first failing
        basis triple (i, j, k), with the coordinate vectors of (b_i b_j) b_k
        and b_i (b_j b_k); called only when one fails.

        A triple with b_j not ending at the origin of b_i, or b_k not
        ending at the origin of b_j, has both sides 0 (table rows are
        parallel to their paths), so only the composable triples are
        visited, through ``ending_at`` as in ``table`` and in (i, j, k)
        order: the first failure is the first of all dim^3.  Products come
        from the sparse rows of ``table``.
        """
        table = self.table
        empty = {}
        ending_at = self.ending_at
        for i, ki in enumerate(self.basis):
            for j, kj in ending_at[ki[0]]:
                ij = table.get((i, j), empty)
                for k, _kk in ending_at[kj[0]]:
                    lhs = _combine((c, table.get((m, k), empty))
                                   for m, c in ij.items())
                    rhs = _combine((c, table.get((i, m), empty))
                                   for m, c in table.get((j, k), empty).items())
                    if lhs != rhs:
                        raise NonAssociative(
                            f"triple {i},{j},{k}: {self._dense(lhs)} != "
                            f"{self._dense(rhs)}")
