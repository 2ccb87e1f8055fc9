"""The two facts about monomial rules (rhs 0) that settle a result without a
reduction: a zero pair at a junction (``ReductionSystem.zero_after``) and a
monomial overlap (``Ambiguity.is_monomial``).

Every word the junction test settles, in the multiplication table, the
cocycle rows and the coboundary image, is checked against the normal form
a fresh system computes for it, and so is each monomial overlap.  A work
guard checks that ``hh2`` enters in the memo exactly the paths its
unsettled work needs, and the letter budget still applies to words too
long for it."""

import pytest
from hypothesis import assume, given, settings

from loaders import NAMED, generated_family, graph, system_for
from test_cocycle_oracle import bipartite_graphs

from bga.errors import NonTerminating
from bga.fixtures import fixture_rules
from bga.hochschild import (
    cochain_space,
    hh2,
    one_cochain_coords,
    standard_cocycles,
)
from bga.paths import Quiver
from bga.presentation import reduction_system
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    check_diamond,
    checked_system,
    enumerate_ambiguities,
    overlap_sides,
    overlap_steps,
    resolve_overlap,
)
from bga.ribbon import parse_ribbon_graph


def base_cases():
    """(label, graph, system) for the named fixtures and the family."""
    out = [(name, graph(name), system_for(name)) for name in NAMED]
    for label, doc in generated_family():
        g = parse_ribbon_graph(doc)
        out.append((label, g, reduction_system(g)))
    return out


def t1_systems(label, g, system):
    """(label, t = 1 system) for every standard cocycle of a derived
    system with at least two edges."""
    if len(g.edges) < 2 or fixture_rules(label):
        return []
    return [((label, s.label), system.with_values(s.cochain))
            for s in standard_cocycles(g, system)]


def fresh(system):
    """The system rebuilt by ``checked_system``: an empty memo and its own
    zero pairs."""
    return checked_system(system.quiver, system.rules)


def junction_killed(system, left, middle, right):
    """Whether a zero pair of the system sits where left, middle and right
    meet in left * middle * right."""
    word = left + middle + right
    cuts = {len(left), len(left) + len(middle)} - {0, len(word)}
    after = system.zero_after
    return any(word[i] in after.get(word[i - 1], ()) for i in cuts)


# -- the words each consumer forms, as (left, middle, right, key) -------------

def table_words(alg):
    q = alg.quiver
    for ki in alg.basis:
        for _, kj in alg.ending_at[ki[0]]:
            if ki[1] and kj[1]:
                yield ki[1], (), kj[1], q.concat_key(ki, kj)


def row_words(system, coords):
    paths = {}
    for ri, (_, p) in coords:
        paths.setdefault(ri, []).append(p)
    for amb in enumerate_ambiguities(system):
        for _, o, lw, ri, rw in overlap_steps(system, amb):
            for p in paths.get(ri, ()):
                yield lw, p, rw, (o, lw + p + rw)


def coboundary_words(alg):
    monomials = [key for rule in alg.system.rules
                 for key in (rule.tip, *rule.rhs)]
    for name, (_, path) in one_cochain_coords(alg):
        for origin, word in monomials:
            for i, letter in enumerate(word):
                if letter == name:
                    left, right = word[:i], word[i + 1:]
                    yield left, path, right, (origin, left + path + right)


def killed(system, words):
    return [key for left, middle, right, key in words
            if junction_killed(system, left, middle, right)]


def settled_words(system):
    """Every word the junction test settles in the table, the cocycle rows
    and the coboundary image of a confluent system."""
    alg = FiniteDimAlgebra(system)
    coords = cochain_space(alg)
    return (killed(system, table_words(alg))
            + killed(system, row_words(system, coords))
            + killed(system, coboundary_words(alg)))


def full_table(alg):
    """The table with every product reduced by a fresh system."""
    nf, index, q = fresh(alg.system).normal_form, alg.index, alg.quiver
    table = {}
    for i, ki in enumerate(alg.basis):
        for j, kj in alg.ending_at[ki[0]]:
            row = {index[k]: c for k, c in nf(q.concat_key(ki, kj)).items()}
            if row:
                table[(i, j)] = row
    return table


def assert_settled_words_are_zero(system, keys, label):
    check = fresh(system)
    assert [k for k in keys if check.normal_form(k)] == [], label


def assert_t1_table_is_exact(system, label):
    """The t = 1 system's zero pairs are the ones ``checked_system``
    builds, the products the junction test settles are 0 and
    the table is the one every product reduced gives."""
    assert system.zero_after == fresh(system).zero_after, label
    alg = FiniteDimAlgebra(system)
    assert_settled_words_are_zero(system, killed(system, table_words(alg)),
                                  label)
    assert alg.table == full_table(alg), label


def assert_base_is_exact(label, system):
    assert check_diamond(system), label
    keys = settled_words(system)
    assert_settled_words_are_zero(system, keys, label)
    alg = FiniteDimAlgebra(system)
    assert alg.table == full_table(alg), label
    return len(keys)


# -- (1) a zero pair at a junction --------------------------------------------

def test_words_a_zero_pair_settles_are_zero():
    settled = t1 = 0
    for label, g, system in base_cases():
        settled += assert_base_is_exact(label, system)
        for t1_label, t1_system in t1_systems(label, g, system):
            assert_t1_table_is_exact(t1_system, t1_label)
            t1 += 1
    assert settled > 3000 and t1 > 100


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs())
def test_words_a_zero_pair_settles_are_zero_on_drawn_graphs(doc):
    g = parse_ribbon_graph(doc)
    assume(g.dimension_sum() <= 60)
    system = reduction_system(g)
    assert_base_is_exact("drawn", system)
    for t1_label, t1_system in t1_systems("drawn", g, system):
        assert_t1_table_is_exact(t1_system, t1_label)


def test_a_shared_zero_pair_set_is_caught(monkeypatch):
    # D1 and D2 give c-rules a value, so a t = 1 system that kept the base
    # zero pairs would settle nonzero products to 0
    plain = ReductionSystem.with_values

    def shared(self, cochain):
        out = plain(self, cochain)
        out.zero_after = self.zero_after
        return out

    monkeypatch.setattr(ReductionSystem, "with_values", shared)
    g, system = graph("DBL"), system_for("DBL")
    planted = [s for s in t1_systems("DBL", g, system)
               if s[0][1].startswith("D")]
    assert planted
    for t1_label, t1_system in planted:
        with pytest.raises(AssertionError):
            assert_t1_table_is_exact(t1_system, t1_label)
        alg = FiniteDimAlgebra(t1_system)
        with pytest.raises(AssertionError):
            assert_settled_words_are_zero(
                t1_system, killed(t1_system, table_words(alg)), t1_label)


# -- (2) a monomial overlap ---------------------------------------------------

def test_monomial_overlaps_resolve_to_zero_without_a_reduction():
    monomial = total = lost = 0
    for label, g, system in base_cases():
        for amb in enumerate_ambiguities(system):
            total += 1
            if not amb.is_monomial(system):
                continue
            monomial += 1
            check = fresh(system)
            assert resolve_overlap(check, amb) == ({}, {}), label
            # the two steps read off the rules are the memo's steps
            uvw, vw, times_u, _ = overlap_sides(check, amb)
            assert check.normal_form(vw) == {}
            memo = list(check.steps(uvw))
            memo += [(-c, *times_u((o, lw)), ri, rw)
                     for c, o, lw, ri, rw in check.steps(vw)]
            assert overlap_steps(system, amb) == memo, label
            assert [type(step[0]) for step in memo] == [int, int]
        for _, t1_system in t1_systems(label, g, system):
            lost += sum(amb.is_monomial(system)
                        and not amb.is_monomial(t1_system)
                        for amb in enumerate_ambiguities(t1_system))
    assert 0 < monomial < total
    # a value on a zero rule makes its overlaps non-monomial at t = 1
    assert lost > 0


def needed_keys(system):
    """The paths ``hh2`` must reduce, found in a fresh system: both sides
    of every overlap that is not monomial with the keys u*k of its right
    side, and every cocycle-row and coboundary word no zero pair settles."""
    ref = fresh(system)
    out = set()
    for amb in enumerate_ambiguities(ref):
        if not amb.is_monomial(ref):
            uvw, vw, times_u, _ = overlap_sides(ref, amb)
            out.update([uvw, vw, *map(times_u, ref.normal_form(vw))])
    alg = FiniteDimAlgebra(ref)
    for left, middle, right, key in [*row_words(ref, cochain_space(alg)),
                                     *coboundary_words(alg)]:
        if not junction_killed(ref, left, middle, right):
            out.add(key)
    return out


def test_hh2_reduces_only_what_no_monomial_rule_settles(monkeypatch):
    # a key may be settled in one place and needed in another (on EX1, b*d
    # is v*w of the monomial overlap g|b|d and of b|b|d, whose b*b is not
    # zero), so hh2 must enter exactly the keys the unsettled work needs
    entered = []
    plain = ReductionSystem._reduce_path

    def spy(self, key):
        entered.append(key)
        return plain(self, key)

    cases = [case for case in base_cases()
             if case[0] in ("EX1", "DBL") or case[0] not in NAMED]
    spared = 0
    for label, g, system in cases:
        needed = needed_keys(system)
        settled = set(settled_words(fresh(system)))
        for amb in enumerate_ambiguities(system):
            if amb.is_monomial(system):
                settled.update(overlap_sides(system, amb)[:2])
        entered.clear()
        with monkeypatch.context() as m:
            m.setattr(ReductionSystem, "_reduce_path", spy)
            hh2(FiniteDimAlgebra(fresh(system)), graph=g)
        assert len(entered) == len(set(entered)), label
        assert set(entered) == needed, label
        spared += len(settled - needed)
    assert spared > 500


# -- the letter budget ----------------------------------------------------------

def long_path_system(zero_tips):
    """A quiver without cycles in which c4*c3*c2*c1 runs parallel to the
    arrow f and to the word a*b, and c1*d is a zero pair; the rules rewrite
    the given tips to 0."""
    q = Quiver(vertices=["0", "1", "2", "3", "4", "5", "6"], arrows={
        "a": ("1", "2"), "b": ("0", "1"), "c1": ("0", "3"),
        "c2": ("3", "4"), "c3": ("4", "6"), "c4": ("6", "2"),
        "d": ("5", "0"), "f": ("0", "2")})
    return ReductionSystem(q, [Rule(q.word_key(tip), {})
                               for tip in zero_tips])


def test_long_settled_words_keep_the_letter_budget(monkeypatch):
    # a settled word longer than the budget goes to the memo, which raises
    # reduce's error, as when every word was reduced.  The one overlap
    # a|b|d has three letters and is monomial, but its cocycle-row word
    # c4*c3*c2*c1*d, settled at c1|d, has five; the second system has no
    # overlap, and the coboundary word c4*c3*c2*c1*d of the 1-cochain
    # f -> c4*c3*c2*c1 is settled at c1|d
    cases = {"rows": [("a", "b"), ("b", "d"), ("c1", "d")],
             "coboundary": [("c1", "d"), ("f", "d")]}
    dims = {label: hh2(FiniteDimAlgebra(long_path_system(tips))).to_doc()
            for label, tips in cases.items()}
    with monkeypatch.context() as m:
        m.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 4)
        for label, tips in cases.items():
            sys = long_path_system(tips)
            assert all(amb.is_monomial(sys)
                       for amb in enumerate_ambiguities(sys)), label
            with pytest.raises(NonTerminating) as raised:
                hh2(FiniteDimAlgebra(sys))
            assert str(raised.value) == "no normal form within 4 letters"
    with monkeypatch.context() as m:
        m.setattr("bga.rewrite.MAX_REDUCE_LETTERS", 5)
        for label, tips in cases.items():
            assert hh2(FiniteDimAlgebra(long_path_system(tips))).to_doc() \
                == dims[label], label
