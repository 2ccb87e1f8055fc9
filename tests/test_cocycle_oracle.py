"""The HH^2 linear maps against the symbolic assembly they replace.

``cocycle_space`` builds its constraint rows from traced reductions in the
base system, and ``coboundary_image`` from the letter occurrences of the
rules.  The oracles here are the older whole-system computations:

* the cocycle rows of the system deformed by t * x_j * p_j, reduced with
  ``LinScalar`` coefficients (affine-linear in symbolic unknowns over
  Q[t]/(t^2)), one row per overlap and differing normal-form key,
* one substitution loop over every rule per (arrow, parallel path)
  1-cochain, by term-dict products, each rule's sum reduced at once.

Both sides must agree row for row and vector for vector, on the fixtures
with and without bundled rules, on ``generated_family()``, on the t = 1
systems of their standard cocycles and on hypothesis-drawn bipartite
ribbon graphs.  A ``reduce`` trace must replay
its input into the returned normal form.
"""

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
from loaders import generated_family
from oracles import add, multiply

from bga.fixtures import fixture_doc, fixture_rules
from bga.hochschild import (
    _cocycle_rows,
    coboundary_image,
    cochain_space,
    one_cochain_coords,
    standard_cocycles,
    vector_from_cochain,
)
from bga.presentation import (
    quiver_from_graph,
    reduction_system,
    rules_from_doc,
)
from bga.rewrite import (
    FiniteDimAlgebra,
    ReductionSystem,
    Rule,
    enumerate_ambiguities,
    reduce,
    resolve_overlap,
)
from bga.ribbon import Bipartition, parse_ribbon_graph

F = Fraction
_F0 = F(0)
_F1 = F(1)


# -- the symbolic coefficient ring -------------------------------------------

class LinScalar:
    """c0 + c1*t + sum_j lin[j]*t*x_j over Q[t]/(t^2), x_j symbolic."""

    __slots__ = ("c0", "c1", "lin")

    def __init__(self, c0=_F0, c1=_F0, lin=None):
        self.c0 = F(c0)
        self.c1 = F(c1)
        self.lin = {j: c for j, c in (lin or {}).items() if c}

    @staticmethod
    def unknown(j):
        # the symbol enters as x_j * t: cochain tails always carry one t
        return LinScalar(_F0, _F0, {j: _F1})

    def _coerce(self, other):
        if isinstance(other, LinScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return LinScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        lin = dict(self.lin)
        for j, c in o.lin.items():
            lin[j] = lin.get(j, _F0) + c
        return LinScalar(self.c0 + o.c0, self.c1 + o.c1, lin)

    __radd__ = __add__

    def __neg__(self):
        return LinScalar(-self.c0, -self.c1,
                         {j: -c for j, c in self.lin.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # cross terms lin*lin and lin*c1 sit at t^2 and drop
        lin = {}
        if self.c0:
            for j, c in o.lin.items():
                lin[j] = lin.get(j, _F0) + self.c0 * c
        if o.c0:
            for j, c in self.lin.items():
                lin[j] = lin.get(j, _F0) + o.c0 * c
        return LinScalar(self.c0 * o.c0, self.c0 * o.c1 + self.c1 * o.c0, lin)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.c0 or self.c1 or self.lin)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1 and self.lin == o.lin

    def __hash__(self):
        return hash((self.c0, self.c1, tuple(sorted(self.lin.items()))))

    def __repr__(self):
        return f"LinScalar({self.c0}, {self.c1}, {self.lin})"


class LinearCtx:
    """Coefficients affine-linear in unknowns over Q[t]/(t^2)."""

    def from_fraction(self, c):
        return LinScalar(c)

    def unknown(self, j):
        return LinScalar.unknown(j)

    def times_t(self, c):
        if isinstance(c, (int, Fraction)):
            return LinScalar(_F0, c)
        # c1 and lin parts already carry one t; another lands them in t^2
        return LinScalar(_F0, c.c0)


def test_linscalar_unknowns_are_nilpotent():
    x0, x1 = LinScalar.unknown(0), LinScalar.unknown(1)
    assert not (x0 * x1)          # both carry a t
    assert not (x0 * LinScalar(0, 1))
    s = 2 * x0 + x1 + LinScalar(F(1, 2))
    assert s.lin == {0: F(2), 1: F(1)}
    assert s.c0 == F(1, 2)
    assert (s * 4).lin == {0: F(8), 1: F(4)}
    assert (s - s) == LinScalar()


def test_linscalar_constant_product():
    a = LinScalar(2, 3, {0: F(1)})
    b = LinScalar(5, 7)
    p = a * b
    assert p.c0 == 10 and p.c1 == 29 and p.lin == {0: F(5)}


def test_linear_ctx_times_t():
    ctx = LinearCtx()
    v = ctx.times_t(LinScalar(3, 4, {1: F(2)}))
    assert v.c0 == 0 and v.c1 == 3 and v.lin == {}


# -- the oracles ---------------------------------------------------------------

def symbolic_cocycle_rows(system, coords):
    """Constraint rows from the system deformed with symbolic coefficients:
    rhs(r) + t * sum x_j p_j over the unknowns j = (r, p_j), every overlap
    resolved both ways, one row per differing key in key order."""
    ctx = LinearCtx()
    q = system.quiver
    by_rule = {}
    for j, (ri, key) in enumerate(coords):
        by_rule.setdefault(ri, []).append((j, key))
    def_rules = []
    for ri, rule in enumerate(system.rules):
        terms = {k: ctx.from_fraction(c) for k, c in rule.rhs.items()}
        for j, key in by_rule.get(ri, []):
            u = ctx.unknown(j)
            s = terms.get(key)
            terms[key] = u if s is None else s + u
        def_rules.append(Rule(rule.tip, terms))
    dsys = ReductionSystem(q, def_rules)
    rows = []
    for amb in enumerate_ambiguities(system):
        left, right = resolve_overlap(dsys, amb)
        diff = add(left, right, -1)
        for key in sorted(diff):
            c = diff[key]
            assert not c.c0 and not c.c1, amb
            if c.lin:
                rows.append(c.lin)
    return rows


def whole_system_first_differential(system, psi):
    """Substitute psi into every letter of every monomial of every rule, by
    term-dict products, and reduce each rule's signed sum."""
    q = system.quiver
    out = {}
    for ri, rule in enumerate(system.rules):
        total = {}
        monomials = [(rule.tip, _F1)]
        monomials += [(k, -c) for k, c in rule.rhs.items()]
        for (m_origin, word), c in monomials:
            for i, letter in enumerate(word):
                repl = psi.get(letter)
                if repl is None or not repl:
                    continue
                left_w, right_w = word[:i], word[i + 1:]
                lo, lt = q.arrows[letter]
                left_el = ({q.key(q.arrows[left_w[-1]][0], left_w): 1}
                           if left_w else {(lt, ()): 1})
                right_el = ({q.key(m_origin, right_w): 1}
                            if right_w else {(lo, ()): 1})
                total = add(total, multiply(q, multiply(q, left_el, repl),
                                            right_el), c)
        nf = reduce(system, total)
        if nf:
            out[ri] = nf
    return out


def whole_system_coboundaries(system, alg, coords):
    return [vector_from_cochain(system, coords, whole_system_first_differential(
        system, {name: {key: _F1}}))
        for name, key in one_cochain_coords(alg)]


def replay(system, element, trace):
    """Apply the recorded steps to a term dict, term by term."""
    terms = dict(element)
    for coeff, origin, left, ri, right in trace:
        rule = system.rules[ri]
        for word, c in [(rule.tip[1], -_F1)] + [
                (w, d) for (_, w), d in rule.rhs.items()]:
            key = (origin, left + word + right)
            terms[key] = terms.get(key, 0) + coeff * c
    return {k: c for k, c in terms.items() if c}


# -- the systems ---------------------------------------------------------------

def fixture_systems():
    for name in ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2", "LOC"):
        g = parse_ribbon_graph(fixture_doc(name))
        if fixture_rules(name):
            yield name, rules_from_doc(quiver_from_graph(g),
                                       json.loads(fixture_rules(name)))
        else:
            yield name, reduction_system(g)
    g = parse_ribbon_graph(fixture_doc("EX1"))
    yield "EX1-swapped", reduction_system(g, Bipartition({"w"}, {"v1", "v2"}))
    for label, doc in generated_family():
        yield label, reduction_system(parse_ribbon_graph(doc))


SYSTEMS = [(label, sys_, FiniteDimAlgebra(sys_))
           for label, sys_ in fixture_systems()]


def t1_systems():
    """(label, t = 1 system) for every standard cocycle of EX1, DBL and
    the family graphs with at least two edges.  ``with_values`` rebuilt
    their zero pairs, and D1 and D2 give c-rules a value."""
    docs = [(name, fixture_doc(name)) for name in ("EX1", "DBL")]
    for label, doc in docs + list(generated_family()):
        g = parse_ribbon_graph(doc)
        if len(g.edges) < 2:
            continue
        system = reduction_system(g)
        for s in standard_cocycles(g, system):
            yield (label, s.label), system.with_values(s.cochain)


def assert_same_maps(label, system, alg):
    coords = cochain_space(alg)
    traced = _cocycle_rows(system, coords)
    assert traced == symbolic_cocycle_rows(system, coords), label
    assert coboundary_image(alg, coords) == \
        whole_system_coboundaries(system, alg, coords), label


def test_cocycle_rows_and_coboundaries_match_on_fixtures():
    assert len(SYSTEMS) == 28
    for label, system, alg in SYSTEMS:
        assert_same_maps(label, system, alg)


def test_cocycle_rows_and_coboundaries_match_at_t1():
    cases = list(t1_systems())
    assert len(cases) == 121
    assert any(member.startswith("D") for (_, member), _ in cases)
    for label, system in cases:
        assert_same_maps(label, system, FiniteDimAlgebra(system))


def test_traces_replay_to_the_normal_form():
    for label, system, _alg in SYSTEMS:
        q = system.quiver
        for amb in enumerate_ambiguities(system):
            origin = q.arrows[amb.w[-1]][0]
            w_el = {q.key(origin, amb.w): 1}
            u_el = {q.key(q.arrows[amb.u][0], (amb.u,)): 1}
            vw = {(origin, amb.v + amb.w): F(-2, 3)}
            for el in (multiply(q, system.rules[amb.rule_index].rhs, w_el),
                       vw, multiply(q, u_el, reduce(system, vw))):
                trace = []
                nf = reduce(system, el, trace=trace)
                assert replay(system, el, trace) == nf, label


@st.composite
def bipartite_graphs(draw):
    """A connected bipartite ribbon graph, random rotations and
    multiplicities 1-3: a random spanning tree between the two sides plus
    up to two extra (possibly parallel) edges."""
    n = draw(st.integers(2, 5))
    side = [0, 1] + [draw(st.integers(0, 1)) for _ in range(n - 2)]
    edges = []
    for v in range(1, n):
        others = [u for u in range(v) if side[u] != side[v]]
        if not others:
            side[v] = 1 - side[v]
            others = [u for u in range(v) if side[u] != side[v]]
        edges.append((draw(st.sampled_from(others)), v))
    ones = [v for v in range(n) if side[v] == 0]
    twos = [v for v in range(n) if side[v] == 1]
    for _ in range(draw(st.integers(0, 2))):
        edges.append((draw(st.sampled_from(ones)), draw(st.sampled_from(twos))))
    mults = [draw(st.integers(1, 3)) for _ in range(n)]
    halves, incidence, pairing = [], {}, []
    rotation = {f"v{v}": [] for v in range(n)}
    for i, (a, b) in enumerate(edges):
        ha, hb = f"e{i}a", f"e{i}b"
        halves += [ha, hb]
        incidence[ha], incidence[hb] = f"v{a}", f"v{b}"
        pairing.append([ha, hb])
        rotation[f"v{a}"].append(ha)
        rotation[f"v{b}"].append(hb)
    for v in rotation:
        rotation[v] = draw(st.permutations(rotation[v]))
    return json.dumps({
        "vertices": [{"id": f"v{v}", "multiplicity": m}
                     for v, m in enumerate(mults)],
        "half_edges": halves,
        "incidence": incidence,
        "pairing": pairing,
        "rotation": rotation,
    })


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_cocycle_rows_and_coboundaries_match_on_drawn_graphs(doc):
    g = parse_ribbon_graph(doc)
    assume(g.dimension_sum() <= 60)
    system = reduction_system(g)
    assert_same_maps("drawn", system, FiniteDimAlgebra(system))
