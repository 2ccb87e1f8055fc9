"""Fixture loaders shared by the tests: the named ribbon graphs, their
reduction systems (the bundled rules when a fixture has them) and their
algebras."""

import json

from bga.fixtures import fixture_doc, fixture_rules
from bga.presentation import quiver_from_graph, reduction_system, rules_from_doc
from bga.rewrite import FiniteDimAlgebra
from bga.ribbon import parse_ribbon_graph


def graph(name):
    return parse_ribbon_graph(fixture_doc(name))


def system_for(name, bp=None):
    g = graph(name)
    if fixture_rules(name):
        return rules_from_doc(quiver_from_graph(g),
                              json.loads(fixture_rules(name)))
    return reduction_system(g, bp)


def algebra(name, bp=None):
    return FiniteDimAlgebra(system_for(name, bp))
