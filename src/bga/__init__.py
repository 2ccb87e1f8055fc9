"""Exact computations for Brauer graph algebras.

The pipeline: a ribbon graph with multiplicities (module ribbon) induces a
quiver with relations (presentation); a bipartition turns the relations into
a rewriting system whose confluence is certified by the diamond lemma
(rewrite); deformed associativity on overlaps yields the 2-cocycle
constraints, coboundaries come from the degree-1 differential, and HH^2
gets an explicit basis: the cocycles that vanish at the pivots of the
coboundaries, a complement of them (hochschild); cocycles deform the
rewriting system formally or at t = 1 (deform).  All arithmetic is exact.
"""

__version__ = "0.1.0"
