"""Total indices and the total simplicial complex of a labeled graph.

A 3-subset of the labels is a total index exactly when it induces a
connected subgraph of the total graph, i.e. at least two of its three pairs
are adjacent-or-incident in the underlying graph.  Isolated vertices of the
graph contribute singleton indices.  The total simplicial complex (TSC) is
the complex generated by all total indices.
"""

from __future__ import annotations

from collections import Counter
from importlib import resources
from itertools import combinations
from math import comb

from .complexes import SimplicialComplex, complex_loads
from .graphs import Graph, TotalLabeling, total_graph

#: The most facets :func:`build_tsc` may produce, checked against a bound
#: read off the graph's degrees before the total graph is built: label a
#: has deg_T(a) neighbours in the total graph, 2·deg v for a vertex v and
#: deg u + deg v for an edge uv, and every triple contains a label adjacent
#: to its other two, so Σ_a C(deg_T(a), 2) plus the isolated vertices
#: bounds the facet count from above.  K_32 (bound 998,448, 660,176 facets)
#: passes ``tsc`` and ``check cm`` in under 1 GB of address space; K_33 and
#: larger complete graphs are refused.
MAX_FACETS = 1_000_000


def build_tsc(g: Graph, labeling: TotalLabeling) -> SimplicialComplex:
    """The total simplicial complex of ``g`` under ``labeling``, generated by
    the total indices, which are already its facets.

    Two pairs of a triple share one label, which is then adjacent to the
    other two; so the triples are exactly {a} ∪ {b, c} for two total-graph
    neighbours b, c of a label a, and only those are enumerated.

    They form an antichain: the triples are distinct, and an isolated
    vertex is adjacent to nothing in the total graph, so no triple (which
    needs two adjacent pairs) contains its label.

    A graph whose degree bound (see :data:`MAX_FACETS`) exceeds the cap is
    refused with a ``ValueError`` before anything is built.
    """
    deg = Counter(v for e in g.edges for v in e)
    # an isolated vertex (degree 0) is one singleton facet
    bound = (sum(comb(2 * deg[v], 2) if deg[v] else 1 for v in range(1, g.m + 1))
             + sum(comb(deg[u] + deg[v], 2) for u, v in g.edges))
    if bound > MAX_FACETS:
        raise ValueError(f"a TSC may have at most {MAX_FACETS} facets, and the degrees of "
                         f"this graph allow up to {bound}")
    t = total_graph(g, labeling)
    neighbours: dict[int, list[int]] = {}
    for a, b in t.edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    # t.edges is sorted, so each neighbour list is ascending and b < c
    indices = {(a, b, c) if a < b else (b, a, c) if a < c else (b, c, a)
               for a, near in neighbours.items() for b, c in combinations(near, 2)}
    indices.update((labeling.vertex_label(v),) for v in range(1, g.m + 1) if not deg[v])
    return SimplicialComplex._trusted(indices)


def c42_fixture() -> SimplicialComplex:
    """The 73-facet complex on labels 1..11 shipped verbatim as package data.

    This is the bundled reference complex for the two-glued-4-cycles graph
    and the authoritative input for the not-unmixed counterexample checks.
    It is not identical to ``build_tsc(*gen_c42())``: the from-definition
    construction additionally contains the facet {1, 3, 7} (see README).
    """
    return complex_loads(resources.files("tscomplex").joinpath("data/c42_facets.json").read_text())
