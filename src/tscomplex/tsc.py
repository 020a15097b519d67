"""Total indices and the total simplicial complex of a labeled graph.

A 3-subset of the labels is a total index exactly when it induces a
connected subgraph of the total graph, i.e. at least two of its three pairs
are adjacent-or-incident in the underlying graph.  Isolated vertices of the
graph contribute singleton indices.  The total simplicial complex (TSC) is
the complex generated by all total indices.

For the friendship family the facet set also has a closed form, implemented
here family by family; agreement with the definition-based construction is
exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain, combinations

from .complexes import Face, SimplicialComplex, complex_loads
from .graphs import Graph, TotalLabeling, total_graph


@dataclass(frozen=True)
class TotalIndexSet:
    """Total indices of a labeled graph: connected label triples plus one
    singleton per isolated vertex."""

    triples: frozenset[Face]
    singletons: frozenset[Face]

    def all(self) -> frozenset[Face]:
        return self.triples | self.singletons


def total_indices(g: Graph, labeling: TotalLabeling) -> TotalIndexSet:
    """Enumerate the total indices of ``g`` under ``labeling``.

    Two pairs of a triple share one label, which is then adjacent to the
    other two; so the triples are exactly {a} ∪ {b, c} for two total-graph
    neighbours b, c of a label a, and only those are enumerated.

    They form an antichain: the triples are distinct, and an isolated
    vertex is adjacent to nothing in the total graph, so no triple (which
    needs two adjacent pairs) contains its label.
    """
    t = total_graph(g, labeling)
    neighbours: dict[int, list[int]] = {}
    for a, b in t.edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    # t.edges is sorted, so each neighbour list is ascending and b < c
    triples = {(a, b, c) if a < b else (b, a, c) if a < c else (b, c, a)
               for a, near in neighbours.items() for b, c in combinations(near, 2)}
    singletons = frozenset((labeling.vertex_label(v),) for v in g.isolated_vertices())
    return TotalIndexSet(triples=frozenset(triples), singletons=singletons)


def build_tsc(g: Graph, labeling: TotalLabeling) -> SimplicialComplex:
    """The total simplicial complex generated by the total indices, which
    are already its facets (see :func:`total_indices`)."""
    return SimplicialComplex._trusted(total_indices(g, labeling).all())


def friendship_facets_closed_form(n: int) -> set[Face]:
    """Facets of the friendship-graph TSC as explicit index families.

    Thirteen families cover the facet set; paired sequences written side by
    side iterate in lockstep (m-th entry with m-th entry) while trailing
    ranges expand fully.  Empty ranges (small n) contribute nothing.
    """
    if n < 1:
        raise ValueError(f"friendship family needs n >= 1, got {n}")
    c = 5 * n + 1
    base = 3 * n
    facets: set[Face] = set()

    def add(*vertices):
        facets.add(tuple(sorted(vertices)))

    # (1) the n outer triangles: vertex, outer edge, vertex
    for i in range(1, 3 * n - 1, 3):
        add(i, i + 1, i + 2)
    # (2) outer vertex with any center edge and the center vertex
    for i in chain(range(1, 3 * n - 1, 3), range(3, 3 * n + 1, 3)):
        for j in range(base + 1, 5 * n + 1):
            add(i, j, c)
    # (3) any three center edges (they all share the center vertex)
    for i, j, k in combinations(range(base + 1, 5 * n + 1), 3):
        add(i, j, k)
    # (4) any two center edges with the center vertex
    for i, j in combinations(range(base + 1, 5 * n + 1), 2):
        add(i, j, c)
    # (5) outer edge endpoints with an incident center edge
    for i, k in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        add(i, i + 1, base + k)
        add(i, i + 1, base + k + 1)
    for i, k in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        add(i, i + 1, base + k)
        add(i, i + 1, base + k + 1)
    # (6) outer vertex, its outer edge, center vertex
    for i in chain(range(1, 3 * n - 1, 3), range(2, 3 * n, 3)):
        add(i, i + 1, c)
    # (7) two outer vertices through the center vertex
    for i in range(1, 3 * n - 4, 3):
        for j in range(i + 3, 3 * n - 1, 3):
            add(i, j, c)
            add(i, j - 1, c)
    for i in range(3, 3 * n - 2, 3):
        for j in range(i + 1, 3 * n - 1, 3):
            add(i, j, c)
            add(i, j + 2, c)
    for i in range(1, 3 * n - 1, 3):
        add(i, 3 * n, c)
    # (8) outer edge with an incident center edge and the center vertex
    for i, j in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        add(i, base + j, c)
        add(i, base + j + 1, c)
    # (9) outer edge with an incident center edge and any later center edge
    for i, j in zip(range(2, 3 * n, 3), range(1, 2 * n, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    for i, j in zip(range(2, 3 * n - 3, 3), range(2, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    # (10) outer edge with two center edges, indexed from the top
    for i, j in zip(range(1, 3 * n - 4, 3), range(0, 2 * n - 3, 2)):
        for k in range(j + 2, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    for i, j in zip(range(1, 3 * n - 4, 3), range(1, 2 * n - 2, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    # (11) the two outer vertices of one triangle with an incident center edge
    for i, j in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        add(i, i + 2, base + j)
        add(i, i + 2, base + j + 1)
    # (12) outer vertex with its center edge and any later center edge
    for i, j in zip(range(1, 3 * n - 1, 3), range(1, 2 * n, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    for i, j in zip(range(3, 3 * n - 2, 3), range(2, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n + 1):
            add(i, base + j, base + k)
    # (13) outer vertex with two center edges, indexed from the top
    for i, j in zip(range(2, 3 * n - 3, 3), range(1, 2 * n - 2, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)
    for i, j in zip(range(0, 3 * n - 2, 3), range(0, 2 * n - 1, 2)):
        for k in range(j + 1, 2 * n):
            add(3 * n - i, 5 * n - k, 5 * n - j)

    return facets


def c42_fixture() -> SimplicialComplex:
    """The 73-facet complex on labels 1..11 shipped verbatim as package data.

    This is the bundled reference complex for the two-glued-4-cycles graph
    and the authoritative input for the not-unmixed counterexample checks.
    It is not identical to ``build_tsc(*gen_c42())``: the from-definition
    construction additionally contains the facet {1, 3, 7} (see README).
    """
    return complex_loads(resources.files("tscomplex").joinpath("data/c42_facets.json").read_text())
