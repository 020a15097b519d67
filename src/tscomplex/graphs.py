"""Finite simple graphs, total labelings, and total-graph construction.

A graph lives on the vertex set {1, ..., m} with edges stored as sorted
pairs in lexicographic order.  A total labeling assigns the labels
{1, ..., N}, N = m + |E|, bijectively to the vertices and edges; the total
graph is the graph on those N labels in which two labels are adjacent
exactly when the underlying objects are adjacent vertices, adjacent edges,
or an incident vertex/edge pair.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import _component_count, canonical_json, json_int, parse_json

#: The most vertices a :class:`Graph` may have.  The constructor refuses a
#: larger ``m`` before it reads an edge, so library calls, graph JSON and
#: ``gen`` share the cap.  A total graph has one vertex per label, so it
#: bounds the label count N = m + |E| of a TSC too.
MAX_VERTICES = 100_000


class _GraphFields(NamedTuple):
    m: int
    edges: tuple[tuple[int, int], ...]


class Graph(_GraphFields):
    """A finite simple graph on vertices 1..m with canonically sorted edges.

    The constructor refuses an ``m`` or an edge end that is not an integer
    (a bool or a float included), an edge that is not a pair of vertices, a
    loop, a duplicate edge or an endpoint outside 1..m.
    """

    __slots__ = ()

    def __new__(cls, m: int, edges=()):
        json_int(m, "m")
        if m < 1:
            raise ValueError(f"vertex count must be positive, got {m}")
        if m > MAX_VERTICES:
            raise ValueError(f"a graph may have at most {MAX_VERTICES} vertices, got {m}")
        # A dict, not a set: it keeps the order given, which total_graph and
        # graph JSON make nearly sorted, and sorted() is faster on that order
        # (total graph of K_32, 2-core x86-64: 9 ms, against 15 ms from a set).
        seen = {}
        for pair in edges:
            try:
                u, v = pair
            except ValueError:
                raise ValueError(f"edge {pair} is not a pair of vertices") from None
            json_int(u, "an edge end")
            json_int(v, "an edge end")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (1 <= u <= m and 1 <= v <= m):
                raise ValueError(f"edge {pair} out of range 1..{m}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen[e] = None
        return super().__new__(cls, m, tuple(sorted(seen)))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # through the checks above, and so is _replace

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class _TotalLabelingFields(NamedTuple):
    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]


class TotalLabeling(_TotalLabelingFields):
    """Bijection from the vertices and (canonically ordered) edges of a graph
    onto {1, ..., N}.

    ``vertex_labels[i-1]`` is the label of vertex i; ``edge_labels[k-1]`` is
    the label of the k-th edge in the graph's canonical edge order.  A label
    that is not an integer (a bool or a float included) is refused.
    """

    __slots__ = ()

    def __new__(cls, vertex_labels, edge_labels):
        vertex_labels, edge_labels = tuple(vertex_labels), tuple(edge_labels)
        labels = vertex_labels + edge_labels
        for label in labels:
            json_int(label, "a label")
        n = len(labels)
        if set(labels) != set(range(1, n + 1)):
            raise ValueError(f"labels must be a bijection onto 1..{n}, got {labels}")
        return super().__new__(cls, vertex_labels, edge_labels)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # through the checks above, and so is _replace

    @property
    def label_count(self) -> int:
        return len(self.vertex_labels) + len(self.edge_labels)

    def vertex_label(self, i: int) -> int:
        return self.vertex_labels[i - 1]

    def edge_label(self, k: int) -> int:
        """Label of the k-th canonical edge (1-based)."""
        return self.edge_labels[k - 1]

    def matches(self, g: Graph) -> bool:
        return len(self.vertex_labels) == g.m and len(self.edge_labels) == g.edge_count


def default_labeling(g: Graph) -> TotalLabeling:
    """Vertex i keeps label i; the k-th canonical edge gets label m + k."""
    return TotalLabeling(
        vertex_labels=tuple(range(1, g.m + 1)),
        edge_labels=tuple(range(g.m + 1, g.m + g.edge_count + 1)),
    )


def gen_friendship(n: int) -> tuple[Graph, TotalLabeling]:
    """Friendship graph with n triangles glued at one center vertex.

    The graph has 2n+1 vertices and 3n edges.  Labels run 1..5n+1: for the
    k-th triangle the outer vertices get 3k-2 and 3k, the outer edge 3k-1,
    the two center edges 3n+2k-1 and 3n+2k; the center vertex gets 5n+1.
    """
    if json_int(n, "n") < 1:
        raise ValueError(f"friendship graph needs n >= 1 triangles, got {n}")
    center = 2 * n + 1
    # The edges are a generator, so Graph refuses an oversized n before any are made.
    g = Graph(center, (e for a in range(1, center, 2)
                       for e in ((a, a + 1), (a, center), (a + 1, center))))
    ks = range(1, n + 1)
    # g.edges, in canonical order, lists triangle k's edges (2k-1, 2k),
    # (2k-1, center), (2k, center) in turn, since 2k-1 < 2k < center.
    return g, TotalLabeling(
        vertex_labels=(*(x for k in ks for x in (3 * k - 2, 3 * k)), 5 * n + 1),
        edge_labels=tuple(x for k in ks for x in (3 * k - 1, 3 * n + 2 * k - 1, 3 * n + 2 * k)),
    )


def gen_c42() -> tuple[Graph, TotalLabeling]:
    """The graph made of two 4-cycles sharing a common path of length two.

    Vertices a,b,c,d,e are numbered 1..5; the cycles are a-b-c-d-a and
    a-b-c-e-a.  Labels alternate vertex/edge along the first cycle
    (a=1, ab=2, b=3, bc=4, c=5, cd=6, d=7, da=8) and continue ea=9, e=10,
    ce=11.
    """
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 5)])
    label_of_edge = {
        (1, 2): 2,   # ab
        (2, 3): 4,   # bc
        (3, 4): 6,   # cd
        (1, 4): 8,   # da
        (1, 5): 9,   # ea
        (3, 5): 11,  # ce
    }
    labeling = TotalLabeling(
        vertex_labels=(1, 3, 5, 7, 10),
        edge_labels=tuple(label_of_edge[e] for e in g.edges),
    )
    return g, labeling


def total_graph(g: Graph, labeling: TotalLabeling) -> Graph:
    """Total graph on the labels 1..N.

    Two labels are adjacent iff the labeled objects are adjacent vertices of
    g, edges of g sharing an endpoint, or an incident vertex/edge pair.
    """
    if not labeling.matches(g):
        raise ValueError(
            f"labeling has {len(labeling.vertex_labels)} vertex and "
            f"{len(labeling.edge_labels)} edge labels; graph has {g.m} and {g.edge_count}"
        )

    def adjacent_pairs():
        incident: list[list[int]] = [[] for _ in range(g.m + 1)]
        for k, (u, v) in enumerate(g.edges, start=1):
            lu, lv, le = labeling.vertex_label(u), labeling.vertex_label(v), labeling.edge_label(k)
            yield from ((lu, lv), (lu, le), (lv, le))   # adjacent vertices, incidences
            incident[u].append(le)
            incident[v].append(le)
        for labels in incident:                          # edges sharing an endpoint
            yield from combinations(labels, 2)

    # Vertex and edge labels are disjoint, and two edges of a simple graph
    # share at most one endpoint, so the pairs are distinct; Graph checks the
    # label count against the cap before it draws the first one.
    return Graph(labeling.label_count, adjacent_pairs())


def is_connected(g: Graph) -> bool:
    """True iff every two vertices are joined by a path of edges."""
    return _component_count(range(1, g.m + 1), g.edges) <= 1


# --- JSON interchange ------------------------------------------------------
#
# {"m": int, "edges": [[u, v], ...],
#  "labels": {"v<i>": label, "e<k>": label}}   (labels optional)


def graph_dumps(g: Graph, labeling: TotalLabeling) -> str:
    """Canonical (byte-stable) JSON text for a labeled graph."""
    if not labeling.matches(g):
        raise ValueError("labeling does not match graph")
    labels = {f"v{i}": labeling.vertex_label(i) for i in range(1, g.m + 1)}
    labels.update({f"e{k}": labeling.edge_label(k) for k in range(1, g.edge_count + 1)})
    return canonical_json({"m": g.m, "edges": [list(e) for e in g.edges], "labels": labels})


def graph_loads(text: str) -> tuple[Graph, TotalLabeling]:
    """Decode graph JSON text; edges are passed to :class:`Graph` as tuples,
    so a refusal names an edge as ``(u, v)``."""
    data = parse_json(text)
    try:
        g = Graph(data["m"], [tuple(e) for e in data["edges"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    labels = data.get("labels")
    if labels is None:
        return g, default_labeling(g)
    try:
        labeling = TotalLabeling(
            vertex_labels=tuple(labels[f"v{i}"] for i in range(1, g.m + 1)),
            edge_labels=tuple(labels[f"e{k}"] for k in range(1, g.edge_count + 1)),
        )
    except KeyError as exc:
        raise ValueError(f"graph JSON labels incomplete: missing {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed graph JSON labels: {exc}") from exc
    return g, labeling
