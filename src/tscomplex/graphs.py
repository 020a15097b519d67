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

from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, canonical_json, json_int, parse_json

#: The most vertices a :class:`Graph` may have.  The constructor refuses a
#: larger ``m`` before it reads an edge, so library calls, graph JSON and
#: ``gen`` share the cap.  A total graph has one vertex per label, so it
#: bounds the label count N = m + |E| of a TSC too.
MAX_VERTICES = 100_000


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 1..m with canonically sorted edges.

    The constructor refuses an ``m`` or an edge end that is not an integer
    (a bool or a float included), an edge that is not a pair of vertices, a
    loop, a duplicate edge or an endpoint outside 1..m.
    """

    m: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, m: int, edges=()):
        json_int(m, "m")
        if m < 1:
            raise ValueError(f"vertex count must be positive, got {m}")
        if m > MAX_VERTICES:
            raise ValueError(f"a graph may have at most {MAX_VERTICES} vertices, got {m}")
        seen = set()
        canon = []
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
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = {v for e in self.edges for v in e}
        return tuple(v for v in range(1, self.m + 1) if v not in touched)


@dataclass(frozen=True)
class TotalLabeling:
    """Bijection from the vertices and (canonically ordered) edges of a graph
    onto {1, ..., N}.

    ``vertex_labels[i-1]`` is the label of vertex i; ``edge_labels[k-1]`` is
    the label of the k-th edge in the graph's canonical edge order.
    """

    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(self.vertex_labels) + tuple(self.edge_labels)
        n = len(labels)
        if set(labels) != set(range(1, n + 1)):
            raise ValueError(f"labels must be a bijection onto 1..{n}, got {labels}")
        object.__setattr__(self, "vertex_labels", tuple(self.vertex_labels))
        object.__setattr__(self, "edge_labels", tuple(self.edge_labels))

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
    if n < 1:
        raise ValueError(f"friendship graph needs n >= 1 triangles, got {n}")
    center = 2 * n + 1
    # The edges are a generator, so Graph refuses an oversized n before any are made.
    g = Graph(center, (e for a in range(1, center, 2)
                       for e in ((a, a + 1), (a, center), (a + 1, center))))
    label_of_edge = {}
    vertex_labels = [0] * center
    for k in range(1, n + 1):
        a, b = 2 * k - 1, 2 * k
        vertex_labels[a - 1] = 3 * k - 2
        vertex_labels[b - 1] = 3 * k
        label_of_edge[(a, b)] = 3 * k - 1
        label_of_edge[(a, center)] = 3 * n + 2 * k - 1
        label_of_edge[(b, center)] = 3 * n + 2 * k
    vertex_labels[center - 1] = 5 * n + 1
    labeling = TotalLabeling(
        vertex_labels=tuple(vertex_labels),
        edge_labels=tuple(label_of_edge[e] for e in g.edges),
    )
    return g, labeling


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
    vertices = [(v,) for v in range(1, g.m + 1)]
    return SimplicialComplex([*g.edges, *vertices]).is_facet_connected()


# --- JSON interchange ------------------------------------------------------
#
# {"m": int, "edges": [[u, v], ...],
#  "labels": {"v<i>": label, "e<k>": label}}   (labels optional)


def graph_dumps(g: Graph, labeling: TotalLabeling | None = None) -> str:
    """Canonical (byte-stable) JSON text for a labeled graph."""
    if labeling is None:
        labeling = default_labeling(g)
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
            vertex_labels=tuple(json_int(labels[f"v{i}"], "a label") for i in range(1, g.m + 1)),
            edge_labels=tuple(json_int(labels[f"e{k}"], "a label")
                              for k in range(1, g.edge_count + 1)),
        )
    except KeyError as exc:
        raise ValueError(f"graph JSON labels incomplete: missing {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed graph JSON labels: {exc}") from exc
    return g, labeling
