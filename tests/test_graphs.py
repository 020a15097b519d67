import math
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from tscomplex import (
    Graph,
    TotalLabeling,
    build_tsc,
    default_labeling,
    gen_c42,
    gen_friendship,
    graph_dumps,
    graph_loads,
    is_connected,
    total_graph,
)
from tscomplex.graphs import MAX_VERTICES
from conftest import all_labeled_graphs
from oracles import brute_force_total_graph


def degrees(g):
    """The degree of each vertex, counted off the edge list (0 if isolated)."""
    return Counter(v for e in g.edges for v in e)


def test_from_edge_list_canonical_order():
    g = Graph(3, [(2, 3), (2, 1), (3, 1)])
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.m == 3


def test_from_edge_list_k2():
    g = Graph(2, [(1, 2)])
    assert g.edges == ((1, 2),)


def test_from_edge_list_c42_shape():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 5)])
    assert g.edge_count == 6
    deg = degrees(g)
    assert deg[1] == deg[3] == 3
    assert deg[2] == deg[4] == deg[5] == 2


@pytest.mark.parametrize("pairs", [[(1, 1)], [(1, 2), (2, 1)], [(0, 2)], [(1, 6)]])
def test_from_edge_list_rejects_bad_input(pairs):
    with pytest.raises(ValueError):
        Graph(5, pairs)


@pytest.mark.parametrize("m, pairs", [
    (3, [(1.5, 2)]),
    (3, [(1, 2.0)]),
    (3, [("1", "2")]),
    (3, [(True, 2)]),
    (3.0, [(1, 2)]),
    (True, []),
    ("3", []),
])
def test_non_integer_vertices_are_refused(m, pairs):
    with pytest.raises(ValueError, match="must be an integer"):
        Graph(m, pairs)


def test_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        Graph(0, [])


def test_vertex_cap_is_checked_before_any_edge():
    assert Graph(MAX_VERTICES, [(1, 2)]).m == MAX_VERTICES
    with pytest.raises(ValueError, match="at most"):
        Graph(MAX_VERTICES + 1, [])
    with pytest.raises(ValueError, match="at most"):
        gen_friendship(10 ** 9)
    # K_450's total graph (101,475 labels, ~5 * 10^9 edge pairs) is refused by
    # the facet cap before it is built; the path on 60,000 vertices passes the
    # facet cap, and its total graph's 119,999 labels meet the label cap
    k450 = Graph(450, combinations(range(1, 451), 2))
    path = Graph(60_000, [(v, v + 1) for v in range(1, 60_000)])
    for g, refusal in ((k450, "at most 1000000 facets"), (path, "at most 100000 vertices")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=refusal):
            build_tsc(g, default_labeling(g))
        assert time.perf_counter() - start < 1.0


def test_default_labeling_small():
    k2 = Graph(2, [(1, 2)])
    lab = default_labeling(k2)
    assert lab.vertex_labels == (1, 2) and lab.edge_labels == (3,)

    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert default_labeling(k3).edge_labels == (4, 5, 6)

    p3 = Graph(3, [(1, 2), (2, 3)])
    assert default_labeling(p3).edge_labels == (4, 5)


def test_labeling_requires_bijection():
    with pytest.raises(ValueError):
        TotalLabeling(vertex_labels=(1, 1), edge_labels=(3,))
    with pytest.raises(ValueError):
        TotalLabeling(vertex_labels=(1, 2), edge_labels=(4,))


@pytest.mark.parametrize("label", [1.0, True, "3"])
def test_labeling_refuses_non_integer_labels(label):
    # 1.0 and True would pass the bijection test, since 1.0 == True == 1
    with pytest.raises(ValueError, match=f"a label must be an integer, got {label!r}"):
        TotalLabeling(vertex_labels=(label, 2), edge_labels=(3,))


def test_gen_friendship_n1_labels():
    g, lab = gen_friendship(1)
    assert (g.m, g.edge_count) == (3, 3)
    # a1, b1, center / outer edge, the two center edges
    assert lab.vertex_labels == (1, 3, 6)
    by_edge = {e: lab.edge_label(k) for k, e in enumerate(g.edges, start=1)}
    assert by_edge == {(1, 2): 2, (1, 3): 4, (2, 3): 5}


def test_gen_friendship_n2_counts():
    g, lab = gen_friendship(2)
    assert (g.m, g.edge_count) == (5, 6)
    assert lab.label_count == 11
    assert lab.vertex_labels == (1, 3, 4, 6, 11)
    assert lab.edge_labels == (2, 7, 8, 5, 9, 10)


def test_gen_friendship_degrees():
    for n in (1, 2, 3):
        g, _ = gen_friendship(n)
        center = 2 * n + 1
        deg = degrees(g)
        assert deg[center] == 2 * n
        assert all(deg[v] == 2 for v in range(1, center))


def test_gen_friendship_rejects_n0():
    with pytest.raises(ValueError):
        gen_friendship(0)


def test_gen_c42():
    g, lab = gen_c42()
    assert (g.m, g.edge_count, lab.label_count) == (5, 6, 11)
    by_edge = {e: lab.edge_label(k) for k, e in enumerate(g.edges, start=1)}
    assert by_edge[(1, 2)] == 2     # the a-b edge
    assert by_edge[(3, 5)] == 11    # the c-e edge
    assert lab.vertex_labels == (1, 3, 5, 7, 10)


def test_total_graph_k2_is_triangle():
    g = Graph(2, [(1, 2)])
    t = total_graph(g, default_labeling(g))
    assert t.m == 3 and t.edges == ((1, 2), (1, 3), (2, 3))


def test_total_graph_k3_is_octahedron():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    t = total_graph(g, default_labeling(g))
    assert t.m == 6 and t.edge_count == 12
    assert all(degrees(t)[v] == 4 for v in range(1, 7))
    # complete graph minus the vertex/opposite-edge matching
    missing = {(u, v) for u in range(1, 7) for v in range(u + 1, 7)} - set(t.edges)
    assert missing == {(1, 6), (2, 5), (3, 4)}


def test_total_graph_p3():
    g = Graph(3, [(1, 2), (2, 3)])
    t = total_graph(g, default_labeling(g))
    assert set(t.edges) == {(1, 2), (2, 3), (4, 5), (1, 4), (2, 4), (2, 5), (3, 5)}


def test_total_graph_rejects_mismatched_labeling():
    g = Graph(3, [(1, 2), (2, 3)])
    wrong = default_labeling(Graph(2, [(1, 2)]))
    with pytest.raises(ValueError):
        total_graph(g, wrong)


def _expected_total_edge_count(g):
    # vertex-vertex + vertex-edge incidences + edge-edge adjacencies
    return 3 * g.edge_count + sum(math.comb(d, 2) for d in degrees(g).values())


def test_total_graph_edge_count_formula_on_corpus():
    graphs = [
        Graph(2, [(1, 2)]),
        Graph(3, [(1, 2), (1, 3), (2, 3)]),
        Graph(3, [(1, 2), (2, 3)]),
        gen_c42()[0],
    ] + [gen_friendship(n)[0] for n in (1, 2, 3)]
    for g in graphs:
        t = total_graph(g, default_labeling(g))
        assert t.edge_count == _expected_total_edge_count(g)


def test_total_graph_matches_definition():
    rng = random.Random(12)
    cases = [gen_c42()] + [gen_friendship(n) for n in (1, 2, 3, 4)]
    for g in all_labeled_graphs(5):
        labels = list(range(1, g.m + g.edge_count + 1))
        rng.shuffle(labels)
        cases.append((g, TotalLabeling(tuple(labels[:g.m]), tuple(labels[g.m:]))))
    for g, lab in cases:
        assert total_graph(g, lab) == brute_force_total_graph(g, lab), (g.m, g.edges, lab)


def test_total_graph_of_path_4000_is_fast():
    # a scan of every pair of the 3,999 edges takes seconds here
    m = 4000
    g = Graph(m, [(i, i + 1) for i in range(1, m)])
    start = time.perf_counter()
    t = total_graph(g, default_labeling(g))
    assert time.perf_counter() - start < 1.0
    assert t.m == 2 * m - 1 and t.edge_count == 3 * (m - 1) + (m - 2)


def test_generator_labelings_are_bijections():
    for build in (lambda: gen_friendship(1), lambda: gen_friendship(3), gen_c42):
        g, lab = build()
        assert lab.matches(g)
        labels = set(lab.vertex_labels) | set(lab.edge_labels)
        assert labels == set(range(1, g.m + g.edge_count + 1))


def test_is_connected():
    assert is_connected(Graph(3, [(1, 2), (2, 3)]))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert is_connected(Graph(1, []))
    assert not is_connected(Graph(2, []))


def test_is_connected_matches_component_walk_on_small_graphs():
    for g in all_labeled_graphs(4):
        # independent reachability check
        seen = {1}
        changed = True
        while changed:
            changed = False
            for u, v in g.edges:
                if (u in seen) != (v in seen):
                    seen |= {u, v}
                    changed = True
        assert is_connected(g) == (len(seen) == g.m)


def test_graph_json_roundtrip_is_byte_stable():
    for build in (gen_c42, lambda: gen_friendship(2)):
        g, lab = build()
        text = graph_dumps(g, lab)
        g2, lab2 = graph_loads(text)
        assert (g2, lab2) == (g, lab)
        assert graph_dumps(g2, lab2) == text


def test_graph_json_writes_no_label_it_refuses_to_read():
    # the labeling that would be written as "v1": 1.0 cannot be made
    with pytest.raises(ValueError, match="a label must be an integer, got 1.0"):
        graph_dumps(Graph(2, [(1, 2)]), TotalLabeling((1.0, 2), (3,)))
    with pytest.raises(ValueError, match="a label must be an integer, got 1.0"):
        graph_loads('{"m": 2, "edges": [[1, 2]], "labels": {"v1": 1.0, "v2": 2, "e1": 3}}')


def test_graph_dumps_refuses_another_graphs_labeling():
    g, _ = gen_c42()
    with pytest.raises(ValueError, match="labeling does not match graph"):
        graph_dumps(g, gen_friendship(1)[1])


def test_graph_json_default_labeling_when_absent():
    g, lab = graph_loads('{"m": 2, "edges": [[1, 2]]}')
    assert lab == default_labeling(g)


def test_graph_json_rejects_garbage():
    with pytest.raises(ValueError):
        graph_loads("not json")
    with pytest.raises(ValueError):
        graph_loads('{"edges": [[1, 2]]}')
    with pytest.raises(ValueError, match="labels"):
        graph_loads('{"m": 1, "edges": [], "labels": [1]}')


@pytest.mark.parametrize("text", [
    '{"m": 3.9, "edges": [[1, 2.5]]}',
    '{"m": 3, "edges": [[1, 2.5]]}',
    '{"m": 2, "edges": [[true, 2]]}',
    '{"m": 2, "edges": [[1, 2]], "labels": {"v1": 1, "v2": 2.0, "e1": 3}}',
])
def test_graph_json_accepts_only_integers(text):
    with pytest.raises(ValueError, match="must be an integer"):
        graph_loads(text)
