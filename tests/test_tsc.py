import random
import time
from itertools import combinations

import pytest

import tscomplex.tsc
from tscomplex import (
    Graph,
    SimplicialComplex,
    TotalLabeling,
    build_tsc,
    default_labeling,
    gen_c42,
    gen_friendship,
    is_connected,
    total_graph,
)
from conftest import all_labeled_graphs, tsc_of
from oracles import brute_force_total_indices, friendship_facets_closed_form


def test_total_indices_k2():
    g = Graph(2, [(1, 2)])
    assert build_tsc(g, default_labeling(g)).facets == ((1, 2, 3),)


def test_total_indices_isolated_vertex():
    g = Graph(1, [])
    assert build_tsc(g, default_labeling(g)).facets == ((1,),)


def test_total_indices_p3():
    g = Graph(3, [(1, 2), (2, 3)])
    facets = build_tsc(g, default_labeling(g)).facets
    assert facets == (
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    )
    # the two disconnected triples are exactly the ones left out
    assert (1, 3, 5) not in facets and (1, 3, 4) not in facets


def test_build_tsc_f1_is_full_2_skeleton(tsc_friendship):
    assert set(tsc_friendship[1].facets) == set(combinations(range(1, 7), 3))


def test_build_tsc_p3(corpus):
    assert corpus["tsc_p3"].facets == (
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    )


def test_build_tsc_mixed_dimensions_with_isolated_vertex():
    g = Graph(3, [(1, 2)])  # K2 plus an isolated vertex
    cx = build_tsc(g, default_labeling(g))
    assert cx.facets == ((1, 2, 4), (3,))
    assert not cx.is_pure() and not cx.is_facet_connected()


def test_closed_form_n1_families():
    facets = friendship_facets_closed_form(1)
    assert facets == set(combinations(range(1, 7), 3))
    assert (1, 2, 3) in facets and (4, 5, 6) in facets and (3, 4, 5) in facets


def test_closed_form_counts():
    assert len(friendship_facets_closed_form(2)) == 76
    assert len(friendship_facets_closed_form(3)) == 176


def test_closed_form_matches_definition(tsc_friendship):
    for n in (1, 2, 3):
        assert set(tsc_friendship[n].facets) == friendship_facets_closed_form(n)


def test_build_tsc_scales_to_friendship_20():
    start = time.perf_counter()
    for n in range(1, 21):
        facets = build_tsc(*gen_friendship(n)).facets
        assert facets == tuple(sorted(friendship_facets_closed_form(n))), n
    assert time.perf_counter() - start < 5.0


def test_build_tsc_equals_validated_construction():
    # build_tsc trusts the total indices to be an antichain; the validating
    # constructor must agree with it
    rng = random.Random(5)
    for g in all_labeled_graphs(5):
        labels = list(range(1, g.m + g.edge_count + 1))
        rng.shuffle(labels)
        shuffled = TotalLabeling(tuple(labels[:g.m]), tuple(labels[g.m:]))
        for lab in (default_labeling(g), shuffled):
            facets = build_tsc(g, lab).facets
            assert SimplicialComplex.from_facets(facets).facets == facets, (g.m, g.edges, lab)


def test_total_indices_match_triple_scan():
    rng = random.Random(11)
    cases = [gen_c42()]
    for g in all_labeled_graphs(5):
        labels = list(range(1, g.m + g.edge_count + 1))
        rng.shuffle(labels)
        cases += [(g, default_labeling(g)),
                  (g, TotalLabeling(tuple(labels[:g.m]), tuple(labels[g.m:])))]
    for g, lab in cases:
        assert set(build_tsc(g, lab).facets) == brute_force_total_indices(g, lab), (g.m, g.edges, lab)


def test_build_tsc_scales_to_path_400():
    # the path on m vertices has 8m - 16 total indices, all triples (m >= 3);
    # a scan of all C(2m - 1, 3) label triples takes tens of seconds here
    m = 400
    g = Graph(m, [(i, i + 1) for i in range(1, m)])
    start = time.perf_counter()
    cx = build_tsc(g, default_labeling(g))
    assert time.perf_counter() - start < 1.0
    assert len(cx.facets) == 8 * m - 16


def test_facet_cap_bound_is_never_below_the_facet_count(monkeypatch):
    # build_tsc checks a degree bound, not the count, so a cap one below the
    # count must refuse every graph
    for g in all_labeled_graphs(5):
        lab = default_labeling(g)
        count = len(build_tsc(g, lab).facets)
        monkeypatch.setattr(tscomplex.tsc, "MAX_FACETS", count - 1)
        with pytest.raises(ValueError, match="at most .* facets"):
            build_tsc(g, lab)
        monkeypatch.undo()


def test_closed_form_rejects_n0():
    with pytest.raises(ValueError):
        friendship_facets_closed_form(0)


def test_c42_fixture_transcription(c42_fix):
    assert len(c42_fix.facets) == 73
    assert (1, 2, 3) in c42_fix.facets
    assert (5, 7, 11) in c42_fix.facets
    assert all(len(f) == 3 for f in c42_fix.facets)


def test_c42_fixture_vs_built_symmetric_difference(c42_built, c42_fix):
    # The from-definition complex has exactly one extra facet, the
    # vertex-path triple {a, b, d}; nothing in the fixture is missing
    # from the construction.
    assert set(c42_built.facets) - set(c42_fix.facets) == {(1, 3, 7)}
    assert set(c42_fix.facets) - set(c42_built.facets) == set()


def test_tsc_purity_for_connected_graphs():
    for g in all_labeled_graphs(4):
        if is_connected(g) and g.m + g.edge_count >= 4:
            cx = tsc_of(g)
            assert cx.is_pure() and cx.dimension() == 2, (g.m, g.edges)


def test_tsc_connected_iff_graph_connected():
    for g in all_labeled_graphs(4):
        assert tsc_of(g).is_facet_connected() == is_connected(g), (g.m, g.edges)


def test_facets_are_connected_triples_and_triangles_are_facets():
    cases = [(g, default_labeling(g)) for g in all_labeled_graphs(3)]
    cases += [gen_c42(), gen_friendship(2)]
    for g, lab in cases:
        t = total_graph(g, lab)
        adjacent = set(t.edges)
        cx = build_tsc(g, lab)
        for f in cx.facets:
            if len(f) != 3:
                continue
            a, b, c = f
            hits = ((a, b) in adjacent) + ((a, c) in adjacent) + ((b, c) in adjacent)
            assert hits >= 2, f
        for a, b, c in combinations(range(1, t.m + 1), 3):
            if (a, b) in adjacent and (a, c) in adjacent and (b, c) in adjacent:
                assert (a, b, c) in cx.facets
