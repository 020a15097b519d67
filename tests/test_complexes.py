import random

import pytest

from tscomplex import SimplicialComplex, complex_dumps, complex_loads
from conftest import all_labeled_graphs, random_complexes, tsc_of
from oracles import brute_force_antichain, brute_force_faces, facet_component_count


def test_from_facets_drops_dominated_sets():
    cx = SimplicialComplex.from_facets([(1, 2), (1, 2, 3)])
    assert cx.facets == ((1, 2, 3),)


def test_from_facets_keeps_singletons():
    cx = SimplicialComplex.from_facets([(1,), (2,)])
    assert cx.facets == ((1,), (2,))


def test_from_facets_hollow_triangle():
    cx = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
    assert cx.dimension() == 1
    assert cx.facets == ((1, 2), (1, 3), (2, 3))


def test_from_facets_rejects_empty_input():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([(1, 2), ()])


def _random_families(count, seed):
    """Generating families on at most 8 vertices, with empty faces, the same
    set listed in two vertex orders, nested generators and singletons."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 10)):
            gen = rng.sample(range(1, n + 1), rng.randint(0, min(5, n)))
            gens.append(gen)
            roll = rng.random()
            if roll < 0.25:
                gens.append(gen[::-1])
            elif roll < 0.5:
                gens.append(gen[:rng.randint(0, len(gen))])
        yield gens


def test_antichain_matches_pairwise_filter_on_random_families():
    families = list(_random_families(300, seed=3))
    sets = [[frozenset(g) for g in gens] for gens in families]
    assert sum(frozenset() in s for s in sets) >= 30
    assert sum(any(len(g) == 1 for g in s) for s in sets) >= 30
    assert sum(any(a < b for a in s for b in s) for s in sets) >= 30
    assert sum(any(list(a) != list(b) and set(a) == set(b) for a in gens for b in gens)
               for gens in families) >= 30
    for gens in families:
        assert SimplicialComplex(gens).facets == brute_force_antichain(gens), gens


def test_all_faces_of_one_triangle():
    cx = SimplicialComplex.from_facets([(1, 2, 3)])
    assert cx.faces(1) == [(1, 2), (1, 3), (2, 3)]
    assert cx.faces(0) == [(1,), (2,), (3,)]


def test_all_faces_of_point():
    assert SimplicialComplex.from_facets([(1,)]).faces(0) == [(1,)]


def test_f_vector_examples(corpus):
    assert corpus["solid_triangle"].f_vector() == (3, 3, 1)
    assert corpus["tsc_f1"].f_vector() == (6, 15, 20)
    assert corpus["tsc_f2"].f_vector() == (11, 50, 76)
    assert len(corpus["tsc_f1"].faces(1)) == 15


def test_f_vector_of_graphs_matches_brute_force():
    vertex_links = dict.fromkeys(cx.link((v,)) for g in all_labeled_graphs(5)
                                 for cx in [tsc_of(g)] for v in cx.vertices)
    complexes = [*vertex_links, *random_complexes(300, seed=5)]
    assert sum(cx.dimension() == 1 for cx in complexes) >= 100
    for cx in complexes:
        counts = brute_force_faces(cx)
        assert cx.f_vector() == tuple(len(counts[k]) for k in range(cx.dimension() + 1)), cx


def test_dimension_and_purity(corpus):
    assert corpus["tsc_f1"].dimension() == 2 and corpus["tsc_f1"].is_pure()
    assert corpus["c42_fixture"].dimension() == 2 and corpus["c42_fixture"].is_pure()
    mixed = SimplicialComplex.from_facets([(1,), (2, 3)])
    assert mixed.dimension() == 1 and not mixed.is_pure()


def test_facet_connectivity(corpus):
    assert corpus["tsc_f1"].is_facet_connected()
    assert not corpus["two_disjoint_edges"].is_facet_connected()
    assert not corpus["two_points"].is_facet_connected()
    assert SimplicialComplex.empty().is_facet_connected()
    assert SimplicialComplex.from_facets([(1, 2, 3)]).is_facet_connected()


def test_component_count_matches_bfs_oracle(corpus):
    families = list(_random_families(300, seed=11))
    complexes = [SimplicialComplex(gens) for gens in families] + list(corpus.values())
    complexes = [cx for cx in complexes if cx.dimension() >= 0]   # {∅} is checked below
    assert sum(any(len(f) == 1 for f in cx.facets) for cx in complexes) >= 30
    assert sum(facet_component_count(cx) > 1 for cx in complexes) >= 15
    for cx in complexes:
        assert cx.component_count() == facet_component_count(cx), cx
        assert cx.is_facet_connected() == (facet_component_count(cx) <= 1), cx
    assert SimplicialComplex.empty().component_count() == 0


def test_link_of_vertex_in_simplex():
    cx = SimplicialComplex.from_facets([(1, 2, 3)])
    assert cx.link((1,)).facets == ((2, 3),)


def test_link_at_empty_face_is_whole_complex(corpus):
    cx = corpus["tsc_p3"]
    assert cx.link(()) is cx


def test_link_at_facet_is_empty_complex():
    cx = SimplicialComplex.from_facets([(1, 2, 3)])
    lk = cx.link((1, 2, 3))
    assert lk.dimension() == -1
    assert lk.vertices == ()
    assert lk.f_vector() == ()


def test_link_of_center_vertex_in_f1(corpus):
    # every triple {x, y, 6} is a face, so the link is all 10 edges on 1..5
    lk = corpus["tsc_f1"].link((6,))
    assert lk.facets == tuple((a, b) for a in range(1, 6) for b in range(a + 1, 6))


def test_link_rejects_non_face(corpus):
    with pytest.raises(ValueError):
        corpus["hollow_triangle"].link((1, 2, 3))


def test_link_faces_recombine_into_faces(corpus):
    for name in ("tsc_p3", "c42_fixture", "hollow_triangle", "two_triangles_shared_vertex"):
        cx = corpus[name]
        faces = [face for group in cx.all_faces().values() for face in group]
        face_set = set(faces)
        for sigma in faces:
            in_link = {tau for group in cx.link(sigma).all_faces().values() for tau in group}
            assert in_link <= face_set
            for tau in faces:
                union = tuple(sorted(set(tau) | set(sigma)))
                assert cx.has_face(union) == (union in face_set)
                # tau lies in the link iff it is disjoint from sigma and recombines with it
                recombines = not set(tau) & set(sigma) and union in face_set
                assert (tau in in_link) == recombines, (name, sigma, tau)


def test_all_faces_against_brute_force(corpus):
    for name, cx in corpus.items():
        if len(cx.vertices) <= 12:
            assert cx.all_faces() == brute_force_faces(cx), name


def test_face_count_inclusion_bound(corpus):
    # sum over facets of 2^|facet| counts every face (plus ∅) at least once
    for cx in corpus.values():
        total_faces = sum(cx.f_vector())
        assert sum(2 ** len(f) for f in cx.facets) >= total_faces + 1
    disjoint = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    assert sum(2 ** len(f) for f in disjoint.facets) == sum(disjoint.f_vector()) + 2


def test_reduced_b0_matches_component_count(corpus):
    from tscomplex import homology_summary

    for name, cx in corpus.items():
        summary = homology_summary(cx)
        assert summary.reduced_betti[0] == facet_component_count(cx) - 1, name


def test_vertices_are_exactly_facet_labels():
    cx = SimplicialComplex.from_facets([(3, 7), (9,)])
    assert cx.vertices == (3, 7, 9)


def test_complex_json_roundtrip_is_byte_stable(corpus):
    for name in ("tsc_f2", "c42_fixture", "hollow_triangle"):
        text = complex_dumps(corpus[name])
        again = complex_loads(text)
        assert again == corpus[name]
        assert complex_dumps(again) == text


def test_complex_json_rejects_vertex_count_mismatch():
    with pytest.raises(ValueError):
        complex_loads('{"n": 5, "facets": [[1, 2, 3]]}')


@pytest.mark.parametrize("face", [(1.5, 2), (1.0, 2), ("1", "2"), (True, 2)])
def test_non_integer_vertices_are_refused(face):
    with pytest.raises(ValueError, match="must be an integer"):
        SimplicialComplex([face])
    cx = SimplicialComplex([(1, 2)])
    with pytest.raises(ValueError, match="must be an integer"):
        cx.link(face[:1])
    with pytest.raises(ValueError, match="must be an integer"):
        cx.has_face(face)


@pytest.mark.parametrize("text", [
    '{"facets": [[1.7, 2], [true, 3]]}',
    '{"facets": [[1, 2.0]]}',
    '{"facets": [[true, 2]]}',
    '{"facets": [[1, "2"]]}',
    '{"n": 2.0, "facets": [[1, 2]]}',
])
def test_complex_json_accepts_only_integers(text):
    with pytest.raises(ValueError, match="must be an integer"):
        complex_loads(text)
