import random
import tracemalloc

import pytest

import tscomplex.complexes
from tscomplex import (
    Graph,
    SimplicialComplex,
    boundary_matrix,
    complex_dumps,
    complex_loads,
    friendship_cover_count,
    gen_friendship,
)
from tscomplex.complexes import MAX_FACET_SIZE
from conftest import all_labeled_graphs, random_complexes, tsc_of
from oracles import brute_force_antichain, brute_force_faces, faces_by_dim, facet_component_count


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
    assert SimplicialComplex([()]).is_facet_connected()
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
    assert SimplicialComplex([()]).component_count() == 0


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
    named = [corpus[name] for name in ("tsc_p3", "c42_fixture", "hollow_triangle",
                                       "two_triangles_shared_vertex")]
    # the cone over the c42 fixture, whose apex 12 lies in every facet
    cone = SimplicialComplex.from_facets(f + (12,) for f in corpus["c42_fixture"].facets)
    for i, cx in enumerate([*named, cone, *random_complexes(200, seed=17)]):
        faces = [face for group in faces_by_dim(cx).values() for face in group]
        face_set = set(faces)
        for sigma in faces:
            in_link = {tau for group in faces_by_dim(cx.link(sigma)).values() for tau in group}
            assert in_link <= face_set
            for tau in faces:
                union = tuple(sorted(set(tau) | set(sigma)))
                # tau lies in the link iff it is disjoint from sigma and recombines with it
                recombines = not set(tau) & set(sigma) and union in face_set
                assert (tau in in_link) == recombines, (i, sigma, tau)


def _peak_bytes(build):
    """The tracemalloc peak of ``build()``, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_facet_index_memory_is_linear():
    # the path on m vertices has 8m - 16 facets on 2m - 1 labels; an index
    # of size vertices x facets would grow about 4x when m doubles
    small, large = (tsc_of(Graph(m, [(i, i + 1) for i in range(1, m)])) for m in (2_500, 5_000))
    first_link = [_peak_bytes(lambda: cx.link(cx.vertices[:1])) for cx in (small, large)]
    validated = [_peak_bytes(lambda: SimplicialComplex(cx.facets)) for cx in (small, large)]
    assert first_link[1] <= 2.5 * first_link[0], first_link
    assert validated[1] <= 2.5 * validated[0], validated


def test_all_faces_against_brute_force(corpus):
    for name, cx in corpus.items():
        if len(cx.vertices) <= 12:
            assert faces_by_dim(cx) == brute_force_faces(cx), name


def test_faces_by_dimension_are_the_brute_force_lists(corpus):
    # faces(k) is built per dimension, from the vertices, the largest facets
    # or the subsets of the facets; each list must be the oracle's, in order
    sweep = [tsc_of(g) for g in all_labeled_graphs(4)]
    links = [cx.link(face) for cx in sweep for face in cx.faces(0) + cx.faces(1)]
    complexes = [*corpus.values(), *sweep, *links, *random_complexes(300, seed=16)]
    assert sum(not cx.is_pure() for cx in complexes) >= 100
    for cx in complexes:
        expected = brute_force_faces(cx)
        for k in (2, 0, 1, *range(-2, cx.dimension() + 3)):  # out of order, then again
            assert cx.faces(k) == expected.get(k, []), (cx, k)
        assert faces_by_dim(cx) == expected
        assert cx.f_vector() == tuple(len(expected[k]) for k in range(cx.dimension() + 1))
    empty = SimplicialComplex([()])
    assert [empty.faces(k) for k in (-1, 0, 1)] == [[], [], []]
    assert (faces_by_dim(empty), empty.f_vector()) == ({}, ())


def test_facet_size_cap_refuses_before_listing_faces(monkeypatch):
    def refuse(*args):
        raise AssertionError("faces were listed")

    monkeypatch.setattr(tscomplex.complexes, "combinations", refuse)
    assert len(SimplicialComplex([range(MAX_FACET_SIZE)]).facets[0]) == MAX_FACET_SIZE
    with pytest.raises(ValueError, match=f"at most {MAX_FACET_SIZE}"):
        SimplicialComplex([(1, 2), range(10, 11 + MAX_FACET_SIZE)])
    with pytest.raises(ValueError, match=f"at most {MAX_FACET_SIZE}"):
        complex_loads('{"facets": [%s]}' % list(range(1, 61)))


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


@pytest.mark.parametrize("value", [1.5, 2.0, True])
@pytest.mark.parametrize("call", [
    lambda n: boundary_matrix(SimplicialComplex([(1, 2, 3)]), n),
    gen_friendship,
    friendship_cover_count,
], ids=["boundary_matrix", "gen_friendship", "friendship_cover_count"])
def test_integer_arguments_refuse_floats_and_bools(call, value):
    # 2.0 and True compare equal to integers the calls accept
    with pytest.raises(ValueError, match="must be an integer"):
        call(value)


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
