import random
import time
from collections import Counter
from itertools import combinations

import pytest

import tscomplex.covers
from tscomplex import (
    Graph,
    SimplicialComplex,
    TotalLabeling,
    build_tsc,
    complex_dumps,
    facet_ideal_decomposition,
    friendship_cover_count,
    gen_friendship,
    minimal_vertex_covers,
    stanley_reisner_generators,
)
from tscomplex.covers import _friendship_cover_formula, _incidence, _minimal_transversals
from conftest import all_labeled_graphs, random_complexes, run_cli, tsc_of
from oracles import (
    brute_force_minimal_covers,
    brute_force_minimal_nonfaces,
    friendship_large_cover_complements,
)


def test_covers_of_one_triangle():
    rep = minimal_vertex_covers(SimplicialComplex.from_facets([(1, 2, 3)]))
    assert rep.covers == ((1,), (2,), (3,))
    assert rep.unmixed


def test_covers_of_c42_fixture(c42_fix):
    rep = minimal_vertex_covers(c42_fix)
    assert (1, 4, 5, 6, 8, 9) in rep.covers
    assert (1, 2, 4, 5, 6, 8, 10) in rep.covers
    assert not rep.unmixed
    assert len(rep.covers) == 34
    assert sorted(set(rep.cardinalities)) == [6, 7]


# enumeration is authoritative; the closed form counts only the
# cardinality-(3n+1) covers, and larger minimal covers exist for n >= 2
FRIENDSHIP_CENSUS = {
    1: {4: 15},
    2: {7: 55, 8: 9},
    3: {10: 252, 12: 13},
    4: {13: 1053, 16: 17},
    5: {16: 4158, 20: 21},
    6: {19: 15795, 24: 25},
}


@pytest.fixture(scope="module")
def friendship_covers(tsc_friendship):
    return {n: minimal_vertex_covers(tsc_friendship.get(n) or build_tsc(*gen_friendship(n)))
            for n in FRIENDSHIP_CENSUS}


def test_friendship_cover_census(friendship_covers):
    for n, histogram in FRIENDSHIP_CENSUS.items():
        rep = friendship_covers[n]
        assert dict(Counter(len(c) for c in rep.covers)) == histogram, n
        assert rep.unmixed == (n == 1)


def test_friendship_census_does_not_depend_on_labeling():
    g, paper = gen_friendship(5)
    labels = list(range(1, paper.label_count + 1))
    random.Random(5).shuffle(labels)
    shuffled = TotalLabeling(tuple(labels[:g.m]), tuple(labels[g.m:]))
    rep = minimal_vertex_covers(build_tsc(g, shuffled))
    assert dict(Counter(len(c) for c in rep.covers)) == FRIENDSHIP_CENSUS[5]


def test_friendship_closed_form_matches_cardinality_census(friendship_covers):
    for n in range(2, 7):
        at_card = sum(1 for c in friendship_covers[n].covers if len(c) == 3 * n + 1)
        assert at_card == friendship_cover_count(n), n


def test_friendship_covers_of_size_4n_match_the_closed_form(friendship_covers):
    def complements_of_size_4n(n):
        labels = set(range(1, 5 * n + 2))
        return {tuple(sorted(labels.difference(c)))
                for c in friendship_covers[n].covers if len(c) == 4 * n}

    for n in range(2, 7):
        assert complements_of_size_4n(n) == friendship_large_cover_complements(n), n
    # at n = 1 the sizes 4n and 3n+1 coincide: 15 covers = 5 of the family + 10
    family, every = friendship_large_cover_complements(1), complements_of_size_4n(1)
    assert len(family) == 5 and len(every) == 15 and family <= every
    assert len(every - family) == _friendship_cover_formula(1) == 10


def test_is_unmixed_examples(corpus):
    assert not minimal_vertex_covers(corpus["c42_fixture"]).unmixed
    assert minimal_vertex_covers(corpus["tsc_f1"]).unmixed
    assert minimal_vertex_covers(corpus["segment"]).unmixed


def test_every_cover_covers_and_is_irredundant(corpus):
    for name in ("tsc_p3", "c42_fixture", "tsc_f2", "hollow_triangle"):
        cx = corpus[name]
        facets = [set(f) for f in cx.facets]
        rep = minimal_vertex_covers(cx)
        for cover in rep.covers:
            cs = set(cover)
            assert all(cs & f for f in facets), (name, cover)
            for v in cover:
                smaller = cs - {v}
                assert any(not (smaller & f) for f in facets), (name, cover, v)


def test_cover_enumeration_matches_brute_force(corpus):
    for name, cx in corpus.items():
        if len(cx.vertices) <= 16:
            rep = minimal_vertex_covers(cx)
            assert list(rep.covers) == brute_force_minimal_covers(cx), name


def _random_generators(rng):
    """Up to 12 vertices with sparse labels, split into two blocks that no
    generator crosses; generators of 1..5 vertices, some nested in others."""
    verts = rng.sample(range(1, 40), rng.randint(1, 12))
    cut = rng.randint(1, len(verts))
    blocks = [b for b in (verts[:cut], verts[cut:]) if b]
    gens = []
    for _ in range(rng.randint(1, 2 * len(verts))):
        block = rng.choice(blocks)
        gens.append(rng.sample(block, rng.randint(1, min(5, len(block)))))
        if rng.random() < 0.2:
            gens.append(rng.sample(gens[-1], rng.randint(1, len(gens[-1]))))
    return gens


def test_cover_enumeration_matches_brute_force_on_random_complexes():
    rng = random.Random(20141)
    kinds = Counter()
    for _ in range(300):
        cx = SimplicialComplex.from_facets(_random_generators(rng))
        kinds.update({
            "singleton facet": any(len(f) == 1 for f in cx.facets),
            "disconnected": not cx.is_facet_connected(),
            "non-pure": not cx.is_pure(),
        })
        assert list(minimal_vertex_covers(cx).covers) == brute_force_minimal_covers(cx), cx.facets
    assert all(kinds[k] >= 30 for k in ("singleton facet", "disconnected", "non-pure")), kinds


def star(k):
    return SimplicialComplex.from_facets([(1, i) for i in range(2, k + 2)])


def test_deep_star_has_two_covers():
    # the centre alone, or every leaf
    assert minimal_vertex_covers(star(1)).covers == ((1,), (2,))
    for k in (2, 3, 50):
        assert minimal_vertex_covers(star(k)).covers == ((1,), tuple(range(2, k + 2))), k
    # once a leaf is chosen the centre is no child's candidate, so each node
    # finds a facet with one candidate at once; rescanning every uncovered
    # facet at each node took 1.0-1.3 s
    deep = star(1500)
    start = time.perf_counter()
    assert minimal_vertex_covers(deep).covers == ((1,), tuple(range(2, 1502)))
    assert time.perf_counter() - start < 0.5


def test_transversal_cap_admits_the_friendship_n8_census():
    # friendship n = 8 has 210,714 minimal covers (enumerated, ~5 s)
    assert tscomplex.covers.MAX_TRANSVERSALS >= 210_714


def test_too_many_transversals_are_refused_as_they_are_found(monkeypatch):
    # the 30-vertex path's TSC has far more than a thousand minimal covers
    # and minimal non-faces; the 8-vertex path's 271 covers stay below
    monkeypatch.setattr(tscomplex.covers, "MAX_TRANSVERSALS", 1000)
    path = tsc_of(Graph(30, [(v, v + 1) for v in range(1, 30)]))
    for search in (minimal_vertex_covers, stanley_reisner_generators):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 1000 minimal transversals"):
            search(path)
        assert time.perf_counter() - start < 5.0, search
    assert len(minimal_vertex_covers(tsc_of(Graph(8, [(v, v + 1) for v in range(1, 8)])))
               .covers) == 271


def test_sparse_complex_is_refused_before_the_face_link_pass(monkeypatch):
    # the path on 4,000 vertices has 7,999 labels and 31,984 facets, so at
    # least C(7999, 2) - 3 * 31984 = 31,892,049 vertex pairs span no edge
    path = tsc_of(Graph(4000, [(v, v + 1) for v in range(1, 4000)]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"more than 250000 minimal transversals"):
        stanley_reisner_generators(path)
    assert time.perf_counter() - start < 1.0
    # the 30-vertex path's bound (1,039 pairs) is below 1,500, but it has 1,651
    # minimal non-faces: the pass still refuses it as they are found
    monkeypatch.setattr(tscomplex.covers, "MAX_TRANSVERSALS", 1500)
    with pytest.raises(ValueError, match="more than 1500 minimal transversals"):
        stanley_reisner_generators(tsc_of(Graph(30, [(v, v + 1) for v in range(1, 30)])))


def test_many_singleton_facets_have_one_cover():
    points = SimplicialComplex.from_facets([(i,) for i in range(1, 1501)])
    rep = minimal_vertex_covers(points)
    assert rep.covers == (tuple(range(1, 1501)),)
    assert rep.unmixed


def test_the_empty_facet_cannot_be_covered():
    with pytest.raises(ValueError, match="the empty facet cannot be covered"):
        minimal_vertex_covers(SimplicialComplex([()]))


def test_decomposition_of_path(tmp_path):
    cx = SimplicialComplex.from_facets([(1, 2), (2, 3)])
    comps = facet_ideal_decomposition(cx)
    assert [c.variables for c in comps] == [(1, 3), (2,)]
    path = tmp_path / "path.json"
    path.write_text(complex_dumps(cx))
    assert run_cli("decompose", str(path)) == (0, "(x1, x3) ∩ (x2)\n", "")


def test_decomposition_of_triangle():
    comps = facet_ideal_decomposition(SimplicialComplex.from_facets([(1, 2, 3)]))
    assert [c.variables for c in comps] == [(1,), (2,), (3,)]


def test_decomposition_bijects_with_covers(tsc_friendship):
    cx = tsc_friendship[2]
    rep = minimal_vertex_covers(cx)
    comps = facet_ideal_decomposition(cx)
    assert [c.variables for c in comps] == list(rep.covers)
    assert len(comps) == 64  # 55 of size 7 plus 9 of size 8


def test_stanley_reisner_generators():
    hollow = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
    assert stanley_reisner_generators(hollow) == [(1, 2, 3)]

    full = SimplicialComplex.from_facets([(1, 2, 3, 4)])
    assert stanley_reisner_generators(full) == []

    hollow_tetrahedron = SimplicialComplex.from_facets(combinations((1, 2, 3, 4), 3))
    assert stanley_reisner_generators(hollow_tetrahedron) == [(1, 2, 3, 4)]
    # the apex lies in every facet, so it meets no complement
    cone = SimplicialComplex.from_facets([(1, 2, 9), (2, 3, 9), (1, 3, 9), (4, 9)])
    assert stanley_reisner_generators(cone) == [(1, 2, 3), (1, 4), (2, 4), (3, 4)]


def test_stanley_reisner_generators_f1(tsc_friendship):
    # the full 2-skeleton on six vertices: every 4-subset is a minimal non-face
    gens = stanley_reisner_generators(tsc_friendship[1])
    assert len(gens) == 15
    assert all(len(g) == 4 for g in gens)


def test_stanley_reisner_generators_of_disjoint_points():
    cx = SimplicialComplex.from_facets([(1,), (2,)])
    assert stanley_reisner_generators(cx) == [(1, 2)]


@pytest.fixture(scope="module")
def sr_corpus(tsc_friendship, c42_built, c42_fix):
    complexes = [*random_complexes(300, seed=5), *(tsc_of(g) for g in all_labeled_graphs(5))]
    complexes += [tsc_friendship[n] for n in (1, 2, 3)]
    complexes += [build_tsc(*gen_friendship(n)) for n in (4, 5, 6)]
    complexes += [c42_built, c42_fix, SimplicialComplex([()]),
                  SimplicialComplex.from_facets([(1, 2, 3, 4, 5)]),
                  SimplicialComplex.from_facets([(9, 1, 2), (9, 2, 3), (9, 3, 4), (9, 5)])]
    return complexes


def test_stanley_reisner_generators_match_brute_force(sr_corpus):
    for cx in sr_corpus:
        assert stanley_reisner_generators(cx) == brute_force_minimal_nonfaces(cx), cx.facets


def _transversals_of_complements(cx):
    """The minimal non-faces as MMCS finds them: the minimal transversals of
    the facet complements V ∖ F, whose masks are the incidence masks
    flipped.  A facet holding every vertex has an empty complement, which
    nothing meets, so a simplex has none."""
    vertices, members, hits = _incidence(cx.facets)
    full_v, full_f = (1 << len(vertices)) - 1, (1 << len(members)) - 1
    return sorted(_minimal_transversals(vertices, [full_v ^ m for m in members],
                                        [full_f ^ h for h in hits]))


def test_stanley_reisner_generators_match_transversals_of_complements(sr_corpus):
    # the brute-force scan cannot reach these: facets of 5..16 vertices
    rng = random.Random(1976)
    simplex = SimplicialComplex.from_facets([range(1, 17)])
    large = [simplex]
    large += [SimplicialComplex.from_facets([rng.sample(range(1, 1 + n), k) for _ in range(count)])
              for count, k, n in ((8, 16, 24), (40, 10, 30), (200, 5, 40))]
    assert stanley_reisner_generators(simplex) == []
    for cx in [*sr_corpus, *large]:
        start = time.perf_counter()
        assert stanley_reisner_generators(cx) == _transversals_of_complements(cx), cx.facets
        if cx is large[1]:
            assert time.perf_counter() - start < 5.0
    assert max(map(len, large[1].facets)) == 16


def test_friendship_cover_count_values():
    assert friendship_cover_count(2) == 55
    assert friendship_cover_count(3) == 252
    assert friendship_cover_count(4) == 1053


def test_friendship_cover_count_rejects_n1():
    with pytest.raises(ValueError):
        friendship_cover_count(1)


def test_friendship_n1_count_recorded(tsc_friendship):
    # open point: the formula evaluates to 10 at n = 1, while enumeration
    # (authoritative, checked against the 2^6 brute force) finds the 15
    # complements of 2-subsets; neither formula value is asserted.
    rep = minimal_vertex_covers(tsc_friendship[1])
    assert list(rep.covers) == brute_force_minimal_covers(tsc_friendship[1])
    assert len(rep.covers) == 15
    assert set(rep.cardinalities) == {4}
