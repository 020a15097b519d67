import random
import time
from collections import Counter

import pytest

import tscomplex.covers
from tscomplex import (
    Graph,
    SimplicialComplex,
    TotalLabeling,
    build_tsc,
    facet_ideal_decomposition,
    friendship_cover_count,
    gen_friendship,
    minimal_vertex_covers,
    stanley_reisner_generators,
)
from tscomplex.covers import decomposition_text
from conftest import all_labeled_graphs, random_complexes, tsc_of
from oracles import brute_force_minimal_covers, brute_force_minimal_nonfaces


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


def test_deep_star_has_two_covers():
    star = SimplicialComplex.from_facets([(1, i) for i in range(2, 1502)])
    assert minimal_vertex_covers(star).covers == ((1,), tuple(range(2, 1502)))


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


def test_many_singleton_facets_have_one_cover():
    points = SimplicialComplex.from_facets([(i,) for i in range(1, 1501)])
    rep = minimal_vertex_covers(points)
    assert rep.covers == (tuple(range(1, 1501)),)
    assert rep.unmixed


def test_decomposition_of_path():
    cx = SimplicialComplex.from_facets([(1, 2), (2, 3)])
    comps = facet_ideal_decomposition(cx)
    assert [c.variables for c in comps] == [(1, 3), (2,)]
    assert decomposition_text(comps) == "(x1, x3) ∩ (x2)"


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


def test_stanley_reisner_generators_f1(tsc_friendship):
    # the full 2-skeleton on six vertices: every 4-subset is a minimal non-face
    gens = stanley_reisner_generators(tsc_friendship[1])
    assert len(gens) == 15
    assert all(len(g) == 4 for g in gens)


def test_stanley_reisner_generators_of_disjoint_points():
    cx = SimplicialComplex.from_facets([(1,), (2,)])
    assert stanley_reisner_generators(cx) == [(1, 2)]


def test_stanley_reisner_generators_match_brute_force(tsc_friendship, c42_built, c42_fix):
    complexes = [*random_complexes(300, seed=5), *(tsc_of(g) for g in all_labeled_graphs(5))]
    complexes += [tsc_friendship[n] for n in (1, 2, 3)]
    complexes += [build_tsc(*gen_friendship(n)) for n in (4, 5, 6)]
    complexes += [c42_built, c42_fix, SimplicialComplex.empty(),
                  SimplicialComplex.from_facets([(1, 2, 3, 4, 5)]),
                  SimplicialComplex.from_facets([(9, 1, 2), (9, 2, 3), (9, 3, 4), (9, 5)])]
    for cx in complexes:
        assert stanley_reisner_generators(cx) == brute_force_minimal_nonfaces(cx), cx.facets


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
