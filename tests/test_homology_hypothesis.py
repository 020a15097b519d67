"""Ranks, Betti numbers and the TSC shortcut on hypothesis-drawn inputs."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from tscomplex import (  # noqa: E402
    Graph,
    PrimeField,
    Rationals,
    SimplicialComplex,
    TotalLabeling,
    boundary_matrix,
    build_tsc,
    homology_summary,
    is_cm,
    matrix_rank,
)
from oracles import (  # noqa: E402
    brute_force_reduced_betti,
    dense_boundary_rank,
    euler_characteristic,
)

FIELDS = (Rationals(), PrimeField(2), PrimeField(3), PrimeField(32003))
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)

generators = st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=4),
                      min_size=1, max_size=10)


@SETTINGS
@hypothesis.given(generators)
def test_prime_field_ranks_are_at_most_the_rational_rank(gens):
    cx = SimplicialComplex.from_facets(gens)
    for r in range(1, cx.dimension() + 1):
        bm = boundary_matrix(cx, r)
        rank_q = matrix_rank(bm, Rationals())
        assert matrix_rank(bm, PrimeField(2)) <= rank_q
        assert matrix_rank(bm, PrimeField(3)) <= rank_q


@SETTINGS
@hypothesis.given(generators)
def test_ranks_match_dense_elimination(gens):
    cx = SimplicialComplex.from_facets(gens)
    for r in range(1, cx.dimension() + 1):
        bm = boundary_matrix(cx, r)
        for field, p in ((Rationals(), 0), (PrimeField(2), 2), (PrimeField(3), 3)):
            assert matrix_rank(bm, field) == dense_boundary_rank(bm, p), (r, field)


@SETTINGS
@hypothesis.given(generators)
def test_rational_betti_numbers_match_brute_force(gens):
    cx = SimplicialComplex.from_facets(gens)
    assert homology_summary(cx, Rationals()).reduced_betti == brute_force_reduced_betti(cx.facets)


@SETTINGS
@hypothesis.given(generators)
def test_euler_characteristic_is_the_alternating_betti_sum(gens):
    cx = SimplicialComplex.from_facets(gens)
    for field in FIELDS:
        betti = homology_summary(cx, field).betti
        assert euler_characteristic(cx) == sum((-1) ** k * b for k, b in enumerate(betti)), field


@st.composite
def labeled_connected_graphs(draw):
    """A connected graph on 2..6 vertices with a random total labeling: a
    cycle on 1..k (an edge when k = 2), a random tree hanging the other
    vertices on it, and up to two random chords.  Chordless cycles of length
    5 and 6 make about one graph in eight not Cohen-Macaulay."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(2, m))
    cycle = {(v - 1, v) for v in range(2, k + 1)} | {(1, k)}
    tree = {(draw(st.integers(1, v - 1)), v) for v in range(k + 1, m + 1)}
    chords = draw(st.sets(st.sampled_from(list(combinations(range(1, m + 1), 2))), max_size=2))
    g = Graph(m, cycle | tree | chords)
    labels = draw(st.permutations(range(1, m + g.edge_count + 1)))
    return g, TotalLabeling(tuple(labels[:m]), tuple(labels[m:]))


@SETTINGS
@hypothesis.given(labeled_connected_graphs())
def test_tsc_shortcut_agrees_with_reisner(graph_and_labeling):
    g, labeling = graph_and_labeling
    cx = build_tsc(g, labeling)
    assert (homology_summary(cx).reduced_betti[1] == 0) == is_cm(cx).verdict
